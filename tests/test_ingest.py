"""Document ingest: exact errors, one parse per distinct string, and no
``typing`` aliases in runtime type checks."""

import ast
import itertools
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from adt import (
    DiscreteMeasure,
    DocumentError,
    FilteredTree,
    TreeNode,
    TreeValidationError,
    load_coupling,
    load_tree,
    parse_probability,
    parse_value_entry,
)
from adt import couplings, process_model

SRC = Path(__file__).resolve().parent.parent / "src" / "adt"


def _document(roots, steps: int, rng: random.Random) -> dict:
    """A tree document from nested ``(value string, [subtrees])`` pairs.

    Siblings get info labels by position, so a subtree repeated under one
    parent stays valid; edge probabilities are integer weights as 'w/total'.
    """
    nodes = []
    counter = itertools.count(1)

    def edges(subtrees, time):
        weights = [rng.randint(1, 4) for _ in subtrees]
        out = []
        for k, ((value, kids), w) in enumerate(zip(subtrees, weights)):
            node_id = f"n{next(counter)}"
            out.append({"id": node_id, "prob": f"{w}/{sum(weights)}"})
            nodes.append({
                "id": node_id, "time": time, "value": [value], "info": f"k{k}",
                "children": edges(kids, time + 1),
            })
        return out

    root = edges(roots, 1)
    return {"config": {"N": steps, "d": 1, "p": "1"}, "nodes": nodes, "root_children": root}


def _chain_doc(values, probs=None) -> dict:
    """One parent 'a' at time 1 whose leaf children carry ``values``."""
    probs = probs or ["1/%d" % len(values)] * len(values)
    kids = [{"id": f"c{k}", "prob": p} for k, p in enumerate(probs)]
    nodes = [{"id": "a", "time": 1, "value": ["0"], "children": kids}]
    nodes += [{"id": f"c{k}", "time": 2, "value": [v]} for k, v in enumerate(values)]
    return {
        "config": {"N": 2, "d": 1, "p": "1"},
        "nodes": nodes,
        "root_children": [{"id": "a", "prob": "1"}],
    }


def _late_bad_probability() -> dict:
    # '1/4' parses four times first (memo hit three times), then '1/4 x' fails
    doc = _chain_doc(["1", "2", "3", "4"], ["1/4"] * 4)
    doc["nodes"].append({"id": "b", "time": 1, "value": ["1"], "children": [
        {"id": "b0", "prob": "1/4"}, {"id": "b1", "prob": "1/4 x"}]})
    return doc


def _probability_that_parsed_as_a_value() -> dict:
    # '-1/4' is a good value and is in the value memo; as a probability it
    # still parses on its own and fails validation
    return _chain_doc(["-1/4", "1"], ["-1/4", "5/4"])


def _off_by_a_trillionth() -> dict:
    return _chain_doc(["1", "2"], ["1/2", "500000000001/1000000000000"])


def _with_config(**fields) -> dict:
    doc = _chain_doc(["1"])
    doc["config"].update(fields)
    return doc


def _with_time(time) -> dict:
    doc = _chain_doc(["1"])
    doc["nodes"][0]["time"] = time
    return doc


def _shared_leaves(*leaves) -> dict:
    """Time-1 nodes 'a', 'b', ... with values 0, 1, ..., the k-th with the
    one leaf ``leaves[k]``; a leaf named twice has two parents."""
    parents = [chr(ord("a") + k) for k in range(len(leaves))]
    nodes = [
        {"id": p, "time": 1, "value": [str(k)], "children": [{"id": leaf, "prob": "1"}]}
        for k, (p, leaf) in enumerate(zip(parents, leaves))
    ]
    nodes += [{"id": leaf, "time": 2, "value": ["0"]} for leaf in dict.fromkeys(leaves)]
    root = [{"id": p, "prob": f"1/{len(parents)}"} for p in parents]
    return {"config": {"N": 2, "d": 1, "p": "1"}, "nodes": nodes, "root_children": root}


def _unreachable_subtree() -> dict:
    doc = _chain_doc(["1"])
    doc["nodes"] += [
        {"id": "z", "time": 1, "value": ["5"], "children": [{"id": "y0", "prob": "1"}]},
        {"id": "y0", "time": 2, "value": ["5"]},
    ]
    return doc


MALFORMED = {
    "bad probability after the good one parsed": (
        _late_bad_probability, DocumentError, "cannot parse probability '1/4 x'"),
    "probability memo is not the value memo": (
        _probability_that_parsed_as_a_value, TreeValidationError,
        "node 'a' carries probability -1/4 on child 'c0'; must be positive"),
    "float probability": (
        lambda: _chain_doc(["1", "2"], [0.5, "1/2"]), DocumentError,
        "probabilities must be strings or integers, got float"),
    "list value": (
        lambda: _chain_doc([["1"], "2"]), DocumentError,
        "value coordinates must be strings or numbers, got list"),
    "NaN value": (
        lambda: _chain_doc(["1", "NaN"]), DocumentError, "cannot parse value coordinate 'NaN'"),
    "nan value": (
        lambda: _chain_doc(["1", "nan"]), DocumentError, "cannot parse value coordinate 'nan'"),
    "0.5 and 1/2 collide as one label": (
        lambda: _chain_doc(["0.5", "1/2"]), TreeValidationError,
        "node 'a' has two children with value (1/2) and info ''"),
    "children off by 1/10^12": (
        _off_by_a_trillionth, TreeValidationError,
        "child probabilities sum to 1000000000001/1000000000000 at node 'a'"),
    "N beyond float range": (
        lambda: _with_config(N=float("inf")), DocumentError, "config N and d must be integers"),
    "N not whole": (
        lambda: _with_config(N=2.5), DocumentError, "config N and d must be integers"),
    "p beyond float range": (
        lambda: _with_config(p=float("inf")), DocumentError,
        "config p must be a cost order (a number or 'a/b'), got inf"),
    "p NaN": (
        lambda: _with_config(p=float("nan")), DocumentError,
        "config p must be a cost order (a number or 'a/b'), got nan"),
    "p a bool": (
        lambda: _with_config(p=True), DocumentError,
        "config p must be a cost order (a number or 'a/b'), got True"),
    "p not a number": (
        lambda: _with_config(p="abc"), DocumentError,
        "config p must be a cost order (a number or 'a/b'), got 'abc'"),
    "d a bool": (
        lambda: _with_config(d=True), DocumentError, "config N and d must be integers"),
    "value_decimals beyond float range": (
        lambda: _with_config(value_decimals=float("inf")), DocumentError,
        "config value_decimals must be an integer"),
    "time beyond float range": (
        lambda: _with_time(float("inf")), DocumentError, "node 'a' has a non-integer time"),
    "time not whole": (
        lambda: _with_time(1.5), DocumentError, "node 'a' has a non-integer time"),
    "time a bool": (
        lambda: _with_time(True), DocumentError, "node 'a' has a non-integer time"),
    "root children off by 1/10^12": (
        lambda: {**_chain_doc(["1"]), "root_children": [
            {"id": "a", "prob": "999999999999/1000000000000"}]},
        TreeValidationError,
        "child probabilities sum to 999999999999/1000000000000 at the root"),
    "node with two parents": (
        lambda: _shared_leaves("x", "x"), TreeValidationError, "node 'x' has more than one parent"),
    "two nodes with two parents: the first in pre-order": (
        lambda: _shared_leaves("x", "x", "y", "y"), TreeValidationError,
        "node 'x' has more than one parent"),
    "unreachable subtree: the first id in sorted order": (
        _unreachable_subtree, TreeValidationError, "node 'y0' is not reachable from the root"),
    "duplicate root edge": (
        lambda: {**_chain_doc(["1"]), "root_children": [
            {"id": "a", "prob": "1/2"}, {"id": "a", "prob": "1/2"}]},
        TreeValidationError, "the root has two children with value (0) and info ''"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_errors(case):
    build, error, message = MALFORMED[case]
    with pytest.raises(error) as caught:
        load_tree(build())
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_integer_fields_accept_whole_numbers_and_digit_strings():
    doc = _with_config(N=2.0, d="1", value_decimals=6.0)
    doc["nodes"][0]["time"] = "1"
    tree = load_tree(doc)
    assert (tree.config.num_steps, tree.config.dim, tree.config.value_decimals) == (2, 1, 6)
    assert tree.node("a").time == 1


def test_float_edge_probabilities_are_rejected():
    # float edges that sum to 1.0 in floats, under three exact 1/3 roots:
    # the node that carries the first float is named
    third = 1.0 - 0.1 - 0.2
    nodes = {}
    for r in range(3):
        kids = tuple((f"r{r}.{k}", q) for k, q in enumerate((0.1, 0.2, third)))
        nodes[f"r{r}"] = TreeNode(f"r{r}", 1, (F(r),), "", kids)
        for k, (cid, _) in enumerate(kids):
            nodes[cid] = TreeNode(cid, 2, (F(k),), "", ())
    config = load_tree(_chain_doc(["1"])).config
    with pytest.raises(TreeValidationError) as caught:
        FilteredTree(config, nodes, tuple((f"r{r}", F(1, 3)) for r in range(3)))
    assert str(caught.value) == "node 'r0' carries probability 0.1 on child 'r0.0'; it must be rational"
    assert caught.value.node_id == "r0.0"


@pytest.mark.parametrize("steps", [1, 2])
def test_float_value_coordinates_are_rejected(steps):
    # a float coordinate used to pass validation and then crash canonical
    # interning with an AttributeError
    values = [F(0)] * (steps - 1) + [0.5]
    nodes = {
        f"n{t}": TreeNode(f"n{t}", t, (v,), "", ((f"n{t + 1}", F(1)),) if t < steps else ())
        for t, v in enumerate(values, start=1)
    }
    config = helpers.cfg(n=steps)
    with pytest.raises(TreeValidationError) as caught:
        FilteredTree(config, nodes, (("n1", F(1)),))
    assert str(caught.value) == f"node 'n{steps}' has value coordinate 0.5; it must be rational"
    assert caught.value.node_id == f"n{steps}"


def test_float_value_parses_like_its_repr():
    # a float bypasses the string memo and parses through its repr
    tree = load_tree(_chain_doc([0.375, "0.5", 0.1], ["1/2", "1/4", "1/4"]))
    assert [tree.node(f"c{k}").value for k in range(3)] == [(F(3, 8),), (F(1, 2),), (F(1, 10),)]


def test_measure_total_failure_names_the_exact_total():
    with pytest.raises(TreeValidationError) as caught:
        DiscreteMeasure(("x", "y"), (F(1, 3), F(1, 2)))
    assert str(caught.value) == "measure weights sum to 5/6, expected 1"


# -- load_tree against a one-parse-per-entry reference ----------------------------

VALUE_STRINGS = ("0", "1", "-1", "0.5", "1/2", "2/4", "3/8", "0.375", "-1/4", "0.15", "1/3", " 7 ")


def _spellings(p: F) -> list:
    out = [f"{p.numerator}/{p.denominator}", f"{2 * p.numerator}/{2 * p.denominator}"]
    if p == 1:
        out.append(1)
    if all(f in (2, 5) for f in _factors(p.denominator)):
        out.append(str(Decimal(p.numerator) / Decimal(p.denominator)))
    return out


def _factors(n: int) -> list:
    found, k = [], 2
    while n > 1:
        while n % k == 0:
            found.append(k)
            n //= k
        k += 1
    return found


@st.composite
def documents(draw):
    steps = draw(st.integers(1, 3))
    counter = itertools.count(1)
    nodes = []

    def edges(time):
        weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        out = []
        for k, w in enumerate(weights):
            node_id = f"n{next(counter)}"
            prob = draw(st.sampled_from(_spellings(F(w, sum(weights)))))
            out.append({"id": node_id, "prob": prob})
            kids = edges(time + 1) if time < steps else []
            value = [draw(st.sampled_from(VALUE_STRINGS))]
            nodes.append({"id": node_id, "time": time, "value": value, "info": f"i{k}", "children": kids})
        return out

    root = edges(1)
    decimals = draw(st.sampled_from((1, 2, 12)))
    config = {"N": steps, "d": 1, "p": "1", "value_decimals": decimals}
    return {"config": config, "nodes": nodes, "root_children": root}


def _reference(doc):
    """Values, edges and leaf masses with one parse call per entry."""
    decimals = doc["config"]["value_decimals"]
    values = {n["id"]: tuple(parse_value_entry(v, decimals) for v in n["value"]) for n in doc["nodes"]}
    edges = {
        n["id"]: tuple((e["id"], parse_probability(e["prob"])) for e in n["children"])
        for n in doc["nodes"]
    }
    roots = tuple((e["id"], parse_probability(e["prob"])) for e in doc["root_children"])
    mass, stack = {}, list(roots)
    while stack:
        node_id, p = stack.pop()
        mass[node_id] = p
        stack.extend((cid, p * q) for cid, q in edges[node_id])
    return values, edges, roots, mass


@settings(max_examples=60, deadline=None)
@given(documents())
def test_load_tree_matches_one_parse_per_entry(doc):
    tree = load_tree(doc)
    values, edges, roots, mass = _reference(doc)
    assert tree.root_children == roots
    for node in tree.nodes():
        assert node.value == values[node.node_id]
        assert all(type(v) is F for v in node.value)
        assert node.children == edges[node.node_id]
        assert all(type(p) is F for _, p in node.children)
    for leaf in tree.leaves():
        assert tree.prob(leaf) == mass[leaf]


# -- parse work ---------------------------------------------------------------------


def _bushy(rng: random.Random, steps: int, width: int, dup_rate: float):
    """Nested ``(value, subtrees)``: some siblings repeat the first one."""

    def build(time):
        value = f"{rng.randint(-8, 8)}/8"
        if time == steps:
            return value, []
        kids = [build(time + 1)]
        for _ in range(width - 1):
            kids.append(kids[0] if rng.random() < dup_rate else build(time + 1))
        return value, kids

    return [build(1) for _ in range(width)]


def test_each_distinct_string_parses_once(monkeypatch):
    rng = random.Random(5)
    doc = _document(_bushy(rng, 5, 4, 0.3), 5, rng)
    calls = {"value": [], "prob": []}

    def counting(key, fn):
        def wrapper(raw, *args):
            calls[key].append(raw)
            return fn(raw, *args)

        return wrapper

    monkeypatch.setattr(process_model, "parse_value_entry", counting("value", parse_value_entry))
    monkeypatch.setattr(process_model, "parse_probability", counting("prob", parse_probability))
    tree = load_tree(doc)

    assert tree.size() == len(doc["nodes"]) >= 1000
    value_strings = [v for n in doc["nodes"] for v in n["value"]]
    prob_strings = [e["prob"] for n in doc["nodes"] for e in n["children"]]
    prob_strings += [e["prob"] for e in doc["root_children"]]
    assert len(value_strings) > 10 * len(set(value_strings))
    assert Counter(calls["value"]) == Counter(set(value_strings))
    assert Counter(calls["prob"]) == Counter(set(prob_strings))


def test_coupling_weights_parse_once_and_merge_repeats(monkeypatch):
    calls = []

    def counting(raw):
        calls.append(raw)
        return parse_probability(raw)

    x = helpers.bernoulli_x()
    support = [("a+", "a+", "2/8"), ("a-", "a-", "4/8"), ("a+", "a+", "2/8")]
    doc = {
        "left_tree": x.to_document(),
        "right_tree": x.to_document(),
        "support": [{"left": l, "right": r, "weight": w} for l, r, w in support],
    }
    monkeypatch.setattr(couplings, "parse_probability", counting)
    pi = load_coupling(doc)
    assert pi.support_items() == [(("a+", "a+"), F(1, 2)), (("a-", "a-"), F(1, 2))]
    assert all(type(w) is F for _, w in pi.support_items())
    assert calls == ["2/8", "4/8"]


# -- runtime type checks --------------------------------------------------------------


def _typing_isinstance_calls(source: str, name: str) -> list:
    """``isinstance``/``issubclass`` calls in ``source`` whose class argument
    names a ``typing`` alias, as 'name:line'."""
    tree = ast.parse(source)
    aliases, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            aliases.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "typing")

    def from_typing(arg) -> bool:
        if isinstance(arg, ast.Tuple):
            return any(from_typing(elt) for elt in arg.elts)
        if isinstance(arg, ast.Name):
            return arg.id in aliases
        return isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) and arg.value.id in modules

    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass")
        and len(node.args) == 2
        and from_typing(node.args[1])
    ]


def test_scan_flags_typing_aliases():
    source = (
        "import typing\nfrom typing import Mapping as M, Sequence\n"
        "isinstance(x, M)\nisinstance(x, (str, Sequence))\nissubclass(t, typing.Mapping)\n"
        "from collections.abc import Set\nisinstance(x, Set)\n"
    )
    assert _typing_isinstance_calls(source, "m") == ["m:3", "m:4", "m:5"]


def test_no_typing_alias_in_isinstance():
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        for hit in _typing_isinstance_calls(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert found == []
