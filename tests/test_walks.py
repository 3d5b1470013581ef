"""Stage-by-stage walks: no recursion over the time axis, no reference
cycles, a weak intern table, and horizons far past the recursion limit."""

import ast
import gc
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import helpers
from adt import (
    PayoffSpec,
    assemble_optimal_coupling,
    aw_distance,
    canonical_tree,
    check_bicausal,
    convergence_report,
    doob,
    extend_with_randomization,
    induced_tree,
    information_process,
    is_self_aware,
    lp_distance,
    max_pointwise_gap,
    optimal_stopping,
    product_process,
    pushforward_path_law,
    quantile_map,
    random_bicausal_cost,
    subtree_process,
    transfer,
    verify_extension,
)
from adt import canonical
from adt.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "adt"

# The only functions allowed to call themselves; neither recurses over time.
ALLOWED_SELF_CALLS = {
    # walks the payoff expression, so its depth is that of the expression
    "applications._evaluate",
}


def _self_calls(path: Path) -> set:
    """Functions in a module that call themselves: by bare name for
    module-level and nested functions, and through ``<name>.<method>`` (as
    ``self.<method>`` or on another instance) for methods and properties."""
    found = set()

    def scan(node, scope: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                scan(child, f"{scope}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope}.{child.name}"
                for sub in ast.walk(child):
                    if in_class:
                        hit = (
                            isinstance(sub, ast.Attribute)
                            and sub.attr == child.name
                            and isinstance(sub.value, ast.Name)
                        )
                    else:
                        hit = (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id == child.name
                        )
                    if hit:
                        found.add(qualname)
                scan(child, qualname, False)
            else:
                scan(child, scope, in_class)

    scan(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    return found


def test_no_function_calls_itself():
    found = set().union(*(_self_calls(path) for path in sorted(SRC.glob("*.py"))))
    assert found == ALLOWED_SELF_CALLS


# -- reference cycles -------------------------------------------------------------


def _solved(p=1):
    a, b = helpers.random_pair(random.Random(11), p=p, n=3)
    return a, b, aw_distance(a, b)[1]


def _coupling():
    a, b, table = _solved()
    return assemble_optimal_coupling(table, a, b)


def _quantiles(p=1):
    a, b, _ = _solved(p)
    return quantile_map(a), quantile_map(b)


def _family(p=1):
    a, b = helpers.random_pair(random.Random(11), p=p, n=3)
    return [a, b], b


def _transfer_inputs():
    a, b = helpers.bernoulli_x(), helpers.y_eps(F(1, 10))
    product = product_process(assemble_optimal_coupling(aw_distance(a, b)[1], a, b))
    return product, extend_with_randomization(a, 2)


# each case returns a converted library function and its arguments
CASES = {
    "digest": lambda: (information_process(_solved()[0]).form.digest, ()),
    "canonical_tree": lambda: (canonical_tree, (information_process(_solved()[0]).form,)),
    "subtree_process": lambda: (subtree_process, (helpers.random_walk_tree(4), "wr")),
    "is_self_aware": lambda: (is_self_aware, (helpers.random_walk_tree(4),)),
    "quantile_map": lambda: (quantile_map, (_solved()[0],)),
    "breakpoints": lambda: (quantile_map(helpers.random_walk_tree(4)).partition.breakpoints, (4,)),
    "pushforward_path_law": lambda: (pushforward_path_law, (quantile_map(_solved()[0]),)),
    "induced_tree": lambda: (induced_tree, (quantile_map(_solved()[0]),)),
    "lp_distance": lambda: (lp_distance, _quantiles()),
    "lp_distance_weak": lambda: (lp_distance, _quantiles(p=0)),
    "max_pointwise_gap": lambda: (max_pointwise_gap, _quantiles()),
    "max_pointwise_gap_weak": lambda: (max_pointwise_gap, _quantiles(p=0)),
    "convergence_report": lambda: (convergence_report, _family()),
    "convergence_report_weak": lambda: (convergence_report, _family(p=0)),
    "assemble_optimal_coupling": lambda: (
        assemble_optimal_coupling, (lambda a, b, table: (table, a, b))(*_solved())
    ),
    "check_bicausal": lambda: (check_bicausal, (_coupling(),)),
    "extend_with_randomization": lambda: (extend_with_randomization, (_solved()[0], 2)),
    "verify_extension": lambda: (verify_extension, (extend_with_randomization(_solved()[0], 2),)),
    "transfer": lambda: (transfer, _transfer_inputs()),
    "random_bicausal_cost": lambda: (random_bicausal_cost, (_solved()[2], 5, 4)),
    "optimal_stopping": lambda: (
        optimal_stopping, (helpers.random_walk_tree(3), PayoffSpec.current_value(3))
    ),
    "doob": lambda: (doob, (helpers.random_walk_tree(4),)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_leaves_no_reference_cycles(name):
    fn, args = CASES[name]()
    gc.collect()
    gc.disable()  # keep an automatic collection from hiding a cycle
    try:
        fn(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_intern_table_returns_to_baseline():
    rng = random.Random(2024)
    gc.collect()
    gc.disable()  # atoms must be freed by reference counting alone
    try:
        start = len(canonical._INTERN)
        for _ in range(200):
            aw_distance(*helpers.random_pair(rng, n=rng.choice((2, 3))))
        assert len(canonical._INTERN) == start
    finally:
        gc.enable()


# -- deep horizons ------------------------------------------------------------------


def _chain_document(values) -> dict:
    n = len(values)
    return {
        "config": {"N": n, "d": 1, "p": "1"},
        "root_children": [{"id": "n1", "prob": "1"}],
        "nodes": [
            {
                "id": f"n{t}",
                "time": t,
                "value": [str(v)],
                "children": [{"id": f"n{t + 1}", "prob": "1"}] if t < n else [],
            }
            for t, v in enumerate(values, start=1)
        ],
    }


def test_cli_runs_deep_chains(tmp_path):
    rng = random.Random(3)
    paths, values = {}, {}
    for n in (5000, 3000):
        for side in ("left", "right"):
            values[n, side] = [F(rng.randint(-4, 4), 2) for _ in range(n)]
            path = tmp_path / f"{side}{n}.json"
            path.write_text(json.dumps(_chain_document(values[n, side])), encoding="utf-8")
            paths[n, side] = str(path)
    a, b = paths[5000, "left"], paths[5000, "right"]
    # the last three run at 3,000 steps to keep the suite short
    a3, b3 = paths[3000, "left"], paths[3000, "right"]
    out = tmp_path / "out"
    calls = [
        ["validate", a],
        ["canonicalize", a],
        ["equivalent", a, b],
        ["distance", a, b, "--emit-table", "--emit-plan", "--oracle-samples", "2"],
        ["coupling", a, b],
        ["quantile", a],
        ["geodesic", a3, b3, "--lam", "1/2"],
        ["convergence", a3, b3],
        ["doob", a3],
    ]
    for argv in calls:
        assert main([*argv, "--out", str(out)]) == 0, argv[0]
    # between two deterministic paths every coupling is the product one
    expected = sum(abs(x - y) for x, y in zip(values[5000, "left"], values[5000, "right"]))
    doc = json.loads((out / "distance.json").read_text(encoding="utf-8"))
    assert doc["adapted"]["power"]["exact"] == str(expected)
    assert doc["oracle"]["agrees"] is True
    quantile = json.loads((out / "quantile.json").read_text(encoding="utf-8"))
    assert len(quantile["boxes"]) == 1 and len(quantile["boxes"][0]["path"]) == 5000


def _sibling_chains_document(left, right) -> dict:
    """Two chains under one root, told apart at time 1 by their info label."""
    n = len(left)
    nodes = []
    for side, values in (("a", left), ("b", right)):
        for t, v in enumerate(values, start=1):
            nodes.append({
                "id": f"{side}{t}",
                "time": t,
                "value": [str(v)],
                "info": side if t == 1 else "",
                "children": [{"id": f"{side}{t + 1}", "prob": "1"}] if t < n else [],
            })
    return {
        "config": {"N": n, "d": 1, "p": "1"},
        "root_children": [{"id": "a1", "prob": "1/2"}, {"id": "b1", "prob": "1/2"}],
        "nodes": nodes,
    }


def test_cli_orders_deep_siblings(tmp_path):
    # the siblings agree on 999 values, so ordering them must not compare
    # whole subtrees
    n = 1000
    rng = random.Random(5)
    left = [F(rng.randint(-4, 4), 2) for _ in range(n)]
    right = left[:-1] + [left[-1] + 1]
    doc = _sibling_chains_document(left, right)
    path = tmp_path / "siblings.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # the same process with its root children swapped and every id renamed
    doc["root_children"].reverse()
    text = json.dumps(doc).replace('"a', '"x').replace('"b', '"y')
    twin = tmp_path / "twin.json"
    twin.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    for argv in (
        ["validate", str(path)],
        ["canonicalize", str(path)],
        ["equivalent", str(path), str(twin)],
        ["distance", str(path), str(twin)],
    ):
        assert main([*argv, "--out", str(out)]) == 0, argv[0]
    assert json.loads((out / "equivalent.json").read_text(encoding="utf-8"))["equivalent"] is True
    assert json.loads((out / "distance.json").read_text(encoding="utf-8"))["adapted"]["power"]["exact"] == "0"


def test_library_walks_past_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    values = [F(t % 5) for t in range(n)]
    tree = helpers.chain_tree(values)
    assert is_self_aware(tree)
    result = optimal_stopping(tree, PayoffSpec.current_value(n))
    assert result.value == max(values)
    assert result.rule[f"n{values.index(max(values)) + 1}"] == "stop"
