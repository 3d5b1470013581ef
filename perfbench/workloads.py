"""The four benchmark workloads: seeded inputs, CLI calls and output checks.

An operation is a list of ``adt`` command lines run in order through
``adt.cli.main``.  Each workload builds the documents for one operation,
then checks what the operation printed and wrote.  The checks use the
generator's own trees and exact arithmetic, not the program's claims, except
where a claim is itself the output under test (``--check`` says bicausal,
``equivalent`` says true or false).  Plans are checked by their invariants
(marginals, expected cost), never by their bytes.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen


@dataclass
class Op:
    """One operation: the command lines to run and what the checks need."""

    calls: list  # [argv, ...]
    out: Path  # the --out directory of every call
    expect: dict = field(default_factory=dict)


@dataclass
class Result:
    """What the checks found for one operation."""

    problems: list  # human-readable reasons the operation failed
    record: dict  # exact values kept for the reference comparison
    deferred: tuple | None = None  # input of a check run after timing


_EXACT = re.compile(r"expected path cost = \S+ \(= (\S+), exact\)")


def _write(path: Path, tree: gen.Tree) -> str:
    path.write_bytes(tree.to_bytes())
    return str(path)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _fails(outcome: list, calls: int) -> list:
    """Problems with the exit codes: ``outcome`` holds (argv, exit code or
    exception text, stdout) per call that ran."""
    problems = [f"{argv[0]} exited {rc}" for argv, rc, _ in outcome if rc != 0]
    if len(outcome) < calls:
        problems.append(f"only {len(outcome)} of {calls} calls ran")
    return problems


class Workload:
    name = ""
    why = ""
    variants: tuple = ()
    # Rough length of one pass over ``variants`` on a 2-core Xeon; sizes the
    # fixed op count of a traced run so it is deterministic per seed.
    cycle_s = 1.0

    def make(self, rng: random.Random, variant, inputs: Path, out: Path) -> Op:
        raise NotImplementedError

    def check(self, op: Op, outcome: list) -> Result:
        raise NotImplementedError

    def finish(self, deferred: list) -> list:
        """Checks run after the timed loop; returns one problem list per item."""
        return [[] for _ in deferred]

    def inputs(self, op: Op) -> tuple:
        """(trees the op loads, pairs it runs the adapted distance on,
        pairs it runs plain transport on), for the size counts."""
        pair = (op.expect["left"], op.expect["right"])
        return list(pair), [pair], []


class NestedCoupling(Workload):
    name = "nested_coupling"
    why = ("nested recursion, coupling assembly and causality check with no plain "
           "transport; 0% of stage LPs repeat")
    # (N, width) of the bushy pairs; (4, 5) is the ROADMAP baseline pair and
    # appears twice so the median falls inside one size class.
    variants = ((4, 5), (5, 3), (3, 10), (4, 4), (4, 5))
    cycle_s = 2.0

    def make(self, rng, variant, inputs, out):
        steps, width = variant
        left = gen.bushy(rng, steps, width)
        right = gen.bushy(rng, steps, width)
        calls = [
            ["coupling", _write(inputs / "left.json", left), _write(inputs / "right.json", right),
             "--out", str(out)],
            ["coupling", "--check", str(out / "coupling.json"), "--out", str(out)],
        ]
        return Op(calls, out, {"left": left, "right": right})

    def check(self, op, outcome):
        problems = _fails(outcome, 2)
        if problems:
            return Result(problems, {})
        text = outcome[0][2]
        match = _EXACT.search(text)
        if not match or "matches adapted cost: True" not in text:
            return Result(["coupling did not report an exact cost equal to the adapted cost"], {})
        cost = Fraction(match.group(1))
        doc = _read_json(op.out / "coupling.json")
        left = op.expect["left"].leaf_paths()
        right = op.expect["right"].leaf_paths()
        mass_l: dict = {}
        mass_r: dict = {}
        total = Fraction(0)
        for entry in doc["support"]:
            l, r, w = entry["left"], entry["right"], Fraction(entry["weight"])
            if l not in left or r not in right or w <= 0:
                return Result([f"support entry {entry} is not a positive leaf pair"], {})
            mass_l[l] = mass_l.get(l, Fraction(0)) + w
            mass_r[r] = mass_r.get(r, Fraction(0)) + w
            total += w * sum(abs(x - y) for x, y in zip(left[l][0], right[r][0]))
        if any(mass_l.get(k, 0) != p for k, (_, p) in left.items()):
            problems.append("left marginal of the plan is wrong")
        if any(mass_r.get(k, 0) != p for k, (_, p) in right.items()):
            problems.append("right marginal of the plan is wrong")
        if total != cost:
            problems.append(f"plan's expected cost {total} != reported {cost}")
        if not _read_json(op.out / "coupling-check.json")["bicausal"]:
            problems.append("--check did not report the plan bicausal")
        return Result(problems, {"adapted": str(cost)})


class PlainDistance(Workload):
    name = "plain_distance"
    why = ("one flat path-space LP and its cost matrix take about 75% of the time; "
           "the nested recursion about 11%")
    # ("binomial", N) recombining pairs and ("bushy", N, width) pairs, both
    # with 16 paths; two bushy pairs per binomial pair keep the median inside
    # one size class.  At 32 paths, pairs with symmetric binomial steps took
    # up to 20x the median (degenerate pivots), so the mean moved +-10%
    # between seeds; the scaling ladder times the larger sizes instead.
    variants = (("bushy", 3, 4), ("binomial", 5), ("bushy", 3, 4))
    cycle_s = 0.25

    def make(self, rng, variant, inputs, out):
        if variant[0] == "binomial":
            left, right = gen.binomial(rng, variant[1]), gen.binomial(rng, variant[1])
        else:
            left, right = gen.bushy(rng, *variant[1:]), gen.bushy(rng, *variant[1:])
        calls = [["distance", _write(inputs / "left.json", left),
                  _write(inputs / "right.json", right), "--out", str(out)]]
        return Op(calls, out, {"left": left, "right": right})

    def inputs(self, op):
        trees, adapted, _ = super().inputs(op)
        return trees, adapted, adapted

    def check(self, op, outcome):
        problems = _fails(outcome, 1)
        if problems:
            return Result(problems, {})
        doc = _read_json(op.out / "distance.json")
        adapted = Fraction(doc["adapted"]["power"]["exact"])
        plain = Fraction(doc["plain"]["power"]["exact"])
        if plain > adapted:
            problems.append(f"plain {plain} exceeds adapted {adapted}")
        deferred = (op.expect["left"].path_law(), op.expect["right"].path_law(), plain)
        return Result(problems, {"adapted": str(adapted), "plain": str(plain)}, deferred)

    def finish(self, deferred):
        out = []
        for law_a, law_b, plain in deferred:
            exact = network_simplex_cost(law_a, law_b)
            out.append([] if exact == plain else [f"plain {plain} != network simplex {exact}"])
        return out


def network_simplex_cost(law_a: dict, law_b: dict) -> Fraction:
    """Exact plain transport cost (p = 1) by ``networkx.network_simplex`` on
    integer-scaled masses and costs: an implementation independent of adt."""
    import networkx as nx

    paths_a, paths_b = list(law_a), list(law_b)
    costs = [[sum(abs(x - y) for x, y in zip(pa, pb)) for pb in paths_b] for pa in paths_a]
    mass_scale = math.lcm(*(p.denominator for p in (*law_a.values(), *law_b.values())))
    cost_scale = math.lcm(*(c.denominator for row in costs for c in row))
    graph = nx.DiGraph()
    for i, path in enumerate(paths_a):
        graph.add_node(("a", i), demand=-int(law_a[path] * mass_scale))
    for j, path in enumerate(paths_b):
        graph.add_node(("b", j), demand=int(law_b[path] * mass_scale))
    for i, row in enumerate(costs):
        for j, c in enumerate(row):
            graph.add_edge(("a", i), ("b", j), weight=int(c * cost_scale))
    flow_cost, _ = nx.network_simplex(graph)
    return Fraction(flow_cost, mass_scale * cost_scale)


class CanonicalDocs(Workload):
    name = "canonical_docs"
    why = ("parse, validate, canonicalize and compare 1.1k-1.6k-node documents; "
           "runs zero LPs, so it bypasses every solver change")
    # 1.1k-1.6k nodes.  A 3.3k-node (8, 3) document took 0.9 s, so a run held
    # too few operations for a tail percentile above the median.
    variants = ((6, 4), (5, 6), (7, 3))
    cycle_s = 1.0

    def make(self, rng, variant, inputs, out):
        tree = gen.bushy(rng, *variant, dup_rate=0.25)
        same = rng.random() < 0.5
        other = gen.relabelled(rng, tree) if same else gen.perturbed(rng, tree)
        doc = _write(inputs / "doc.json", tree)
        calls = [
            ["validate", doc, "--out", str(out)],
            ["canonicalize", doc, "--out", str(out)],
            ["equivalent", doc, _write(inputs / "other.json", other), "--out", str(out)],
        ]
        return Op(calls, out, {"tree": tree, "other": other, "equivalent": same})

    def inputs(self, op):
        return [op.expect["tree"], op.expect["other"]], [], []

    def check(self, op, outcome):
        problems = _fails(outcome, 3)
        if problems:
            return Result(problems, {})
        tree = op.expect["tree"]
        (validated,) = _read_json(op.out / "validate.json")["trees"]
        canonical = _read_json(op.out / "canonical.json")
        equivalent = _read_json(op.out / "equivalent.json")["equivalent"]
        if validated["nodes"] != tree.size() or validated["leaves"] != len(tree.leaves()):
            problems.append("validate miscounted nodes or leaves")
        if validated["digest"] != canonical["digest"]:
            problems.append("validate and canonicalize disagree on the digest")
        nodes = len(canonical["tree"]["nodes"])
        if nodes > tree.size():
            problems.append("canonical tree is larger than its source")
        if _reloaded_digest(canonical["tree"]) != canonical["digest"]:
            problems.append("canonical tree does not reload to its digest")
        if equivalent != op.expect["equivalent"]:
            problems.append(f"equivalent answered {equivalent}, constructed {op.expect['equivalent']}")
        return Result(problems, {"digest": canonical["digest"], "canonical_nodes": nodes,
                                 "equivalent": equivalent})


def _reloaded_digest(document) -> str:
    from adt.canonical import digest_tree
    from adt.process_model import load_tree

    return digest_tree(load_tree(document))


class SharedFamily(Workload):
    name = "shared_family"
    why = ("six members of one family share about half their stage LPs, so "
           "cross-call reuse shows; the only workload that runs skorokhod")
    variants = ((3, 6),)
    members = 6
    cycle_s = 0.3

    def make(self, rng, variant, inputs, out):
        limit = gen.bushy(rng, *variant)
        paths = [_write(inputs / "limit.json", limit)]
        members = []
        bounds = []
        # delta_k = 1/(8k^2): the last gap is below 1/8 of the first even
        # when the first member's cost falls short of its identity bound,
        # as the report's "tends to zero" rule requires.
        for k in range(1, self.members + 1):
            delta = Fraction(1, 8 * k * k)
            member, moved = gen.shifted(limit, delta)
            members.append(member)
            paths.append(_write(inputs / f"member{k}.json", member))
            bounds.append(moved * delta)
        expect = {"limit": limit, "members": members, "bounds": bounds}
        return Op([["convergence", *paths, "--out", str(out)]], out, expect)

    def inputs(self, op):
        limit, members = op.expect["limit"], op.expect["members"]
        return [limit, *members], [(member, limit) for member in members], []

    def check(self, op, outcome):
        problems = _fails(outcome, 1)
        if problems:
            return Result(problems, {})
        doc = _read_json(op.out / "convergence.json")
        if not doc["aw_converges"]:
            problems.append("report says the adapted distances do not tend to zero")
        values = [Fraction(row["aw"]["exact"]) for row in doc["rows"]]
        if len(values) != self.members:
            return Result(problems + [f"{len(values)} rows, expected {self.members}"], {})
        for k, (value, bound) in enumerate(zip(values, op.expect["bounds"]), start=1):
            if not 0 < value <= bound:
                problems.append(f"member {k}: adapted {value} outside (0, {bound}]")
        return Result(problems, {"adapted": [str(v) for v in values]})


def make_op(workload: Workload, seed: int, stream: str, index: int, inputs: Path, out: Path) -> Op:
    """Operation ``index`` of a stream: the same seed gives the same bytes."""
    rng = random.Random(f"{seed}/{workload.name}/{stream}/{index}")
    variants = workload.variants
    return workload.make(rng, variants[index % len(variants)], inputs, out)


WORKLOADS = {w.name: w for w in (NestedCoupling(), PlainDistance(), CanonicalDocs(), SharedFamily())}
