"""Shared tree builders for the test suite.

Everything here builds exact-rational trees small enough that the whole
suite stays fast; random trees draw values from a quarter-integer lattice
and probabilities from small integer weights, so every expected quantity is
an exact fraction.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction as F

from adt import (
    FilteredTree,
    MetricConfig,
    NotMarkovError,
    TreeNode,
    aw_distance,
    information_process,
    non_coexistence_fixture,
    ot_solve,
    path_distance,
)


def cfg(n=2, d=1, p=1, decimals=12) -> MetricConfig:
    return MetricConfig(num_steps=n, dim=d, order=F(p), value_decimals=decimals)


def chain_tree(values, p=1, d=1) -> FilteredTree:
    """Deterministic path through the given per-time values."""
    steps = []
    for v in values:
        step = tuple(F(x) for x in v) if isinstance(v, (tuple, list)) else (F(v),)
        steps.append(step)
    nodes = {}
    for t, step in enumerate(steps, start=1):
        kids = ((f"n{t + 1}", F(1)),) if t < len(steps) else ()
        nodes[f"n{t}"] = TreeNode(f"n{t}", t, step, "", kids)
    return FilteredTree(cfg(n=len(steps), d=d, p=p), nodes, ((f"n1", F(1)),))


def bernoulli_x(p=1) -> FilteredTree:
    """Two steps: start at 0, then +/-1 with probability 1/2 each."""
    nodes = {
        "a": TreeNode("a", 1, (F(0),), "", (("a+", F(1, 2)), ("a-", F(1, 2)))),
        "a+": TreeNode("a+", 2, (F(1),), "", ()),
        "a-": TreeNode("a-", 2, (F(-1),), "", ()),
    }
    return FilteredTree(cfg(p=p), nodes, (("a", F(1)),))


def y_eps(eps, p=1) -> FilteredTree:
    """Two steps: +/-eps with probability 1/2, then the matching sign unit."""
    e = F(eps)
    nodes = {
        "b+": TreeNode("b+", 1, (e,), "", (("b++", F(1)),)),
        "b-": TreeNode("b-", 1, (-e,), "", (("b--", F(1)),)),
        "b++": TreeNode("b++", 2, (F(1),), "", ()),
        "b--": TreeNode("b--", 2, (F(-1),), "", ()),
    }
    return FilteredTree(cfg(p=p), nodes, (("b+", F(1, 2)), ("b-", F(1, 2))))


def sign_lift(p=1) -> FilteredTree:
    """Bernoulli start, but the filtration reveals the future sign at time 1."""
    nodes = {
        "l+": TreeNode("l+", 1, (F(0),), "up", (("l++", F(1)),)),
        "l-": TreeNode("l-", 1, (F(0),), "down", (("l--", F(1)),)),
        "l++": TreeNode("l++", 2, (F(1),), "", ()),
        "l--": TreeNode("l--", 2, (F(-1),), "", ()),
    }
    return FilteredTree(cfg(p=p), nodes, (("l+", F(1, 2)), ("l-", F(1, 2))))


def redundant_lift(p=1) -> FilteredTree:
    """Bernoulli start split into two informationally identical copies: the
    extra label carries nothing, so this collapses to bernoulli_x."""
    nodes = {
        "r0": TreeNode("r0", 1, (F(0),), "copy0", (("r0+", F(1, 2)), ("r0-", F(1, 2)))),
        "r1": TreeNode("r1", 1, (F(0),), "copy1", (("r1+", F(1, 2)), ("r1-", F(1, 2)))),
        "r0+": TreeNode("r0+", 2, (F(1),), "", ()),
        "r0-": TreeNode("r0-", 2, (F(-1),), "", ()),
        "r1+": TreeNode("r1+", 2, (F(1),), "", ()),
        "r1-": TreeNode("r1-", 2, (F(-1),), "", ()),
    }
    return FilteredTree(cfg(p=p), nodes, (("r0", F(1, 2)), ("r1", F(1, 2))))


def perturbed_x(n: int, p=1) -> FilteredTree:
    """bernoulli_x with the second-step values pushed out to +/-(1 + 1/n)."""
    v = F(1) + F(1, n)
    nodes = {
        "a": TreeNode("a", 1, (F(0),), "", (("a+", F(1, 2)), ("a-", F(1, 2)))),
        "a+": TreeNode("a+", 2, (v,), "", ()),
        "a-": TreeNode("a-", 2, (-v,), "", ()),
    }
    return FilteredTree(cfg(p=p), nodes, (("a", F(1)),))


def random_walk_tree(n=3, p=1, step=F(1)) -> FilteredTree:
    """Symmetric +-step random walk from 0 with the natural filtration."""
    nodes = {}

    def build(time, value, path) -> str:
        nid = "w" + path
        if time == n:
            nodes[nid] = TreeNode(nid, time, (value,), "", ())
            return nid
        kids = (
            (build(time + 1, value + step, path + "u"), F(1, 2)),
            (build(time + 1, value - step, path + "d"), F(1, 2)),
        )
        nodes[nid] = TreeNode(nid, time, (value,), "", kids)
        return nid

    root = build(1, F(0), "r")
    return FilteredTree(cfg(n=n, p=p), nodes, ((root, F(1)),))


def random_tree(
    rng: random.Random,
    n: int | None = None,
    d: int = 1,
    p=1,
    max_children: int = 3,
    with_info: bool = True,
) -> FilteredTree:
    """Small random tree with lattice values and exact rational probabilities.

    Occasionally duplicates sibling values with distinct info labels so the
    filtration genuinely differs from the natural one.
    """
    if n is None:
        n = rng.choice((2, 2, 3))
    counter = [0]
    nodes = {}

    def random_value():
        return tuple(F(rng.randint(-4, 4), 2) for _ in range(d))

    def build(time: int) -> str:
        counter[0] += 1
        nid = f"t{counter[0]}"
        if time == n:
            nodes[nid] = TreeNode(nid, time, random_value(), "", ())
            return nid
        width = rng.randint(1, max_children)
        weights = [rng.randint(1, 4) for _ in range(width)]
        total = sum(weights)
        kids = []
        seen = set()
        for k, w in enumerate(weights):
            cid = build(time + 1)
            node = nodes[cid]
            info = ""
            if with_info and rng.random() < 0.25:
                info = f"i{k}"
            while (node.value, info) in seen:
                info = f"i{k}.{len(seen)}"
            seen.add((node.value, info))
            if info != node.info:
                nodes[cid] = TreeNode(cid, node.time, node.value, info, node.children)
            kids.append((cid, F(w, total)))
        nodes[nid] = TreeNode(nid, time, random_value(), "", tuple(kids))
        return nid

    width = rng.randint(1, max_children)
    weights = [rng.randint(1, 4) for _ in range(width)]
    total = sum(weights)
    roots = []
    seen = set()
    for k, w in enumerate(weights):
        cid = build(1)
        node = nodes[cid]
        info = ""
        while (node.value, info) in seen:
            info = f"r{k}.{len(seen)}"
        seen.add((node.value, info))
        if info != node.info:
            nodes[cid] = TreeNode(cid, node.time, node.value, info, node.children)
        roots.append((cid, F(w, total)))
    return FilteredTree(cfg(n=n, d=d, p=p), nodes, tuple(roots))


def with_copied_subtrees(rng: random.Random, tree: FilteredTree) -> FilteredTree:
    """``tree`` with some child subtrees repeated under fresh info labels.

    Each copy takes half of the original's probability.  Half of the copies
    shift their last leaf value by 1/2, so the two siblings agree on
    everything but that value; the others are exact repeats.
    """
    nodes = {node.node_id: node for node in tree.nodes()}
    counter = [0]

    def copy(node_id: str, label: str, shift: bool) -> str:
        # the last child is copied first so that, when shifting, the last
        # leaf in pre-order is the first one reached
        node = nodes[node_id]
        counter[0] += 1
        new_id = f"{node_id}.c{counter[0]}"
        kids = []
        for cid, p in reversed(node.children):
            kids.append((copy(cid, "", shift and not kids), p))
        value, info = node.value, label or node.info
        if shift and not node.children:
            # a fresh label keeps the shifted leaf apart from its siblings
            value, info = tuple(v + F(1, 2) for v in value), f"shift{counter[0]}"
        nodes[new_id] = TreeNode(new_id, node.time, value, info, tuple(reversed(kids)))
        return new_id

    def split(children):
        out = []
        for cid, p in children:
            if rng.random() < 0.4:
                counter[0] += 1
                label = f"copy{counter[0]}"
                out += [(cid, p / 2), (copy(cid, label, rng.random() < 0.5), p / 2)]
            else:
                out.append((cid, p))
        return tuple(out)

    for node in list(tree.nodes()):
        if node.children:
            nodes[node.node_id] = TreeNode(
                node.node_id, node.time, node.value, node.info, split(node.children)
            )
    return FilteredTree(tree.config, nodes, split(tree.root_children))


def nested_order(a, b) -> int:
    """Reference order on two same-level nested atoms, as -1, 0 or 1.

    The value decides first; then the successor laws, compared pair by pair
    as (successor under this same order, weight), a shorter law first when
    one is a prefix of the other.  Plain recursion, for small trees only.
    """
    if a.value != b.value:
        return -1 if a.value < b.value else 1
    for (x, v), (y, w) in zip(a.law, b.law):
        order = nested_order(x, y)
        if order:
            return order
        if v != w:
            return -1 if v < w else 1
    return (len(a.law) > len(b.law)) - (len(a.law) < len(b.law))


def random_pair(rng: random.Random, p=1, d: int = 1, n: int | None = None):
    """Two independent random trees sharing one metric configuration."""
    if n is None:
        n = rng.choice((2, 2, 3))
    return (
        random_tree(rng, n=n, d=d, p=p),
        random_tree(rng, n=n, d=d, p=p),
    )


def reference_aw(a: FilteredTree, b: FilteredTree):
    """Reference adapted distance: the backward recursion on ``Fraction``s
    (floats at non-integer orders), with stage costs from ``step_cost`` and
    one ``ot_solve`` per atom pair, the root and terminal stages included.

    Returns ``(value, levels, root_plan, truncated)``; ``levels[t-1]`` maps
    each pair of time-t atoms to ``(cost, plan)``, plans as (atom, atom,
    weight) triples as ``StageEntry`` keeps them.
    """
    cfg = a.config
    form_a, form_b = information_process(a).form, information_process(b).form
    levels_a, levels_b = form_a.levels(), form_b.levels()
    n = cfg.num_steps
    levels: list = [{} for _ in range(n)]

    def solve(law_a, law_b, below):
        xs, ys = [x for x, _ in law_a], [y for y, _ in law_b]
        value, plan = ot_solve(
            [w for _, w in law_a],
            [w for _, w in law_b],
            [[below[x, y][0] for y in ys] for x in xs],
        )
        return value, tuple((xs[i], ys[j], w) for i, j, w in plan.support)

    for t in range(n, 0, -1):
        for alpha in levels_a[t - 1]:
            for beta in levels_b[t - 1]:
                stage = cfg.step_cost(alpha.value, beta.value)
                if t == n:
                    levels[t - 1][alpha, beta] = (stage, None)
                else:
                    value, plan = solve(alpha.law, beta.law, levels[t])
                    levels[t - 1][alpha, beta] = (stage + value, plan)
    value, plan = solve(form_a.law, form_b.law, levels[0])
    truncated = cfg.is_weak and value > 1
    return (F(1) if truncated else value), levels, plan, truncated


def reference_lp(f, g):
    """Reference L^p integral between two quantile maps: plain recursion on
    ``Fraction``s (floats at non-integer orders) over pairs of cells that
    overlap, with stage costs from ``step_cost``.

    Cells overlap where their own [lo, hi) intervals meet, taken row by row,
    which is the north-west order.  A pair's cost is its stage cost plus the
    overlap-weighted costs of its child pairs, added in that order; weak
    mode carries the cost so far down to the leaves and clips each path at
    1 there.
    """
    cfg = f.config

    def overlaps(cells_a, cells_b):
        for ca in cells_a:
            for cb in cells_b:
                lam = min(ca.hi, cb.hi) - max(ca.lo, cb.lo)
                if lam > 0:
                    yield ca, cb, lam

    def cost(ca, cb, acc):
        total = acc + cfg.step_cost(ca.atom.value, cb.atom.value)
        if not ca.children:
            return min(total, F(1)) if cfg.is_weak else total
        if cfg.is_weak:
            return sum(lam * cost(x, y, total) for x, y, lam in overlaps(ca.children, cb.children))
        for x, y, lam in overlaps(ca.children, cb.children):
            total = total + lam * cost(x, y, 0)
        return total

    total = F(0) if cfg.exact_costs else 0.0
    for ca, cb, lam in overlaps(f.cells, g.cells):
        total = total + lam * cost(ca, cb, 0)
    return total


def reference_gap(f, g):
    """Brute-force grid gap between two quantile maps: every pair of boxes
    from ``partition.boxes()`` whose intervals meet at every stage, at the
    tuple of the overlaps' midpoints.  The largest path distance wins; ties
    go to the lexicographically smallest midpoint.  Returns (gap, point)."""
    best = None
    for box_a in f.partition.boxes():
        for box_b in g.partition.boxes():
            point = []
            for ca, cb in zip(box_a, box_b):
                lo, hi = max(ca.lo, cb.lo), min(ca.hi, cb.hi)
                if lo >= hi:
                    break
                point.append((lo + hi) / 2)
            else:
                xs = tuple(cell.atom.value for cell in box_a)
                ys = tuple(cell.atom.value for cell in box_b)
                gap, point = path_distance(xs, ys, f.config), tuple(point)
                if best is None or gap > best[0] or (gap == best[0] and point < best[1]):
                    best = gap, point
    return best


def one_step_kernels(tree: FilteredTree, t: int) -> dict:
    """Each distinct time-t value's one-step kernel, read from the children
    of the nodes that carry it, as sorted (value, weight) pairs, keyed in
    order of first appearance.  Raises NotMarkovError when two nodes with
    one value have different kernels."""
    kernels: dict = {}
    for node_id in tree.level(t):
        node = tree.node(node_id)
        kernel: dict = {}
        for cid, q in node.children:
            value = tree.node(cid).value
            kernel[value] = kernel.get(value, 0) + q
        kernel = sorted(kernel.items())
        if kernels.setdefault(node.value, kernel) != kernel:
            raise NotMarkovError(f"two time-{t} nodes with value {node.value} differ")
    return kernels


def kernel_ratio(tree: FilteredTree, t: int, x, y):
    """W1 between the kernels at time-t values x and y over the distance
    between x and y, both under ``step_distance``: a Fraction when both are
    exact, a float otherwise, and inf when the distance is 0 and W1 is not."""
    cfg = tree.config
    kernels = one_step_kernels(tree, t)
    law_x, law_y = kernels[x], kernels[y]
    w1, _ = ot_solve(
        [w for _, w in law_x],
        [w for _, w in law_y],
        [[cfg.step_distance(a, b) for b, _ in law_y] for a, _ in law_x],
    )
    gap = cfg.step_distance(x, y)
    if gap == 0:
        return float("inf") if w1 else F(0)
    if isinstance(w1, F) and isinstance(gap, F):
        return w1 / gap
    return float(w1) / float(gap)


def kernel_ratios(tree: FilteredTree) -> list:
    """``kernel_ratio`` of every pair of distinct values at every time below
    the horizon."""
    return [
        kernel_ratio(tree, t, x, y)
        for t in range(1, tree.config.num_steps)
        for x, y in itertools.combinations(one_step_kernels(tree, t), 2)
    ]


def contraction_ratio(tree: FilteredTree):
    """Worst kernel-to-state distance ratio of the nested-structure chain of
    ``tree`` against itself.

    States are the atoms under the nested metric (the rooted table cost) and
    kernels are their successor laws.  The bound 1 holds by construction: at
    p = 1 and in weak mode the kernel LP is the table's own stage problem,
    and at p > 1 it follows from Jensen's inequality on the W_p-optimal plan.
    """
    cfg = tree.config

    def rooted(cost):
        if cfg.is_weak or cfg.order == 1:
            return cost
        return float(cost) ** (1.0 / float(cfg.order))

    _, table = aw_distance(tree, tree)
    levels_a, levels_b = table.left.levels(), table.right.levels()
    worst = F(0)
    for t in range(1, cfg.num_steps):
        for alpha, beta in itertools.product(levels_a[t - 1], levels_b[t - 1]):
            if alpha is beta:
                continue
            xs, ys = [x for x, _ in alpha.law], [y for y, _ in beta.law]
            w1, _ = ot_solve(
                [w for _, w in alpha.law],
                [w for _, w in beta.law],
                [[rooted(table.entry(t + 1, x, y).cost) for y in ys] for x in xs],
            )
            gap = rooted(table.entry(t, alpha, beta).cost)
            if gap == 0:
                if w1 != 0:
                    return float("inf")
                continue
            ratio = w1 / gap if isinstance(w1, F) and isinstance(gap, F) else float(w1) / float(gap)
            worst = max(worst, ratio)
    return worst


def reordered(tree: FilteredTree) -> FilteredTree:
    """``tree`` with every node's children, and the roots, in reverse order;
    its canonical form is the same."""
    nodes = {
        node.node_id: TreeNode(node.node_id, node.time, node.value, node.info, node.children[::-1])
        for node in tree.nodes()
    }
    return FilteredTree(tree.config, nodes, tree.root_children[::-1])


REGRESSION_EPS = (F(1, 10), F(1, 100))

# what ``NestedDistanceTable.check_matches`` says about trees it was not solved on
STALE = "bound to the two tree objects passed to aw_distance"


def regression_pairs(p=1, rng_seed: int = 424242, extra_random: int = 12):
    """The named worked pairs plus a few random ones, all at order p."""
    pairs = [
        (bernoulli_x(p), y_eps(F(1, 10), p)),
        (bernoulli_x(p), y_eps(F(1, 100), p)),
        (bernoulli_x(p), sign_lift(p)),
        (bernoulli_x(p), redundant_lift(p)),
        (sign_lift(p), y_eps(F(1, 10), p)),
        (random_walk_tree(3, p), random_walk_tree(3, p, step=F(1, 2))),
    ]
    rng = random.Random(rng_seed)
    for _ in range(extra_random):
        pairs.append(random_pair(rng, p=p))
    return pairs


def regression_trees(p=1, rng_seed: int = 535353, extra_random: int = 10):
    trees = [
        bernoulli_x(p),
        y_eps(F(1, 10), p),
        sign_lift(p),
        redundant_lift(p),
        chain_tree([0, 1], p=p),
        random_walk_tree(3, p),
    ]
    rng = random.Random(rng_seed)
    for _ in range(extra_random):
        trees.append(random_tree(rng, p=p))
    return trees


@functools.cache
def aligned_fixture(n: int):
    """``(k, non_coexistence_fixture(n, k))`` on a grid that keeps the segment
    ends of index n on grid points: k = lcm(1..n), doubled up to the four
    cells the fixture needs.  Built once per test run."""
    k = math.lcm(*range(1, n + 1))
    while k < 4:
        k *= 2
    return k, non_coexistence_fixture(n, k)
