"""End-to-end acceptance checks for the adapted-transport toolkit.

Each test exercises one advertised guarantee at desk scale (trees with at
most three steps, at most four children per node, at most 64 leaves) and
records a single scorecard line — ``PASS: criterion N — ...`` or
``FAIL: criterion N — ...`` — which conftest replays after the run so the
log carries the verdicts even when pytest captures test output.

Comparisons are exact rational equalities wherever the quantities are
rational; only rooted two-step costs (p = 2), which are genuinely
irrational, use a 1e-9 float tolerance.
"""

import functools
import math
import random
from fractions import Fraction as F

import helpers
from adt import (
    FilteredTree,
    PayoffSpec,
    TreeNode,
    GridResolutionError,
    assemble_optimal_coupling,
    augmented_self_aware_lift,
    aw_distance,
    canonical_tree,
    check_bicausal,
    convergence_report,
    digest_tree,
    extend_with_randomization,
    geodesic,
    hk_equivalent,
    induced_tree,
    information_process,
    is_self_aware,
    law_on_paths,
    non_coexistence_fixture,
    optimal_stopping,
    pair_path_cost,
    product_process,
    pushforward_path_law,
    quantile_map,
    random_bicausal_cost,
    stopping_stability_report,
    transfer,
    verify_extension,
    verify_lipschitz,
    verify_randomization_independence,
    wasserstein_paths,
)

TOL = 1e-9

# one line per criterion, replayed by conftest's terminal-summary hook
SCORECARD: list[str] = []


def criterion(number, summary):
    """Record one PASS/FAIL scorecard line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"FAIL: criterion {number:2d} — {summary}"
                SCORECARD.append(line)
                print(line, flush=True)
                raise
            line = f"PASS: criterion {number:2d} — {summary}"
            SCORECARD.append(line)
            print(line, flush=True)

        return run

    return wrap


def rooted(value, p):
    """p-th root of a p-th-power cost, as a float."""
    return float(value) ** (1.0 / p)


def canon_digest(tree):
    """Structural digest of a tree's fully canonicalized form."""
    return digest_tree(canonical_tree(information_process(tree).form))


def uniform_tree(rng, p=1):
    """Two-step random tree whose siblings are always equally likely.

    Equal child weights keep every conditional probability a unit fraction
    with denominator at most three, so optimal couplings between two such
    trees can be realized on modest randomization grids.  Used by the
    transfer check, where arbitrary rational weights would demand grids far
    beyond desk scale.
    """
    counter = [0]
    nodes = {}

    def build(time):
        counter[0] += 1
        nid = f"u{counter[0]}"
        value = (F(rng.randint(-4, 4), 2),)
        if time == 2:
            nodes[nid] = TreeNode(nid, time, value, "", ())
            return nid
        width = rng.choice((2, 2, 3))
        kids, seen = [], set()
        for k in range(width):
            cid = build(time + 1)
            child = nodes[cid]
            info = ""
            while (child.value, info) in seen:
                info = f"i{k}.{len(seen)}"
            seen.add((child.value, info))
            if info != child.info:
                nodes[cid] = TreeNode(cid, child.time, child.value, info, child.children)
            kids.append((cid, F(1, width)))
        nodes[nid] = TreeNode(nid, time, value, "", tuple(kids))
        return nid

    width = rng.choice((2, 3))
    roots, seen = [], set()
    for k in range(width):
        cid = build(1)
        child = nodes[cid]
        info = ""
        while (child.value, info) in seen:
            info = f"r{k}.{len(seen)}"
        seen.add((child.value, info))
        if info != child.info:
            nodes[cid] = TreeNode(cid, child.time, child.value, info, child.children)
        roots.append((cid, F(1, width)))
    return FilteredTree(helpers.cfg(n=2, p=p), nodes, tuple(roots))


def optimal_product(a, b):
    """Adapted distance plus the optimal coupling realized as one process."""
    value, table = aw_distance(a, b)
    return value, product_process(assemble_optimal_coupling(table, a, b))


@criterion(1, "solver value matches the bicausal sampling oracle on 200 random pairs")
def test_criterion_01_oracle_agreement():
    # The sampler builds couplings compositionally (stage plans chosen at
    # random, the exact optimizer's choice included), so its minimum over
    # many draws is an independent upper-bound oracle that must close the
    # gap, and no draw may ever undercut the solver.
    rng = random.Random(10101)
    for p in (1, 2):
        for i in range(100):
            a, b = helpers.random_pair(rng, p=p)
            value = aw_distance(a, b)[0]
            costs = random_bicausal_cost(a, b, seed=i, samples=500)
            assert len(costs) == 500
            assert all(c >= value for c in costs)
            best = min(costs)
            if p == 1:
                assert best == value
            else:
                assert abs(rooted(best, 2) - rooted(value, 2)) <= TOL


@criterion(2, "worked two-step example: plain cost eps, adapted cost 1 + eps")
def test_criterion_02_worked_example():
    # X reveals nothing at time one; Y_eps leaks the sign of its endpoint
    # through a tiny first step.  Plain transport can almost match paths,
    # but any coupling respecting both information flows must pay the full
    # endpoint spread on half its mass: 2 * (1/2) + eps = 1 + eps.
    x = helpers.bernoulli_x()
    for eps in (F(1, 10), F(1, 100)):
        y = helpers.y_eps(eps)
        assert wasserstein_paths(x, y) == eps
        value = aw_distance(x, y)[0]
        assert value == 1 + eps
        # independent route: sampled bicausal couplings reach the same value
        assert min(random_bicausal_cost(x, y, seed=2, samples=200)) == value


@criterion(3, "zero adapted distance exactly characterizes equivalent processes")
def test_criterion_03_equivalence():
    x = helpers.bernoulli_x()
    redundant = helpers.redundant_lift()  # duplicated branches, same content
    lift = helpers.sign_lift()  # genuinely finer filtration
    assert hk_equivalent(x, redundant)
    assert aw_distance(x, redundant)[0] == 0
    assert not hk_equivalent(x, lift)
    assert aw_distance(x, lift)[0] == 1
    for p in (1, 2):
        for a, b in helpers.regression_pairs(p):
            assert hk_equivalent(a, b) == (aw_distance(a, b)[0] == 0)


@criterion(4, "triangle inequality and exact symmetry on 200 random triples")
def test_criterion_04_metric_axioms():
    rng = random.Random(40404)
    for p in (1, 2):
        for _ in range(100):
            n = rng.choice((2, 2, 3))
            a, b, c = (helpers.random_tree(rng, n=n, p=p) for _ in range(3))
            ab = aw_distance(a, b)[0]
            bc = aw_distance(b, c)[0]
            ac = aw_distance(a, c)[0]
            assert rooted(ac, p) <= rooted(ab, p) + rooted(bc, p) + TOL
            assert aw_distance(b, a)[0] == ab


@criterion(5, "the optimum is attained: assembled coupling is bicausal with exact cost")
def test_criterion_05_attainment():
    for p in (1, 2):
        for a, b in helpers.regression_pairs(p):
            value, table = aw_distance(a, b)
            pi = assemble_optimal_coupling(table, a, b)
            assert check_bicausal(pi).ok
            assert pi.expected_cost() == value


@criterion(6, "optimal interpolation is a constant-speed geodesic with matching endpoints")
def test_criterion_06_geodesics():
    rng = random.Random(60606)
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for p in (1, 2):
        for _ in range(25):
            a, b = helpers.random_pair(rng, p=p)
            value, product = optimal_product(a, b)
            points = {lam: geodesic(product, lam) for lam in grid}
            assert hk_equivalent(points[F(0)], a)
            assert hk_equivalent(points[F(1)], b)
            for i, lo in enumerate(grid):
                for hi in grid[i + 1 :]:
                    d = aw_distance(points[lo], points[hi])[0]
                    expected = (hi - lo) ** p * value
                    assert abs(rooted(d, p) - rooted(expected, p)) <= TOL
                    if p == 1:
                        assert d == expected


@criterion(7, "quantile representation pushes Lebesgue measure to the exact path law")
def test_criterion_07_representation_pushforward():
    for p in (1, 2):
        for tree in helpers.regression_trees(p):
            qmap = quantile_map(tree)
            pushed = pushforward_path_law(qmap)
            reference = law_on_paths(canonical_tree(qmap.form))
            assert pushed.as_dict() == reference.as_dict()
            assert hk_equivalent(induced_tree(qmap), tree)


@criterion(8, "representation converges for shrinking edits and flags information defects")
def test_criterion_08_representation_convergence():
    limit = helpers.bernoulli_x()
    ns = (1, 2, 4, 8, 16, 32)
    # endpoint values +-(1 + 1/n) shrink onto +-1: both diagnostics vanish
    good = convergence_report([helpers.perturbed_x(n) for n in ns], limit)
    assert good.aw_converges and good.lp_converges and good.consistent
    for prev, cur in zip(good.rows, good.rows[1:]):
        assert cur.aw <= prev.aw and cur.lp <= prev.lp
    assert good.rows[-1].aw <= F(1, 32)
    assert good.rows[-1].lp <= F(1, 32)
    # an early +-1/n leak keeps revealing the endpoint: no convergence,
    # and the report must say so
    bad = convergence_report([helpers.y_eps(F(1, n)) for n in ns], limit)
    assert all(row.aw >= 1 for row in bad.rows)
    assert not bad.aw_converges
    assert not bad.lp_converges
    assert bad.consistent


@criterion(9, "optimal stopping values are Lipschitz-stable under the adapted distance")
def test_criterion_09_stopping_stability():
    stop_now = PayoffSpec.current_value(2)
    assert optimal_stopping(helpers.bernoulli_x(), stop_now).value == 0
    for eps in (F(1, 10), F(1, 100)):
        assert optimal_stopping(helpers.y_eps(eps), stop_now).value == (1 - eps) / 2
    assert optimal_stopping(helpers.sign_lift(), stop_now).value == F(1, 2)
    payoffs = {
        2: [PayoffSpec.current_value(2), PayoffSpec(["x1", "x1 + x2"], 2)],
        3: [
            PayoffSpec.current_value(3),
            PayoffSpec(["x1", "x1 + x2", "abs(x1) + x3"], 3),
        ],
    }
    for family in payoffs.values():
        for payoff in family:
            assert verify_lipschitz(payoff).ok
    for a, b in helpers.regression_pairs(1):
        bound = aw_distance(a, b)[0]
        for payoff in payoffs[a.config.num_steps]:
            va = optimal_stopping(a, payoff).value
            vb = optimal_stopping(b, payoff).value
            assert abs(va - vb) <= payoff.lipschitz * bound
            assert stopping_stability_report(a, b, payoff).ok


@criterion(10, "randomized extensions preserve canonical forms; augmented lifts are self-aware")
def test_criterion_10_extension_invariance():
    for p in (1, 2):
        for tree in helpers.regression_trees(p):
            base = canon_digest(tree)
            for m in (2, 3):
                ext = extend_with_randomization(tree, m)
                assert verify_extension(ext)
                assert verify_randomization_independence(ext)
                assert hk_equivalent(ext.tree, tree)
                assert canon_digest(ext.tree) == base
    lift = helpers.sign_lift()
    assert not is_self_aware(lift)
    lifted = augmented_self_aware_lift(extend_with_randomization(lift, 2))
    assert is_self_aware(lifted)


@criterion(11, "transfer onto a fine enough extension reproduces the optimal pair exactly")
def test_criterion_11_transfer():
    # Named pairs plus equal-weight random pairs: conditional plans on these
    # have unit-fraction weights, so the required randomization grid stays
    # small.  (Arbitrary rational weights can push the required grid into
    # the tens of thousands, far past desk scale.)
    for p in (1, 2):
        pairs = list(helpers.regression_pairs(p, extra_random=0))
        rng = random.Random(311)
        pairs += [(uniform_tree(rng, p), uniform_tree(rng, p)) for _ in range(12)]
        for a, b in pairs:
            value, product = optimal_product(a, b)
            try:
                res = transfer(product, extend_with_randomization(a, 2))
            except GridResolutionError as exc:
                assert exc.required <= 12
                res = transfer(product, extend_with_randomization(a, exc.required))
            assert pair_path_cost(res.pair_tree, a.config.dim) == value
            assert hk_equivalent(res.pair_tree, product.tree)
            assert canon_digest(res.pair_tree) == canon_digest(product.tree)
            assert hk_equivalent(res.y_tree, b)


@criterion(12, "circle-shift family: plain cost exactly 1/n, one-cell edits strictly costlier")
def test_criterion_12_non_coexistence_fixture():
    for n in range(2, 11):
        # any common multiple of 1..n keeps the segment ends on the grid;
        # the fixture itself needs at least four cells
        k = math.lcm(*range(1, n + 1))
        while k < 4:
            k *= 2
        analysis = non_coexistence_fixture(n, k).analysis
        assert analysis.aligned
        assert analysis.w1 == F(1, n)  # the n-th segment has length 1/n
        assert analysis.segment_mass == F(1, n)
        assert analysis.lower_bound == analysis.diagonal_cost == analysis.w1
        assert analysis.strict_gap
        assert analysis.perturbed_cost == analysis.w1 + F(2, k * k)
        assert analysis.perturbed_cost > analysis.w1
        if analysis.ot_value is not None:
            # small grids get an independent exact-solver cross-check
            assert analysis.ot_value == analysis.w1
            assert analysis.ot_plan_diagonal
