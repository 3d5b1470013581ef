"""Exact transport: flat solver, nested adapted distance, coupling oracle."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

import helpers
from adt import (
    DiscreteMeasure,
    FilteredTree,
    SolverError,
    StaleTableError,
    TreeNode,
    aw_distance,
    information_lift_contraction_ratio,
    information_process,
    ot_solve,
    random_bicausal_cost,
    wasserstein_paths,
)


def enumerate_feasible_vertices(mu, nu):
    """Independent oracle: exhaustive basic-solution enumeration.

    Every extreme point of the transportation polytope is supported on a
    spanning tree of the bipartite supply/demand graph.  For tiny instances
    we enumerate all spanning-tree cell subsets, solve each by repeated leaf
    elimination, and keep the nonnegative ones.  Returns deduplicated plans
    as ``{(i, j): mass}`` dicts over the positive cells.
    """
    m, n = len(mu), len(nu)
    cells = [(i, j) for i in range(m) for j in range(n)]
    seen = set()
    vertices = []
    for subset in itertools.combinations(cells, m + n - 1):
        edges = {cell: None for cell in subset}
        remaining = {("r", i): mu[i] for i in range(m)}
        remaining.update({("c", j): nu[j] for j in range(n)})
        feasible = True
        for _ in range(m + n - 1):
            unsolved = [cell for cell, mass in edges.items() if mass is None]
            leaf = None
            for node in remaining:
                kind, idx = node
                touching = [
                    c for c in unsolved if c[0 if kind == "r" else 1] == idx
                ]
                if len(touching) == 1:
                    leaf, cell = node, touching[0]
                    break
            if leaf is None:
                feasible = False  # a cycle: not a basis
                break
            mass = remaining[leaf]
            if mass < 0:
                feasible = False
                break
            edges[cell] = mass
            other = ("c", cell[1]) if leaf[0] == "r" else ("r", cell[0])
            remaining[leaf] = F(0)
            remaining[other] -= mass
        if not feasible or any(v is None or v < 0 for v in edges.values()):
            continue
        plan = {cell: mass for cell, mass in edges.items() if mass > 0}
        key = frozenset(plan.items())
        if key not in seen:
            seen.add(key)
            vertices.append(plan)
    return vertices


def enumerate_vertex_optimum(mu, nu, cost):
    """Cheapest enumerated vertex == the LP optimum (attained at a vertex)."""
    return min(
        sum(cost[i][j] * w for (i, j), w in plan.items())
        for plan in enumerate_feasible_vertices(mu, nu)
    )


class TestFlatSolver:
    def test_worked_example(self):
        value, plan = ot_solve(
            [F(3, 4), F(1, 4)],
            [F(1, 4), F(3, 4)],
            [[F(0), F(1)], [F(1), F(0)]],
        )
        # the unique optimum: x00 = t costs 1 - 2t, and t <= 1/4
        assert value == F(1, 2)
        assert plan.as_dict() == {(0, 0): F(1, 4), (0, 1): F(1, 2), (1, 1): F(1, 4)}

    def test_matches_vertex_enumeration(self):
        rng = random.Random(37)
        for _ in range(40):
            m = rng.choice([2, 3])
            n = rng.choice([2, 3, 4])
            mu = [F(rng.randint(1, 5)) for _ in range(m)]
            nu = [F(rng.randint(1, 5)) for _ in range(n)]
            total_mu, total_nu = sum(mu), sum(nu)
            mu = [w / total_mu for w in mu]
            nu = [w / total_nu for w in nu]
            cost = [[F(rng.randint(0, 9)) for _ in range(n)] for _ in range(m)]
            value, plan = ot_solve(mu, nu, cost)
            assert value == enumerate_vertex_optimum(mu, nu, cost)
            assert plan.matches_marginals(mu, nu)
            assert len(plan.support) <= m + n - 1

    def test_accepts_discrete_measures(self):
        mu = DiscreteMeasure(((F(0),), (F(1),)), (F(1, 2), F(1, 2)))
        nu = DiscreteMeasure(((F(0),), (F(1),)), (F(1, 4), F(3, 4)))
        value, _ = ot_solve(mu, nu, [[F(0), F(1)], [F(1), F(0)]])
        assert value == F(1, 4)

    def test_zero_mass_rows_are_skipped(self):
        value, plan = ot_solve(
            [F(0), F(1)], [F(1), F(0)], [[F(9), F(9)], [F(5), F(9)]]
        )
        assert value == F(5)
        assert plan.as_dict() == {(1, 0): F(1)}

    def test_rejects_mismatched_totals(self):
        with pytest.raises(SolverError):
            ot_solve([F(1)], [F(1, 2)], [[F(0)]])

    def test_rejects_negative_weights(self):
        with pytest.raises(SolverError):
            ot_solve([F(-1, 2), F(3, 2)], [F(1)], [[F(0)], [F(0)]])

    def test_rejects_negative_costs(self):
        with pytest.raises(SolverError):
            ot_solve([F(1)], [F(1)], [[F(-1)]])

    def test_rejects_bad_shape(self):
        with pytest.raises(SolverError):
            ot_solve([F(1, 2), F(1, 2)], [F(1)], [[F(0)]])

    def test_matches_network_simplex(self):
        # vertex enumeration cannot reach 8x8; networkx solves the same
        # problem exactly once weights are scaled to integers
        nx = pytest.importorskip("networkx")
        rng = random.Random(43)
        for trial in range(30):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            if trial % 3 == 0:
                mu = [F(1, m)] * m
                nu = [F(1, n)] * n
            else:
                mu = [F(rng.randint(1, 5)) for _ in range(m)]
                nu = [F(rng.randint(1, 5)) for _ in range(n)]
                s, t = sum(mu), sum(nu)
                mu = [w / s for w in mu]
                nu = [w / t for w in nu]
            # few distinct costs, so ties and degenerate pivots occur
            cost = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
            value, plan = ot_solve(mu, nu, cost)

            scale = math.lcm(*(w.denominator for w in mu + nu))
            graph = nx.DiGraph()
            for i, w in enumerate(mu):
                graph.add_node(("r", i), demand=-int(w * scale))
            for j, w in enumerate(nu):
                graph.add_node(("c", j), demand=int(w * scale))
            for i in range(m):
                for j in range(n):
                    graph.add_edge(("r", i), ("c", j), weight=int(cost[i][j]))
            expected, _ = nx.network_simplex(graph)
            assert value == F(expected, scale)
            assert plan.matches_marginals(mu, nu)
            assert len(plan.support) <= m + n - 1

    def test_integer_costs_are_exact(self):
        value, plan = ot_solve([F(1, 3), F(2, 3)], [F(1, 2)] * 2, [[2, 1], [1, 3]])
        assert value == F(4, 3)
        assert isinstance(value, F)
        assert plan.matches_marginals([F(1, 3), F(2, 3)], [F(1, 2)] * 2)

    def test_float_costs_supported(self):
        value, _ = ot_solve([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        assert value == pytest.approx(0.0)


class TestAdaptedDistance:
    @pytest.mark.parametrize("eps", helpers.REGRESSION_EPS)
    def test_bernoulli_perturbation_order_one(self, eps):
        x = helpers.bernoulli_x()
        y = helpers.y_eps(eps)
        value, table = aw_distance(x, y)
        assert value == 1 + eps
        assert wasserstein_paths(x, y) == eps
        assert not table.truncated
        table.check_matches(x, y)

    @pytest.mark.parametrize("eps", helpers.REGRESSION_EPS)
    def test_bernoulli_perturbation_order_two(self, eps):
        x = helpers.bernoulli_x(p=2)
        y = helpers.y_eps(eps, p=2)
        value, _ = aw_distance(x, y)
        assert value == 2 + eps * eps  # squared distance, exact

    def test_filtration_gap_against_plain_transport(self):
        x = helpers.bernoulli_x()
        lift = helpers.sign_lift()
        value, _ = aw_distance(x, lift)
        assert value == 1
        assert wasserstein_paths(x, lift) == 0

    def test_zero_iff_equivalent(self):
        rng = random.Random(43)
        from adt import hk_equivalent

        for a, b in helpers.regression_pairs(1):
            value, _ = aw_distance(a, b)
            assert (value == 0) == hk_equivalent(a, b)
        for _ in range(10):
            tree = helpers.random_tree(rng)
            value, _ = aw_distance(tree, tree)
            assert value == 0

    def test_symmetry_exact(self):
        for a, b in helpers.regression_pairs(1):
            assert aw_distance(a, b)[0] == aw_distance(b, a)[0]

    def test_dominates_plain_transport(self):
        for p in (1, 2):
            for a, b in helpers.regression_pairs(p):
                assert aw_distance(a, b)[0] >= wasserstein_paths(a, b)

    def test_triangle_inequality_rooted(self):
        rng = random.Random(47)
        for p in (1, 2):
            by_shape = {}
            for tree in helpers.regression_trees(p, extra_random=8):
                key = (tree.config.num_steps, tree.config.dim)
                by_shape.setdefault(key, []).append(tree)
            pool = max(by_shape.values(), key=len)
            assert len(pool) >= 3
            for _ in range(60):
                a, b, c = rng.sample(pool, 3)
                dab = float(aw_distance(a, b)[0]) ** (1 / p)
                dbc = float(aw_distance(b, c)[0]) ** (1 / p)
                dac = float(aw_distance(a, c)[0]) ** (1 / p)
                assert dac <= dab + dbc + 1e-9

    def test_table_entries_expose_stage_plans(self):
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        _, table = aw_distance(x, y)
        assert len(table.levels) == x.config.num_steps
        assert sum(w for *_, w in table.root_plan) == 1
        root_left = information_process(x).form
        root_right = information_process(y).form
        for left, right, w in table.root_plan:
            assert w > 0
            entry = table.entry(1, left, right)
            assert entry.cost >= 0
            assert entry.plan is not None  # one stage below remains
        assert {a for a, _ in root_left.law} == {l for l, _, _ in table.root_plan}
        assert {a for a, _ in root_right.law} == {r for _, r, _ in table.root_plan}

    def test_stale_table_detected(self):
        x = helpers.bernoulli_x()
        _, table = aw_distance(x, x)
        with pytest.raises(StaleTableError):
            table.check_matches(x, helpers.y_eps(F(1, 10)))

    def test_shape_mismatch_rejected(self):
        from adt import ConfigMismatchError

        with pytest.raises(ConfigMismatchError):
            aw_distance(helpers.bernoulli_x(), helpers.chain_tree([0, 1, 2]))


class TestWeakMode:
    def test_total_cost_is_clipped(self):
        x = helpers.bernoulli_x(p=0)
        y = helpers.y_eps(F(1, 10), p=0)
        value, table = aw_distance(x, y)
        assert value == 1
        assert table.truncated

    def test_small_costs_unclipped(self):
        a = helpers.chain_tree([0, 0])
        b = helpers.chain_tree([0, F(1, 4)], p=0)
        a = a.with_config(b.config)
        value, table = aw_distance(a, b)
        assert value == F(1, 4)
        assert not table.truncated

    def test_weak_plain_transport_truncates_per_path(self):
        x = helpers.bernoulli_x(p=0)
        lift = helpers.sign_lift(p=0)
        assert wasserstein_paths(x, lift) == 0
        y = helpers.y_eps(F(1, 10), p=0)
        assert wasserstein_paths(x, y) == F(1, 10)


class TestCouplingOracle:
    def test_first_sample_is_optimal_rest_dominate(self):
        for p in (1, 2):
            for a, b in helpers.regression_pairs(p, extra_random=6):
                value, _ = aw_distance(a, b)
                costs = random_bicausal_cost(a, b, seed=7, samples=24)
                assert costs[0] == value
                assert min(costs) == value
                assert all(c >= value for c in costs)

    def test_product_sample_matches_direct_computation(self):
        # sample 1 is the stagewise-independent coupling; hand value: stage 1
        # always pays |0 - (+/-eps)| = eps, stage 2 pays |+/-1 - (+/-1)|,
        # which is 0 or 2 with equal odds
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        costs = random_bicausal_cost(x, y, seed=0, samples=2)
        eps = F(1, 10)
        assert costs[1] == eps + (0 + 2) / F(2)

    def test_only_one_coupling_exists_for_chain_versus_split(self):
        # every stage plan here couples a singleton law, so the bicausal
        # coupling is unique and every sample must equal the optimum
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        value, _ = aw_distance(x, y)
        costs = random_bicausal_cost(x, y, seed=99, samples=20)
        assert set(costs) == {value}

    def test_deterministic_in_seed(self):
        a, b = helpers.random_pair(random.Random(99))
        first = random_bicausal_cost(a, b, seed=123, samples=50)
        second = random_bicausal_cost(a, b, seed=123, samples=50)
        assert first == second
        third = random_bicausal_cost(a, b, seed=124, samples=50)
        assert third != first  # random vertices actually vary
        assert len(set(first)) > 1

    def test_rejects_empty_sample_request(self):
        with pytest.raises(SolverError):
            random_bicausal_cost(
                helpers.bernoulli_x(), helpers.bernoulli_x(), seed=0, samples=0
            )

    def test_weak_mode_costs_stay_bounded(self):
        x = helpers.bernoulli_x(p=0)
        y = helpers.y_eps(F(1, 10), p=0)
        value, _ = aw_distance(x, y)
        costs = random_bicausal_cost(x, y, seed=5, samples=20)
        assert costs[0] == value == 1
        assert all(value <= c <= 1 for c in costs)


    def test_float_sampler_bounds_non_integer_order(self):
        p = F(3, 2)
        for a, b in helpers.regression_pairs(p, extra_random=6):
            value, _ = aw_distance(a, b)
            costs = random_bicausal_cost(a, b, seed=7, samples=24)
            assert all(isinstance(c, float) for c in costs)
            assert abs(costs[0] - value) <= 1e-9
            assert all(c >= value - 1e-9 for c in costs)
        a, b = helpers.random_pair(random.Random(99), p=p)
        first = random_bicausal_cost(a, b, seed=123, samples=50)
        assert random_bicausal_cost(a, b, seed=123, samples=50) == first
        assert random_bicausal_cost(a, b, seed=124, samples=50) != first

    def test_float_sampler_survives_huge_weight_scales(self):
        # eight prime denominators make S^N about 10^378, beyond float range;
        # the float walk must never scale by it
        primes = (997, 991, 983, 977, 971, 967, 953, 947)
        x = split_tree(primes, (F(1), F(-1)), p=F(3, 2))
        y = split_tree(primes, (F(1, 2), F(-1, 2)), p=F(3, 2))
        value, _ = aw_distance(x, y)
        costs = random_bicausal_cost(x, y, seed=3, samples=5)
        assert all(math.isfinite(c) for c in costs)
        assert costs[0] == pytest.approx(value, rel=1e-9)


def split_tree(primes, values, p):
    """Binary tree with N = len(primes): every split at time t sends weight
    1/q_t to ``values[0]`` and the rest to ``values[1]``."""
    nodes = {}

    def kids(parent, time):
        q = primes[time - 1]
        out = []
        for k, (value, w) in enumerate(zip(values, (F(1, q), 1 - F(1, q)))):
            nid = f"{parent}{k}"
            nxt = kids(nid, time + 1) if time < len(primes) else ()
            nodes[nid] = TreeNode(nid, time, (value,), "", nxt)
            out.append((nid, w))
        return tuple(out)

    root = kids("s", 1)
    return FilteredTree(helpers.cfg(n=len(primes), p=p), nodes, root)


class TestContraction:
    def test_ratio_never_exceeds_one(self):
        rng = random.Random(53)
        trees = [helpers.random_walk_tree(3), helpers.bernoulli_x()]
        trees += [helpers.random_tree(rng) for _ in range(10)]
        for tree in trees:
            assert information_lift_contraction_ratio(tree) <= 1
