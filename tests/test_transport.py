"""Exact transport: flat solver, nested adapted distance, coupling oracle."""

import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import helpers
from adt import (
    DiscreteMeasure,
    FilteredTree,
    SolverError,
    StaleTableError,
    TreeNode,
    assemble_optimal_coupling,
    aw_distance,
    information_process,
    law_on_paths,
    ot_solve,
    path_cost,
    random_bicausal_cost,
    wasserstein_paths,
)
from adt.transport import _compile_paths, _overlap_laws, _plain_transport


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


def network_simplex_problems():
    """Problems for the networkx cross-check: small random ones with few
    distinct costs, uniform square (assignment-like) ones up to 24x24 where
    degenerate pivots pile up, rectangular ones up to 12x30, and weights
    1/q for primes q near 1000, whose lcm scale is large."""
    rng = random.Random(43)

    def normalized(weights):
        total = sum(weights)
        return [F(w) / total for w in weights]

    def costs(m, n):
        # few distinct costs, so ties and degenerate pivots occur
        return [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]

    for trial in range(30):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        if trial % 3 == 0:
            yield [F(1, m)] * m, [F(1, n)] * n, costs(m, n)
        else:
            mu = normalized([rng.randint(1, 5) for _ in range(m)])
            nu = normalized([rng.randint(1, 5) for _ in range(n)])
            yield mu, nu, costs(m, n)
    for size in (12, 16, 20, 24, 24):
        yield [F(1, size)] * size, [F(1, size)] * size, costs(size, size)
    for m, n in ((12, 30), (30, 12), (7, 30), (12, 19)):
        yield normalized([rng.randint(1, 3) for _ in range(m)]), [F(1, n)] * n, costs(m, n)
    primes = [q for q in range(960, 1040) if all(q % d for d in range(2, 32))]
    for m, n in ((3, 3), (4, 6), (6, 5)):
        qs = rng.sample(primes, m + n - 2)
        mu = [F(1, q) for q in qs[:m - 1]]
        nu = [F(1, q) for q in qs[m - 1:]]
        yield mu + [1 - sum(mu)], nu + [1 - sum(nu)], costs(m, n)


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
        for mu, nu, cost in network_simplex_problems():
            value, plan = ot_solve(mu, nu, cost)
            m, n = len(mu), len(nu)
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

    @pytest.mark.parametrize("scale", [1, 10**8])
    def test_float_costs_match_exact_solve_under_degeneracy(self, scale):
        # uniform 12x12 marginals: every north-west cell after the first row
        # starts at a tie; costs k/3 are not binary fractions.  At 10^8 the
        # float potentials price some basic cells a rounding error below
        # the tolerance.
        rng = random.Random(47)
        mu = nu = [F(1, 12)] * 12
        cost = [[F(rng.randint(0, 9), 3) * scale for _ in range(12)] for _ in range(12)]
        exact, _ = ot_solve(mu, nu, cost)
        approx, plan = ot_solve(mu, nu, [[float(c) for c in row] for row in cost])
        assert isinstance(approx, float)
        assert abs(approx - float(exact)) < 1e-9 * scale
        assert plan.matches_marginals(mu, nu)

    def test_basis_stays_strongly_feasible(self):
        # the anti-cycling invariant, checked on the final basis: rooted at
        # row 0, every basic cell of zero mass hangs its row below its column
        from adt.transport import _simplex

        rng = random.Random(53)
        for trial in range(60):
            m = rng.randint(1, 10)
            n = m if trial % 2 else rng.randint(1, 10)
            # equal totals with many partial sums in common: many ties
            a = [rng.choice([1, 2, 2, 4]) for _ in range(m)]
            b = [rng.choice([1, 2, 2, 4]) for _ in range(n)]
            a, b = [w * sum(b) for w in a], [w * sum(a) for w in b]
            cost = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
            basis = _simplex(a, b, cost, 0)
            assert len(basis) == m + n - 1
            links = {}
            for i, j, _ in basis:
                links.setdefault(("r", i), []).append(("c", j))
                links.setdefault(("c", j), []).append(("r", i))
            depth, frontier = {("r", 0): 0}, [("r", 0)]
            while frontier:
                node = frontier.pop()
                for other in links.get(node, ()):
                    if other not in depth:
                        depth[other] = depth[node] + 1
                        frontier.append(other)
            assert len(depth) == m + n
            for i, j, w in basis:
                assert w >= 0
                if w == 0:
                    assert depth[("r", i)] > depth[("c", j)]

    def test_plans_do_not_depend_on_earlier_solves(self, tmp_path):
        # the pricing cursor lives inside one solve
        rng = random.Random(59)
        mu = nu = [F(1, 9)] * 9
        cost = [[rng.randint(0, 3) for _ in range(9)] for _ in range(9)]
        first = ot_solve(mu, nu, cost)
        ot_solve([F(1, 2)] * 2, [F(1, 3)] * 3, [[1, 0, 2], [0, 2, 1]])
        assert ot_solve(mu, nu, cost) == first

        from adt.cli import main

        # symmetric walks: many tied stage plans
        pair = (helpers.random_walk_tree(3), helpers.random_walk_tree(3, step=F(1, 2)))
        paths = []
        for name, tree in zip("xy", pair):
            paths.append(str(tmp_path / f"{name}.json"))
            (tmp_path / f"{name}.json").write_text(json.dumps(tree.to_document()), encoding="utf-8")
        emitted = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            assert main(["distance", *paths, "--emit-plan", "--out", str(out)]) == 0
            emitted.append((out / "plan.json").read_bytes())
        assert emitted[0] == emitted[1]

    @pytest.mark.parametrize(
        "mu, nu, cost, value, support",
        [
            # all costs equal: every plan is optimal, the north-west start stays
            (
                [F(1, 3)] * 3,
                [F(1, 4)] * 4,
                [[1] * 4] * 3,
                1,
                {(0, 0): F(1, 4), (0, 1): F(1, 12), (1, 1): F(1, 6),
                 (1, 2): F(1, 6), (2, 2): F(1, 12), (2, 3): F(1, 4)},
            ),
            # two cost levels: any plan on the even cells is optimal (1 pivot)
            (
                [F(1, 4)] * 4,
                [F(1, 4)] * 4,
                [[(i + j) % 2 for j in range(4)] for i in range(4)],
                0,
                {(k, k): F(1, 4) for k in range(4)},
            ),
            (
                [F(1, 2), F(1, 4), F(1, 4)],
                [F(1, 3)] * 3,
                [[2 - 2 * ((i + j) % 2) for j in range(3)] for i in range(3)],
                F(5, 6),
                {(0, 0): F(1, 6), (0, 1): F(1, 3), (1, 0): F(1, 6),
                 (1, 2): F(1, 12), (2, 2): F(1, 4)},
            ),
            # anti-diagonal cost: the north-west start is far off (6 pivots)
            (
                [F(1, 3)] * 3,
                [F(1, 4)] * 4,
                [[abs(i + j - 3) for j in range(4)] for i in range(3)],
                F(1, 2),
                {(0, 2): F(1, 12), (0, 3): F(1, 4), (1, 1): F(1, 6),
                 (1, 2): F(1, 6), (2, 0): F(1, 4), (2, 1): F(1, 12)},
            ),
            # Bland's rule returned {(0, 2): 1/4, (1, 1): 1/8, (1, 2): 1/8,
            # (2, 0): 1/4, (3, 0): 1/8, (3, 1): 1/8}, as cheap as this one
            (
                [F(1, 4)] * 4,
                [F(3, 8), F(1, 4), F(3, 8)],
                [[2, 2, 2], [2, 2, 2], [0, 1, 2], [0, 0, 1]],
                1,
                {(0, 2): F(1, 4), (1, 0): F(1, 8), (1, 2): F(1, 8),
                 (2, 0): F(1, 4), (3, 1): F(1, 4)},
            ),
        ],
        ids=["all_equal", "two_levels_4x4", "two_levels_3x3", "anti_diagonal", "block_pricing"],
    )
    def test_pins_plan_under_ties(self, mu, nu, cost, value, support):
        # the start, the pricing blocks and the leaving rule fix which of
        # several optimal plans is returned
        got, plan = ot_solve(mu, nu, cost)
        assert got == value == enumerate_vertex_optimum(mu, nu, cost)
        assert plan.as_dict() == support

    def test_integer_costs_are_exact(self):
        value, plan = ot_solve([F(1, 3), F(2, 3)], [F(1, 2)] * 2, [[2, 1], [1, 3]])
        assert value == F(4, 3)
        assert isinstance(value, F)
        assert plan.matches_marginals([F(1, 3), F(2, 3)], [F(1, 2)] * 2)

    def test_float_costs_supported(self):
        value, _ = ot_solve([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        assert value == pytest.approx(0.0)


def path_cost_transport(a, b):
    """Oracle: the path-space problem built cell by cell with ``path_cost``."""
    law_a, law_b = law_on_paths(a), law_on_paths(b)
    cost = [[path_cost(x, y, a.config) for y in law_b.atoms] for x in law_a.atoms]
    return law_a, law_b, cost, ot_solve(law_a.weights, law_b.weights, cost)


class TestPlainTransport:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_integer_matrix_matches_path_cost_build(self, p, d):
        rng = random.Random(1000 * p + d)
        for _ in range(12):
            a, b = helpers.random_pair(rng, p=p, d=d)
            law_a, law_b, _, (value, plan) = path_cost_transport(a, b)
            assert wasserstein_paths(a, b) == value
            assert _plain_transport(law_a, law_b, a.config) == (value, plan)

    def test_weak_truncation_clips_a_cell(self):
        x = helpers.bernoulli_x(p=0)
        y = helpers.y_eps(F(1, 10), p=0)
        law_x, law_y, cost, (value, plan) = path_cost_transport(x, y)
        unclipped = [
            [sum(x.config.step_cost(s, t) for s, t in zip(u, v)) for v in law_y.atoms]
            for u in law_x.atoms
        ]
        assert unclipped != cost  # the crossed pairs cost 21/10 before the clip
        assert value == wasserstein_paths(x, y) == F(1, 10)
        assert _plain_transport(law_x, law_y, x.config) == (value, plan)

    def test_non_integer_order_keeps_the_float_build(self):
        # the float matrix comes from the compiled ints, step sums grouped
        # as path_cost groups them, so d = 2 is bit-identical too
        rng = random.Random(32)
        for d in (1, 2):
            for _ in range(10):
                a, b = helpers.random_pair(rng, p=F(3, 2), d=d)
                law_a, law_b, matrix, (value, plan) = path_cost_transport(a, b)
                rows_a, rows_b, _, cost = _compile_paths(a.config, law_a.atoms, law_b.atoms)
                assert [[cost(x, y) for y in rows_b] for x in rows_a] == matrix  # bit for bit
                assert isinstance(value, float)
                assert wasserstein_paths(a, b) == value
                assert _plain_transport(law_a, law_b, a.config) == (value, plan)


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
        with pytest.raises(StaleTableError, match=helpers.STALE):
            table.check_matches(x, helpers.y_eps(F(1, 10)))

    def test_stale_table_detected_across_cost_orders(self):
        # the same trees rebound to another order have the same canonical
        # forms, but the p = 1 plans are not optimal at p = 2: on this pair
        # they cost 11441/800 against the p = 2 optimum 79927/5600
        rng = random.Random(5)
        for _ in range(6):
            a, b = helpers.random_pair(rng)
        _, table = aw_distance(a, b)
        table.check_matches(a, b)
        for order in (F(2), F(0)):
            a2, b2 = (t.with_config(replace(t.config, order=order)) for t in (a, b))
            with pytest.raises(StaleTableError, match=helpers.STALE):
                table.check_matches(a2, b2)
            with pytest.raises(StaleTableError, match=helpers.STALE):
                assemble_optimal_coupling(table, a2, b2)

    def test_shape_mismatch_rejected(self):
        from adt import ConfigMismatchError

        with pytest.raises(ConfigMismatchError):
            aw_distance(helpers.bernoulli_x(), helpers.chain_tree([0, 1, 2]))


class TestIntegerRecursion:
    """The table, solved on ints with terminal sweeps, against the
    ``Fraction`` recursion of ``helpers.reference_aw``."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3, F(3, 2), 0], ids=["1", "2", "3", "3/2", "weak"])
    def test_table_matches_the_reference_recursion(self, p, d):
        rng = random.Random(f"table-{p}-{d}")
        for _ in range(10):
            a, b = helpers.random_pair(rng, p=p, d=d)
            value, table = aw_distance(a, b)
            ref_value, ref_levels, ref_plan, truncated = helpers.reference_aw(a, b)
            # floats bit for bit, Fractions exact; the type is part of the output
            assert type(value) is type(ref_value) and value == ref_value
            assert table.root_value == value and table.truncated == truncated
            assert table.root_plan == ref_plan
            for level, ref_level in zip(table.levels, ref_levels, strict=True):
                assert level.keys() == ref_level.keys()
                for pair, entry in level.items():
                    cost, plan = ref_level[pair]
                    assert type(entry.cost) is type(cost) and entry.cost == cost
                    assert entry.plan == plan

    def test_terminal_sweep_is_the_simplex_plan_under_ties(self):
        # values from a short lattice make many |x - y| ties at p = 1
        rng = random.Random(41)
        for _ in range(300):
            xs = sorted(rng.sample(range(6), rng.randint(1, 5)))
            ys = sorted(rng.sample(range(6), rng.randint(1, 5)))
            mu = [rng.randint(1, 4) for _ in xs]
            nu = [rng.randint(1, 4) for _ in ys]
            mu, nu = [F(w, sum(mu)) for w in mu], [F(w, sum(nu)) for w in nu]
            _, plan = ot_solve(mu, nu, [[abs(x - y) for y in ys] for x in xs])
            swept = _overlap_laws(list(enumerate(mu)), list(enumerate(nu)))
            assert list(swept) == list(plan.support)

    @pytest.mark.parametrize("d, lp_levels", [(1, 1), (2, 2)])
    def test_terminal_stages_run_no_lp_in_one_dimension(self, monkeypatch, d, lp_levels):
        from adt import transport

        calls = []
        monkeypatch.setattr(transport, "ot_solve", lambda *args: calls.append(1) or ot_solve(*args))
        a, b = helpers.random_pair(random.Random(5), d=d, n=3)
        _, table = aw_distance(a, b)
        # one LP per atom pair of each solved level, and one for the root,
        # except where a successor law has one atom: that plan is swept
        laws = [(x.law, y.law) for level in table.levels[:lp_levels] for x, y in level]
        laws.append((table.left.law, table.right.law))
        assert len(calls) == sum(len(law_x) > 1 and len(law_y) > 1 for law_x, law_y in laws) > 0

    def test_one_atom_sweep_is_the_simplex_plan(self):
        # with one atom on a side the plan is forced, whatever the costs
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(1, 5)
            nu = [rng.randint(1, 4) for _ in range(n)]
            nu = [F(w, sum(nu)) for w in nu]
            cost = [[rng.choice([rng.randint(0, 9), rng.random()]) for _ in range(n)]]
            for mu, nu, cost in (([F(1)], nu, cost), (nu, [F(1)], [list(c) for c in zip(*cost)])):
                _, plan = ot_solve(mu, nu, cost)
                swept = _overlap_laws(list(enumerate(mu)), list(enumerate(nu)))
                assert list(swept) == list(plan.support)


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
                value, table = aw_distance(a, b)
                costs = random_bicausal_cost(table, seed=7, samples=24)
                assert costs[0] == value
                assert min(costs) == value
                assert all(c >= value for c in costs)

    def test_product_sample_matches_direct_computation(self):
        # sample 1 is the stagewise-independent coupling; hand value: stage 1
        # always pays |0 - (+/-eps)| = eps, stage 2 pays |+/-1 - (+/-1)|,
        # which is 0 or 2 with equal odds
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        costs = random_bicausal_cost(aw_distance(x, y)[1], seed=0, samples=2)
        eps = F(1, 10)
        assert costs[1] == eps + (0 + 2) / F(2)

    @pytest.mark.parametrize("p", [1, 2, 0])
    def test_product_sample_is_the_independent_coupling_cost(self, p):
        # sample 1 priced from the two canonical forms on Fractions: each
        # pair pays its stage cost plus the product-weighted child costs
        def product_cost(x, y, cfg):
            return cfg.step_cost(x.value, y.value) + sum(
                (wu * wv * product_cost(u, v, cfg) for u, wu in x.law for v, wv in y.law), F(0)
            )

        rng = random.Random(f"product-{p}")
        for d in (1, 2):
            for _ in range(6):
                a, b = helpers.random_pair(rng, p=p, d=d)
                _, table = aw_distance(a, b)
                cfg = table.config
                expected = sum(
                    (wu * wv * product_cost(u, v, cfg)
                     for u, wu in table.left.law for v, wv in table.right.law),
                    F(0),
                )
                if cfg.is_weak:
                    expected = min(expected, F(1))
                sample = random_bicausal_cost(table, seed=0, samples=2)[1]
                assert type(sample) is F and sample == expected

    def test_only_one_coupling_exists_for_chain_versus_split(self):
        # every stage plan here couples a singleton law, so the bicausal
        # coupling is unique and every sample must equal the optimum
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        value, table = aw_distance(x, y)
        costs = random_bicausal_cost(table, seed=99, samples=20)
        assert set(costs) == {value}

    def test_deterministic_in_seed(self):
        a, b = helpers.random_pair(random.Random(99))
        _, table = aw_distance(a, b)
        first = random_bicausal_cost(table, seed=123, samples=50)
        second = random_bicausal_cost(table, seed=123, samples=50)
        assert first == second
        third = random_bicausal_cost(table, seed=124, samples=50)
        assert third != first  # random vertices actually vary
        assert len(set(first)) > 1

    def test_rejects_empty_sample_request(self):
        with pytest.raises(SolverError):
            random_bicausal_cost(
                aw_distance(helpers.bernoulli_x(), helpers.bernoulli_x())[1],
                seed=0,
                samples=0,
            )

    def test_weak_mode_costs_stay_bounded(self):
        x = helpers.bernoulli_x(p=0)
        y = helpers.y_eps(F(1, 10), p=0)
        value, table = aw_distance(x, y)
        costs = random_bicausal_cost(table, seed=5, samples=20)
        assert costs[0] == value == 1
        assert all(value <= c <= 1 for c in costs)


    def test_float_sampler_bounds_non_integer_order(self):
        p = F(3, 2)
        for a, b in helpers.regression_pairs(p, extra_random=6):
            value, table = aw_distance(a, b)
            costs = random_bicausal_cost(table, seed=7, samples=24)
            assert all(isinstance(c, float) for c in costs)
            assert abs(costs[0] - value) <= 1e-9
            assert all(c >= value - 1e-9 for c in costs)
        a, b = helpers.random_pair(random.Random(99), p=p)
        _, table = aw_distance(a, b)
        first = random_bicausal_cost(table, seed=123, samples=50)
        assert random_bicausal_cost(table, seed=123, samples=50) == first
        assert random_bicausal_cost(table, seed=124, samples=50) != first

    def test_float_sampler_survives_huge_weight_scales(self):
        # eight prime denominators make S^N about 10^378, beyond float range;
        # the float walk must never scale by it
        primes = (997, 991, 983, 977, 971, 967, 953, 947)
        x = split_tree(primes, (F(1), F(-1)), p=F(3, 2))
        y = split_tree(primes, (F(1, 2), F(-1, 2)), p=F(3, 2))
        value, table = aw_distance(x, y)
        costs = random_bicausal_cost(table, seed=3, samples=5)
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
            assert helpers.contraction_ratio(tree) <= 1
