"""Quantile representations on the unit cube and the shared-basis diagnostics."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

import helpers
from adt import (
    FilteredTree,
    MetricConfig,
    SolverError,
    TreeNode,
    aw_distance,
    canonical_tree,
    convergence_report,
    evaluate,
    hk_equivalent,
    information_process,
    law_on_paths,
    induced_tree,
    lp_distance,
    lp_representation_on_common_basis,
    max_pointwise_gap,
    non_coexistence_fixture,
    pair_path_cost,
    pushforward_path_law,
    quantile_map,
)
from adt import skorokhod, transport


def one_step(values_weights, p=1):
    """Single-step process with the given (value, weight) outcomes."""
    cfg = MetricConfig(num_steps=1, dim=1, order=F(p), value_decimals=12)
    nodes = {
        f"o{i}": TreeNode(f"o{i}", 1, (F(v),), "", ())
        for i, (v, _) in enumerate(values_weights)
    }
    root = tuple((f"o{i}", F(w)) for i, (_, w) in enumerate(values_weights))
    return FilteredTree(cfg, nodes, root)


class TestQuantileMap:
    def test_single_step_boxes_in_canonical_order(self):
        tree = one_step([(-1, F(1, 2)), (1, F(1, 2))])
        qmap = quantile_map(tree)
        cells = qmap.cells
        assert [(c.lo, c.hi) for c in cells] == [(F(0), F(1, 2)), (F(1, 2), F(1))]
        assert [c.atom.value for c in cells] == [(F(-1),), (F(1),)]

    def test_deterministic_process_single_box(self):
        tree = helpers.chain_tree([3, 7])
        qmap = quantile_map(tree)
        assert len(qmap.cells) == 1
        cell = qmap.cells[0]
        assert (cell.lo, cell.hi) == (F(0), F(1))
        assert len(cell.children) == 1

    def test_each_coordinate_spans_the_whole_interval(self):
        rng = random.Random(73)
        for _ in range(10):
            qmap = quantile_map(helpers.random_tree(rng))

            def check(cells):
                assert cells[0].lo == 0
                assert cells[-1].hi == 1
                for prev, cur in zip(cells, cells[1:]):
                    assert prev.hi == cur.lo
                for cell in cells:
                    assert cell.lo < cell.hi
                    if cell.children:
                        check(cell.children)

            check(qmap.cells)

    def test_evaluate_picks_boxes(self):
        x = helpers.bernoulli_x()
        qmap = quantile_map(x)
        assert evaluate(qmap, [F(1, 4), F(1, 4)]) == ((F(0),), (F(-1),))
        assert evaluate(qmap, [F(3, 4), F(3, 4)]) == ((F(0),), (F(1),))
        assert evaluate(qmap, [F(1), F(1)]) == ((F(0),), (F(1),))  # closure

    def test_evaluate_validates_points(self):
        qmap = quantile_map(helpers.bernoulli_x())
        with pytest.raises(SolverError):
            evaluate(qmap, [F(1, 2)])
        with pytest.raises(SolverError):
            evaluate(qmap, [F(1, 2), F(3, 2)])

    def test_pushforward_is_the_canonical_path_law(self):
        rng = random.Random(79)
        trees = [helpers.bernoulli_x(), helpers.sign_lift(), helpers.y_eps(F(1, 10))]
        trees += [helpers.random_tree(rng) for _ in range(10)]
        for tree in trees:
            qmap = quantile_map(tree)
            pushed = pushforward_path_law(qmap)
            reference = law_on_paths(canonical_tree(qmap.form))
            assert pushed.as_dict() == reference.as_dict()

    def test_induced_tree_is_equivalent_to_source(self):
        rng = random.Random(83)
        trees = [helpers.bernoulli_x(), helpers.sign_lift()]
        trees += [helpers.random_tree(rng) for _ in range(8)]
        for tree in trees:
            assert hk_equivalent(induced_tree(quantile_map(tree)), tree)


class TestLpDistance:
    def test_zero_on_equal_maps(self):
        rng = random.Random(89)
        for _ in range(8):
            tree = helpers.random_tree(rng)
            clone_map = quantile_map(tree)
            assert lp_distance(quantile_map(tree), clone_map) == 0

    def test_single_step_worked_value(self):
        # delta at 0 against a fair +/-1 coin: every point pays exactly 1
        f = quantile_map(one_step([(0, 1)]))
        g = quantile_map(one_step([(-1, F(1, 2)), (1, F(1, 2))]))
        assert lp_distance(f, g) == 1

    def test_quantile_coupling_matches_adapted_distance_here(self):
        # sharing the uniform coordinates stage by stage is optimal for
        # these comonotone-like pairs, so the integral equals the distance
        for eps in helpers.REGRESSION_EPS:
            x = helpers.bernoulli_x()
            y = helpers.y_eps(eps)
            value = lp_distance(quantile_map(x), quantile_map(y))
            assert value == 1 + eps
            assert value == aw_distance(x, y)[0]

    def test_never_below_adapted_distance(self):
        # the shared-coordinate coupling is bicausal, so its cost is an
        # upper bound for the adapted transport value
        for p in (1, 2):
            for a, b in helpers.regression_pairs(p, extra_random=8):
                assert lp_distance(quantile_map(a), quantile_map(b)) >= (
                    aw_distance(a, b)[0]
                )

    def test_symmetry(self):
        for a, b in helpers.regression_pairs(1, extra_random=6):
            assert lp_distance(quantile_map(a), quantile_map(b)) == lp_distance(
                quantile_map(b), quantile_map(a)
            )

    def test_triangle_inequality(self):
        rng = random.Random(97)
        by_shape = {}
        for tree in helpers.regression_trees(1, extra_random=8):
            key = (tree.config.num_steps, tree.config.dim)
            by_shape.setdefault(key, []).append(tree)
        pool = max(by_shape.values(), key=len)
        maps = [quantile_map(t) for t in pool]
        for _ in range(40):
            f, g, h = rng.sample(maps, 3)
            assert lp_distance(f, h) <= lp_distance(f, g) + lp_distance(g, h)

    def test_weak_mode_truncates_pathwise(self):
        # under the shared coordinates, half the mass has matching signs and
        # pays eps; the other half would pay 2 + eps, clipped to 1
        eps = F(1, 10)
        x = helpers.bernoulli_x(p=0)
        y = helpers.y_eps(eps, p=0)
        value = lp_distance(quantile_map(x), quantile_map(y))
        assert value == (eps + 1) / 2
        assert value == F(11, 20)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3, F(3, 2), 0])
    def test_matches_the_reference_recursion(self, p, d):
        # a tree against itself and against a child-reordered copy shares
        # every atom between the two forms
        rng = random.Random(f"lp-{p}-{d}")
        for _ in range(6):
            a, b = helpers.random_pair(rng, p=p, d=d)
            f, g = quantile_map(a), quantile_map(b)
            for x, y in ((f, g), (g, f), (f, f), (f, quantile_map(helpers.reordered(a)))):
                value, ref = lp_distance(x, y), helpers.reference_lp(x, y)
                # floats bit for bit, Fractions exact; the type is part of the output
                assert type(value) is type(ref) and value == ref

    def test_shape_mismatch_rejected(self):
        from adt import ConfigMismatchError

        with pytest.raises(ConfigMismatchError):
            lp_distance(
                quantile_map(helpers.bernoulli_x()),
                quantile_map(helpers.chain_tree([0, 1, 2])),
            )


class TestPointwiseGap:
    def test_identical_maps_have_zero_gap(self):
        qmap = quantile_map(helpers.bernoulli_x())
        gap, point = max_pointwise_gap(qmap, qmap)
        assert gap == 0
        assert len(point) == 2

    def test_known_gap(self):
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        gap, point = max_pointwise_gap(quantile_map(x), quantile_map(y))
        # the second coordinate re-spans [0,1) inside each branch, so some
        # refinement box pairs +1 with -1: gap = eps + |1 - (-1)|
        assert gap == F(1, 10) + 2
        assert all(0 < u < 1 for u in point)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, F(3, 2), 0])
    def test_matches_the_brute_force_grid(self, p, d):
        # weak mode clips many gaps to 1, so the tie rule decides the point
        rng = random.Random(f"gap-{p}-{d}")
        for _ in range(6):
            a, b = helpers.random_pair(rng, p=p, d=d)
            f, g = quantile_map(a), quantile_map(b)
            for x, y in ((f, g), (g, f), (f, f)):
                gap, point = max_pointwise_gap(x, y)
                ref_gap, ref_point = helpers.reference_gap(x, y)
                assert type(gap) is type(ref_gap) and gap == ref_gap
                assert point == ref_point

    def test_gap_dominates_lp_mean(self):
        # the max over boxes dominates the integral (p = 1)
        for a, b in helpers.regression_pairs(1, extra_random=6):
            f, g = quantile_map(a), quantile_map(b)
            assert max_pointwise_gap(f, g)[0] >= lp_distance(f, g)


class TestCommonBasis:
    def test_realization_cost_equals_distance(self):
        for p in (1, 2):
            for a, b in helpers.regression_pairs(p, extra_random=6):
                product, cost = lp_representation_on_common_basis(a, b)
                assert cost == aw_distance(a, b)[0]
                assert pair_path_cost(product.tree, a.config.dim) == cost


class TestConvergence:
    def test_constant_sequence_converges(self):
        x = helpers.bernoulli_x()
        report = convergence_report([x, x, x], x)
        assert report.aw_converges and report.lp_converges and report.consistent
        assert all(row.aw == 0 and row.lp == 0 for row in report.rows)

    def test_shrinking_perturbations_converge_consistently(self):
        limit = helpers.bernoulli_x()
        seq = [helpers.perturbed_x(n) for n in (1, 2, 4, 8, 16, 32)]
        report = convergence_report(seq, limit)
        assert report.aw_converges
        assert report.lp_converges
        assert report.consistent
        assert report.rows[-1].aw == F(1, 32)

    def test_information_defect_is_flagged(self):
        # values converge but the filtration does not: both diagnostics
        # stall away from zero, and they must agree about it
        limit = helpers.bernoulli_x()
        seq = [helpers.y_eps(F(1, n)) for n in (1, 2, 4, 8, 16, 32)]
        report = convergence_report(seq, limit)
        assert not report.aw_converges
        assert not report.lp_converges
        assert report.consistent
        assert report.rows[-1].aw == F(33, 32)

    def test_csv_is_well_formed(self):
        x = helpers.bernoulli_x()
        report = convergence_report([helpers.perturbed_x(2)], x)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "n,aw_distance,lp_distance,grid_max"
        assert len(lines) == 2
        assert lines[1].startswith("1,")

    def test_empty_sequence_rejected(self):
        with pytest.raises(SolverError):
            convergence_report([], helpers.bernoulli_x())

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, F(3, 2), 0])
    def test_rows_match_the_public_path(self, p, d):
        # the rows are read off each solved table; the public functions
        # compile the pair afresh and must agree, types too (floats print
        # into the CSV)
        rng = random.Random(f"report-{p}-{d}")
        for _ in range(3):
            limit, *members = [t for _ in range(2) for t in helpers.random_pair(rng, p=p, d=d, n=3)]
            report = convergence_report(members, limit)
            q_limit = quantile_map(limit)
            for row, member in zip(report.rows, members):
                q_member = quantile_map(member)
                lp = limit.config.root_cost(lp_distance(q_member, q_limit))
                gap, _ = max_pointwise_gap(q_member, q_limit)
                assert type(row.lp) is type(lp) and row.lp == lp
                assert type(row.grid_max) is type(gap) and row.grid_max == gap

    @pytest.mark.parametrize("d", [1, 2])
    def test_weak_rows_match_the_references(self, d):
        # weak rows come from one walk of each member's common boxes; values
        # are shrunk so that some paths are clipped at 1 and some are not
        rng = random.Random(f"weak-report-{d}")
        for _ in range(3):
            limit, *members = [
                t.with_values(d, lambda node: tuple(v / 12 for v in node.value))
                for _ in range(2)
                for t in helpers.random_pair(rng, p=0, d=d, n=3)
            ]
            report = convergence_report(members, limit)
            q_limit = quantile_map(limit)
            for row, member in zip(report.rows, members):
                q_member = quantile_map(member)
                assert row.lp == helpers.reference_lp(q_member, q_limit)
                assert row.grid_max == helpers.reference_gap(q_member, q_limit)[0]

    def test_each_pair_is_compiled_once(self, monkeypatch):
        # one compilation and two canonicalizations per member, all inside
        # aw_distance, and no quantile map
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (transport, skorokhod):
            count(module, "_compile_forms")
            count(module, "information_process")
        count(skorokhod, "quantile_map")
        members = [helpers.perturbed_x(n) for n in (1, 2, 4, 8)]
        convergence_report(members, helpers.bernoulli_x())
        assert calls == {"_compile_forms": 4, "information_process": 8}


class TestFixture:
    def test_grid_aligned_masses(self):
        for n in range(2, 11):
            k, result = helpers.aligned_fixture(n)
            analysis = result.analysis
            assert analysis.aligned
            assert analysis.w1 == F(1, n)  # the n-th segment has length 1/n
            assert analysis.segment_mass == F(1, n)
            assert analysis.lower_bound == analysis.diagonal_cost == analysis.w1
            assert analysis.strict_gap
            assert analysis.perturbed_cost == analysis.w1 + F(2, k * k)

    def test_solver_cross_check_on_small_grids(self):
        for n, k in [(2, 12), (3, 12), (4, 60), (2, 8), (3, 10), (5, 7), (4, 80)]:
            analysis = non_coexistence_fixture(n, k).analysis
            assert analysis.ot_value is not None
            assert analysis.ot_value == analysis.w1
            assert analysis.ot_plan_diagonal is True

    def test_large_grids_skip_the_solver(self):
        analysis = non_coexistence_fixture(2, 120).analysis
        assert analysis.ot_value is None
        assert analysis.ot_plan_diagonal is None
        assert analysis.w1 == F(1, 2)

    def test_segments_cover_the_circle(self):
        # partial sums of 1/j wrap around: by n = 4 the union of segments
        # 2..n covers every grid point
        k = 12
        fractions = {
            n: non_coexistence_fixture(n, k).analysis.union_fraction
            for n in (2, 3, 4)
        }
        assert fractions[2] < 1
        assert fractions[2] <= fractions[3] <= fractions[4]
        assert fractions[4] == 1
        assert non_coexistence_fixture(4, k).analysis.union_covers

    def test_processes_have_the_advertised_shape(self):
        result = non_coexistence_fixture(2, 8)
        assert result.process.config.num_steps == 2
        assert law_on_paths(result.limit).as_dict() == {
            ((F(2 * i + 1, 16),), (F(0),)): F(1, 8) for i in range(8)
        }
        # distance computed on the trees agrees with the fixture account
        value, _ = aw_distance(result.process, result.limit)
        assert value == result.analysis.w1  # equal filtrations: no extra cost

    def test_parameter_validation(self):
        with pytest.raises(SolverError):
            non_coexistence_fixture(0, 12)
        with pytest.raises(SolverError):
            non_coexistence_fixture(2, 3)
