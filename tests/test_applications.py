"""Payoff language, optimal stopping, stability bounds, Doob decomposition."""

import random
from fractions import Fraction as F

import pytest

import helpers
from adt import (
    ConfigMismatchError,
    DoobDecomposition,
    ExpressionError,
    PayoffSpec,
    SolverError,
    canonical_tree,
    decorated_with_drift,
    doob,
    doob_stability_report,
    information_process,
    optimal_stopping,
    stopping_stability_report,
    verify_lipschitz,
)


class TestPayoffLanguage:
    def test_arithmetic_and_builtins(self):
        payoff = PayoffSpec(["max(x1, 0) + min(x1, 2) * abs(x1 - 1)"], 10)
        assert payoff.value(1, [(F(3),)]) == 3 + 2 * 2
        assert payoff.value(1, [(F(-1),)]) == 0 + (-1) * 2

    def test_float_constants_become_exact(self):
        payoff = PayoffSpec(["0.1 + x1"], 1)
        assert payoff.value(1, [(F(0),)]) == F(1, 10)  # not the binary float

    def test_unary_minus_and_parentheses(self):
        payoff = PayoffSpec(["-(x1 - 2)"], 1)
        assert payoff.value(1, [(F(5),)]) == -3

    def test_vector_coordinates(self):
        payoff = PayoffSpec(["x1_0 + 2 * x1_1"], 3, dim=2)
        assert payoff.value(1, [(F(1), F(10))]) == 21

    def test_path_dependence_up_to_current_time(self):
        payoff = PayoffSpec(["x1", "x1 + x2"], 2)
        assert payoff.value(2, [(F(1),), (F(5),)]) == 6

    def test_rejects_future_references(self):
        with pytest.raises(ExpressionError):
            PayoffSpec(["x2"], 1)
        with pytest.raises(ExpressionError):
            PayoffSpec(["x1", "x3"], 1)

    def test_rejects_division(self):
        with pytest.raises(ExpressionError):
            PayoffSpec(["x1 / 2"], 1)

    def test_rejects_power(self):
        with pytest.raises(ExpressionError):
            PayoffSpec(["x1 ** 2"], 1)

    def test_rejects_unknown_names_and_calls(self):
        with pytest.raises(ExpressionError):
            PayoffSpec(["y1"], 1)
        with pytest.raises(ExpressionError):
            PayoffSpec(["floor(x1)"], 1)

    def test_rejects_bool_constants(self):
        with pytest.raises(ExpressionError):
            PayoffSpec(["x1 + True"], 1)

    def test_rejects_constants_beyond_float_range(self):
        for text in ("x1 + 1e400", "x1 - 1e400", "min(x1, 2e308)"):
            with pytest.raises(ExpressionError, match="out of range"):
                PayoffSpec([text], 1)

    def test_rejects_out_of_range_coordinate(self):
        with pytest.raises(ExpressionError):
            PayoffSpec(["x1_1"], 1, dim=1)

    def test_rejects_bad_lipschitz_and_empty(self):
        with pytest.raises(ExpressionError):
            PayoffSpec(["x1"], 0)
        with pytest.raises(ExpressionError):
            PayoffSpec([], 1)
        with pytest.raises(ExpressionError):
            PayoffSpec(["x1", ""], 1)

    def test_from_text_replicates_single_expression(self):
        payoff = PayoffSpec.from_text("max(x1, 0)", 3, 1)
        assert payoff.expressions == ("max(x1, 0)",) * 3
        with pytest.raises(ExpressionError):
            PayoffSpec.from_text("x1; x1 + x2", 3, 1)

    def test_current_value_factory(self):
        payoff = PayoffSpec.current_value(2)
        assert payoff.expressions == ("x1", "x2")
        vector = PayoffSpec.current_value(2, dim=3)
        assert vector.expressions == ("x1_0", "x2_0")

    def test_value_validates_time_and_path(self):
        payoff = PayoffSpec.current_value(2)
        with pytest.raises(ExpressionError):
            payoff.value(3, [(F(0),), (F(0),)])
        with pytest.raises(ExpressionError):
            payoff.value(2, [(F(0),)])


class TestLipschitzCheck:
    def test_accepts_the_running_value(self):
        assert verify_lipschitz(PayoffSpec.current_value(3)).ok

    def test_catches_a_quadratic(self):
        report = verify_lipschitz(PayoffSpec(["x1 * x1"], 1))
        assert not report.ok
        t, x, y, diff, allowed = report.witness
        assert t == 1
        assert diff > allowed

    def test_respects_larger_declared_constant(self):
        # |a*a - b*b| <= (|a| + |b|) |a - b| <= 8 |a - b| on the +/-4 lattice
        assert verify_lipschitz(PayoffSpec(["x1 * x1"], 8)).ok

    def test_deterministic_in_seed(self):
        payoff = PayoffSpec(["x1 * x1"], 1)
        assert (
            verify_lipschitz(payoff, seed=3).witness
            == verify_lipschitz(payoff, seed=3).witness
        )


class TestOptimalStopping:
    def test_worked_values(self):
        payoff = PayoffSpec.current_value(2)
        assert optimal_stopping(helpers.bernoulli_x(), payoff).value == 0
        assert optimal_stopping(helpers.y_eps(F(1, 10)), payoff).value == F(9, 20)
        assert optimal_stopping(helpers.y_eps(F(1, 100)), payoff).value == F(99, 200)
        assert optimal_stopping(helpers.sign_lift(), payoff).value == F(1, 2)

    def test_deterministic_chain_waits_for_the_top(self):
        res = optimal_stopping(helpers.chain_tree([0, 1]), PayoffSpec.current_value(2))
        assert res.value == 1
        (first,) = [nid for nid, _ in helpers.chain_tree([0, 1]).root_children]
        assert res.rule[first] == "continue"

    def test_ties_stop(self):
        # continuation at the root atom of the fair coin is exactly 0 == stop
        res = optimal_stopping(helpers.bernoulli_x(), PayoffSpec.current_value(2))
        assert res.rule["a"] == "stop"

    def test_rule_and_node_values_cover_every_node(self):
        tree = helpers.random_walk_tree(3)
        res = optimal_stopping(tree, PayoffSpec.current_value(3))
        ids = {n.node_id for n in tree.nodes()}
        assert set(res.rule) == ids
        assert set(res.node_values) == ids
        assert all(decision in ("stop", "continue") for decision in res.rule.values())

    def test_filtration_matters(self):
        # equal path laws, different information: the lift sees the future
        payoff = PayoffSpec.current_value(2)
        assert (
            optimal_stopping(helpers.sign_lift(), payoff).value
            > optimal_stopping(helpers.bernoulli_x(), payoff).value
        )

    def test_invariant_under_canonicalization(self):
        rng = random.Random(101)
        payoffs = {
            2: [PayoffSpec.current_value(2), PayoffSpec(["x1", "x1 + x2"], 2)],
            3: [PayoffSpec.current_value(3), PayoffSpec(["x1", "x1 + x2", "abs(x1) + x3"], 3)],
        }
        for _ in range(12):
            tree = helpers.random_tree(rng)
            ctree = canonical_tree(information_process(tree).form)
            for payoff in payoffs[tree.config.num_steps]:
                assert (
                    optimal_stopping(tree, payoff).value
                    == optimal_stopping(ctree, payoff).value
                )

    def test_constant_shift_moves_the_value(self):
        tree = helpers.y_eps(F(1, 10))
        base = optimal_stopping(tree, PayoffSpec.current_value(2)).value
        shifted = optimal_stopping(tree, PayoffSpec(["x1 + 3", "x2 + 3"], 1)).value
        doubled = optimal_stopping(tree, PayoffSpec(["2 * x1", "2 * x2"], 2)).value
        assert shifted == base + 3
        assert doubled == 2 * base

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ExpressionError):
            optimal_stopping(helpers.bernoulli_x(), PayoffSpec.current_value(3))
        with pytest.raises(ExpressionError):
            optimal_stopping(
                helpers.bernoulli_x(), PayoffSpec.current_value(2, dim=2)
            )


class TestStoppingStability:
    def test_perturbation_respects_the_bound(self):
        payoff = PayoffSpec.current_value(2)
        for eps in helpers.REGRESSION_EPS:
            report = stopping_stability_report(
                helpers.bernoulli_x(), helpers.y_eps(eps), payoff
            )
            assert report.ok
            assert report.gap == (1 - eps) / 2
            assert report.aw1 == 1 + eps
            assert report.bound == 1 + eps

    def test_information_gap_respects_the_bound(self):
        report = stopping_stability_report(
            helpers.bernoulli_x(), helpers.sign_lift(), PayoffSpec.current_value(2)
        )
        assert report.ok
        assert report.gap == F(1, 2)
        assert report.bound == 1

    def test_random_pairs_respect_the_bound(self):
        rng = random.Random(103)
        for _ in range(10):
            a, b = helpers.random_pair(rng)
            payoff = PayoffSpec.current_value(a.config.num_steps)
            assert stopping_stability_report(a, b, payoff).ok

    def test_requires_order_one(self):
        x2 = helpers.bernoulli_x(p=2)
        y2 = helpers.y_eps(F(1, 10), p=2)
        with pytest.raises(ConfigMismatchError):
            stopping_stability_report(x2, y2, PayoffSpec.current_value(2))


class TestDoob:
    def test_martingale_has_no_drift(self):
        walk = helpers.random_walk_tree(3)
        decomp = doob(walk)
        zero = (F(0),)
        assert all(a == zero for a in decomp.predictable.values())
        assert all(
            decomp.martingale[n.node_id] == n.value for n in walk.nodes()
        )
        assert decomp.verify()

    def test_deterministic_chain_is_pure_drift(self):
        chain = helpers.chain_tree([0, 1])
        decomp = doob(chain)
        leaf = next(n.node_id for n in chain.nodes() if n.time == 2)
        first = next(n.node_id for n in chain.nodes() if n.time == 1)
        assert decomp.predictable[first] == (F(0),)
        assert decomp.predictable[leaf] == (F(1),)
        assert decomp.martingale[first] == (F(0),)
        assert decomp.martingale[leaf] == (F(0),)
        assert decomp.verify()

    def test_perturbation_drift_worked_value(self):
        eps = F(1, 10)
        decomp = doob(helpers.y_eps(eps))
        assert decomp.predictable["b+"] == (F(0),)
        assert decomp.predictable["b++"] == (1 - eps,)
        assert decomp.predictable["b--"] == (-(1 - eps),)
        assert decomp.martingale["b++"] == (eps,)
        assert decomp.verify()

    def test_verify_holds_on_random_trees(self):
        rng = random.Random(107)
        for _ in range(15):
            assert doob(helpers.random_tree(rng)).verify()

    def test_verify_rejects_nonzero_start(self):
        decomp = doob(helpers.bernoulli_x())
        predictable = dict(decomp.predictable)
        martingale = dict(decomp.martingale)
        predictable["a"] = (F(1),)
        martingale["a"] = (F(-1),)
        tampered = DoobDecomposition(decomp.tree, martingale, predictable)
        assert not tampered.verify()

    def test_verify_rejects_sum_mismatch(self):
        decomp = doob(helpers.bernoulli_x())
        predictable = dict(decomp.predictable)
        predictable["a+"] = (predictable["a+"][0] + 1,)
        tampered = DoobDecomposition(decomp.tree, decomp.martingale, predictable)
        assert not tampered.verify()

    def test_verify_rejects_unpredictable_drift(self):
        # move one sibling's split while keeping X = M + A: predictability breaks
        decomp = doob(helpers.bernoulli_x())
        predictable = dict(decomp.predictable)
        martingale = dict(decomp.martingale)
        predictable["a+"] = (predictable["a+"][0] + 1,)
        martingale["a+"] = (martingale["a+"][0] - 1,)
        tampered = DoobDecomposition(decomp.tree, martingale, predictable)
        assert not tampered.verify()

    def test_verify_rejects_broken_martingale(self):
        # a single-child node lets the drift absorb the jump measurably, but
        # the conditional expectation requirement still pins it down
        decomp = doob(helpers.chain_tree([0, 1]))
        leaf = next(n.node_id for n in decomp.tree.nodes() if n.time == 2)
        predictable = dict(decomp.predictable)
        martingale = dict(decomp.martingale)
        predictable[leaf] = (predictable[leaf][0] + 1,)
        martingale[leaf] = (martingale[leaf][0] - 1,)
        tampered = DoobDecomposition(decomp.tree, martingale, predictable)
        assert not tampered.verify()

    def test_decorated_process_carries_the_drift(self):
        eps = F(1, 10)
        tree = helpers.y_eps(eps)
        dec = decorated_with_drift(doob(tree))
        assert dec.config.dim == 2
        assert dec.node("b+").value == (eps, F(0))
        assert dec.node("b++").value == (F(1), 1 - eps)
        # tree structure untouched
        assert dec.root_children == tree.root_children


class TestDoobStability:
    def test_consistent_on_converging_family(self):
        limit = helpers.bernoulli_x()
        seq = [helpers.perturbed_x(n) for n in (1, 2, 4, 8, 16)]
        report = doob_stability_report(seq, limit)
        assert report.aw_converges
        assert report.decorated_converges
        assert report.consistent

    def test_flags_family_with_information_defect(self):
        limit = helpers.bernoulli_x()
        seq = [helpers.y_eps(F(1, n)) for n in (1, 2, 4, 8, 16)]
        report = doob_stability_report(seq, limit)
        assert not report.aw_converges
        assert not report.decorated_converges
        assert report.consistent

    def test_csv_shape(self):
        report = doob_stability_report(
            [helpers.perturbed_x(2)], helpers.bernoulli_x()
        )
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "n,aw_distance,decorated_aw_distance"
        assert len(lines) == 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(SolverError):
            doob_stability_report([], helpers.bernoulli_x())
