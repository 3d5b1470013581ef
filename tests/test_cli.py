"""End-to-end command-line checks: outputs, artifacts, exit codes."""

import json
from fractions import Fraction as F

import pytest

import helpers
from adt import PathCoupling, aw_distance, hk_equivalent, load_coupling, load_tree
from adt.cli import main


def write_tree(tmp_path, name, tree):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(tree.to_document()), encoding="utf-8")
    return str(path)


@pytest.fixture
def x_path(tmp_path):
    return write_tree(tmp_path, "x", helpers.bernoulli_x())


@pytest.fixture
def y_path(tmp_path):
    return write_tree(tmp_path, "y", helpers.y_eps(F(1, 10)))


class TestValidate:
    def test_reports_tree_stats(self, capsys, x_path):
        assert main(["validate", x_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: ")
        assert "steps=2, nodes=3, leaves=2" in out

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code = main(["validate", str(tmp_path / "absent.json")])
        assert code == 3
        assert "error[DocumentError]" in capsys.readouterr().err

    def test_invalid_document_exits_4(self, capsys, tmp_path):
        doc = helpers.bernoulli_x().to_document()
        doc["root_children"][0]["prob"] = "2/3"  # no longer sums to one
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 4
        assert "error[TreeValidationError]" in capsys.readouterr().err


class TestDistance:
    def test_exact_values_printed(self, capsys, x_path, y_path):
        assert main(["distance", x_path, y_path]) == 0
        out = capsys.readouterr().out
        assert "adapted cost (p-th power) = 1.1 (= 11/10, exact)" in out
        assert "plain cost (p-th power) = 0.1 (= 1/10, exact)" in out

    def test_order_two_power_exact_root_approximate(
        self, capsys, tmp_path, x_path, y_path
    ):
        out_dir = tmp_path / "art"
        assert (
            main(["distance", x_path, y_path, "--p", "2", "--out", str(out_dir)])
            == 0
        )
        doc = json.loads((out_dir / "distance.json").read_text(encoding="utf-8"))
        assert doc["adapted"]["power"] == {
            "exact": "201/100",
            "decimal": "2.01",
            "is_exact": True,
        }
        assert doc["adapted"]["distance"]["is_exact"] is False
        assert float(doc["adapted"]["distance"]["decimal"]) == pytest.approx(
            2.01**0.5
        )

    def test_weak_mode_clips(self, capsys, x_path, y_path):
        assert main(["distance", x_path, y_path, "--weak"]) == 0
        out = capsys.readouterr().out
        assert "note: weak-mode value clipped at 1" in out
        assert "adapted cost (p-th power) = 1.0 (= 1, exact)" in out

    def test_oracle_agrees(self, capsys, x_path, y_path):
        assert main(["distance", x_path, y_path, "--oracle-samples", "40"]) == 0
        out = capsys.readouterr().out
        assert "oracle: 40 sampled couplings" in out
        assert "agreement = True" in out

    def test_oracle_agrees_non_integer_order(self, capsys, x_path, y_path):
        argv = ["distance", x_path, y_path, "--p", "3/2", "--oracle-samples", "20"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "oracle: 20 sampled couplings" in out
        assert "agreement = True" in out

    def test_artifacts_written(self, tmp_path, x_path, y_path):
        out_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "distance",
                    x_path,
                    y_path,
                    "--emit-plan",
                    "--emit-table",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        table = json.loads((out_dir / "table.json").read_text(encoding="utf-8"))
        assert table["root_value"]["exact"] == "11/10"
        assert table["truncated"] is False
        plan = load_coupling(
            json.loads((out_dir / "plan.json").read_text(encoding="utf-8"))
        )
        assert plan.expected_cost() == F(11, 10)

    def test_deterministic_bytes(self, capsys, tmp_path, x_path, y_path):
        argv = ["distance", x_path, y_path, "--oracle-samples", "25"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_shape_mismatch_exits_5(self, capsys, tmp_path, x_path):
        other = write_tree(tmp_path, "chain3", helpers.chain_tree([0, 1, 2]))
        assert main(["distance", x_path, other]) == 5
        assert "error[ConfigMismatchError]" in capsys.readouterr().err

    def test_bad_order_exits_3(self, capsys, x_path, y_path):
        assert main(["distance", x_path, y_path, "--p", "-1"]) == 3
        assert main(["distance", x_path, y_path, "--p", "zero"]) == 3


class TestWasserstein:
    def test_plain_distance(self, capsys, x_path, y_path):
        assert main(["wasserstein", x_path, y_path]) == 0
        out = capsys.readouterr().out
        assert "plain cost (p-th power) = 0.1 (= 1/10, exact)" in out


class TestCanonicalize:
    def test_collapses_redundant_information(self, capsys, tmp_path):
        path = write_tree(tmp_path, "redundant", helpers.redundant_lift())
        assert main(["canonicalize", path]) == 0
        out = capsys.readouterr().out
        assert "canonical nodes = 3 (source nodes = 6)" in out

    def test_digest_stable_under_canonicalization(self, capsys, tmp_path):
        path = write_tree(tmp_path, "redundant", helpers.redundant_lift())
        out_dir = tmp_path / "c1"
        assert main(["canonicalize", path, "--out", str(out_dir)]) == 0
        digest_line = capsys.readouterr().out.splitlines()[0]
        doc = json.loads((out_dir / "canonical.json").read_text(encoding="utf-8"))
        ctree_path = tmp_path / "ctree.json"
        ctree_path.write_text(json.dumps(doc["tree"]), encoding="utf-8")
        assert main(["canonicalize", str(ctree_path)]) == 0
        again = capsys.readouterr().out.splitlines()[0]
        assert again == digest_line == f"digest = {doc['digest']}"


class TestEquivalent:
    def test_true_and_false_both_exit_zero(self, capsys, tmp_path, x_path):
        redundant = write_tree(tmp_path, "red", helpers.redundant_lift())
        lift = write_tree(tmp_path, "lift", helpers.sign_lift())
        assert main(["equivalent", x_path, redundant]) == 0
        assert "equivalent: true" in capsys.readouterr().out
        assert main(["equivalent", x_path, lift]) == 0
        assert "equivalent: false" in capsys.readouterr().out


class TestLift:
    def test_self_aware_lift(self, capsys, tmp_path):
        path = write_tree(tmp_path, "lift", helpers.sign_lift())
        assert main(["lift", path, "--kind", "self-aware"]) == 0
        out = capsys.readouterr().out
        assert "dimension 1 -> 2" in out
        assert "lift passes self-awareness check: True" in out

    def test_markov_lift(self, capsys, tmp_path):
        path = write_tree(tmp_path, "walk", helpers.random_walk_tree(3))
        assert main(["lift", path, "--kind", "markov"]) == 0
        assert "lift passes markov check: True" in capsys.readouterr().out


class TestCoupling:
    def test_check_bicausal_document(self, capsys, tmp_path):
        x = helpers.bernoulli_x()
        pi = PathCoupling(
            x,
            x,
            {("a+", "a+"): F(1, 2), ("a-", "a-"): F(1, 2)},
        )
        doc = tmp_path / "coupling.json"
        doc.write_text(json.dumps(pi.to_document()), encoding="utf-8")
        assert main(["coupling", "--check", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "bicausal: True" in out
        assert "causal left->right: ok" in out

    def test_check_reports_violation(self, capsys, tmp_path):
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        pi = PathCoupling(
            x, y, {("a+", "b++"): F(1, 2), ("a-", "b--"): F(1, 2)}
        )
        doc = tmp_path / "coupling.json"
        doc.write_text(json.dumps(pi.to_document()), encoding="utf-8")
        assert main(["coupling", "--check", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "bicausal: False" in out
        assert "violated at time 1" in out

    def test_assemble_and_transfer(self, capsys, x_path, y_path):
        assert main(["coupling", x_path, y_path, "--transfer-m", "2"]) == 0
        out = capsys.readouterr().out
        assert "matches adapted cost: True" in out
        assert "transfer onto grid m=2" in out
        assert "pair cost on the new basis = 1.1 (= 11/10, exact)" in out

    def test_transfer_grid_too_coarse_exits_10(self, capsys, x_path, y_path):
        assert main(["coupling", x_path, y_path, "--transfer-m", "3"]) == 10
        err = capsys.readouterr().err
        assert "error[GridResolutionError]" in err
        assert "2" in err  # the reported least sufficient grid

    def test_needs_two_trees_or_check(self, capsys, x_path):
        with pytest.raises(SystemExit):
            main(["coupling", x_path])


class TestGeodesic:
    def test_midpoint_tree_emitted(self, tmp_path, capsys, x_path, y_path):
        out_dir = tmp_path / "geo"
        assert (
            main(["geodesic", x_path, y_path, "--lam", "1/2", "--out", str(out_dir)])
            == 0
        )
        doc = json.loads((out_dir / "geodesic.json").read_text(encoding="utf-8"))
        assert doc["lambda"] == "1/2"
        mid = load_tree(doc["tree"])
        assert aw_distance(helpers.bernoulli_x(), mid)[0] == F(11, 20)

    def test_parameter_errors(self, capsys, x_path, y_path):
        assert main(["geodesic", x_path, y_path, "--lam", "3/2"]) == 6
        assert main(["geodesic", x_path, y_path, "--lam", "half"]) == 3


class TestQuantile:
    def test_boxes_and_csv(self, tmp_path, capsys, x_path):
        out_dir = tmp_path / "q"
        assert main(["quantile", x_path, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "boxes = 2" in out
        assert "breakpoints[2] = 0, 1/2, 1" in out
        csv = (out_dir / "quantile.csv").read_text(encoding="utf-8")
        assert csv.splitlines()[0] == "box,lo1,hi1,lo2,hi2,value1,value2"
        doc = json.loads((out_dir / "quantile.json").read_text(encoding="utf-8"))
        assert len(doc["boxes"]) == 2


class TestConvergence:
    def test_family_report(self, tmp_path, capsys, x_path):
        seq = [
            write_tree(tmp_path, f"p{n}", helpers.perturbed_x(n)) for n in (1, 4, 16)
        ]
        out_dir = tmp_path / "conv"
        assert main(["convergence", x_path, *seq, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "adapted distances -> 0: True" in out
        assert "consistent: True" in out
        csv = (out_dir / "convergence.csv").read_text(encoding="utf-8")
        assert csv.splitlines()[0] == "n,aw_distance,lp_distance,grid_max"
        doc = json.loads((out_dir / "convergence.json").read_text(encoding="utf-8"))
        assert [row["aw"]["exact"] for row in doc["rows"]] == ["1", "1/4", "1/16"]


class TestStop:
    def test_value_and_rule(self, capsys, y_path):
        assert main(["stop", y_path, "--payoff", "x1; x2"]) == 0
        out = capsys.readouterr().out
        assert "value = 0.45 (= 9/20, exact)" in out
        assert "declared Lipschitz constant spot-check: ok" in out

    def test_flags_optimistic_constant(self, capsys, y_path):
        assert (
            main(["stop", y_path, "--payoff", "x1 * x1; x2", "--lipschitz", "1"])
            == 0
        )
        assert "VIOLATED" in capsys.readouterr().out

    def test_bad_expression_exits_11(self, capsys, y_path):
        assert main(["stop", y_path, "--payoff", "x1 / 2; x2"]) == 11
        assert "error[ExpressionError]" in capsys.readouterr().err


class TestDoob:
    def test_csv_decomposition(self, capsys, y_path):
        assert main(["doob", y_path]) == 0
        out = capsys.readouterr().out
        assert "decomposition verified: True" in out
        assert "node,time,coord,value,martingale,predictable" in out
        assert "b++,2,0,1,1/10,9/10" in out


class TestFixture:
    def test_aligned_fixture_summary(self, capsys):
        assert main(["fixture", "--n", "2", "--k", "12"]) == 0
        out = capsys.readouterr().out
        assert "plain distance = 0.5 (= 1/2, exact)" in out
        assert "strictly larger: True" in out
        assert "optimal plan diagonal in first coordinate: True" in out

    def test_fixture_parameter_error(self, capsys):
        assert main(["fixture", "--n", "2", "--k", "3"]) == 6
        assert "error[SolverError]" in capsys.readouterr().err


class TestPrecisionEnv:
    def test_env_var_controls_parsing(self, capsys, tmp_path, monkeypatch):
        # documents without an explicit precision pick up the environment
        doc = {
            "config": {"N": 1, "d": 1, "p": "1"},
            "root_children": [{"id": "n1", "prob": "1"}],
            "nodes": [
                {"id": "n1", "time": 1, "value": ["0.005"], "info": "", "children": []}
            ],
        }
        fine = tmp_path / "fine.json"
        fine.write_text(json.dumps(doc), encoding="utf-8")
        zero = tmp_path / "zero.json"
        zero_doc = json.loads(json.dumps(doc))
        zero_doc["nodes"][0]["value"] = ["0"]
        zero.write_text(json.dumps(zero_doc), encoding="utf-8")

        assert main(["equivalent", str(fine), str(zero)]) == 0
        assert "equivalent: false" in capsys.readouterr().out

        monkeypatch.setenv("ADT_VALUE_DECIMALS", "2")  # 0.005 rounds half-even
        assert main(["equivalent", str(fine), str(zero)]) == 0
        assert "equivalent: true" in capsys.readouterr().out

        monkeypatch.setenv("ADT_VALUE_DECIMALS", "lots")
        assert main(["validate", str(fine)]) == 3
