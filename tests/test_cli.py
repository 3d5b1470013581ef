"""End-to-end command-line checks: outputs, artifacts, exit codes."""

import hashlib
import json
import random
import sys
from fractions import Fraction as F

import pytest

import helpers
from adt import PathCoupling, aw_distance, hk_equivalent, load_coupling, load_tree
from adt.cli import main


def write_tree(tmp_path, name, tree):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(tree.to_document()), encoding="utf-8")
    return str(path)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of coupling.json and coupling-check.json written by the byte tests
# below, recorded when the coupling layer still ran on ``Fraction``s; the
# integer layer must write the same bytes.
COUPLING_DIGESTS = {
    ("1", 1): [
        "3a65aa72d98cce3c5a1023ef6969378bcb47596e10900ee0b6afaafc074622d3",
        "9128dd9c364e90b2b8b4d9e53e1764970f381426b151b1b3233901142f381c7d",
    ],
    ("1", 2): [
        "ede34d09bb3e67d932349ea34b2e9a2297b9d003a5f5d287a6cba918144d49fd",
        "9128dd9c364e90b2b8b4d9e53e1764970f381426b151b1b3233901142f381c7d",
    ],
    ("2", 1): [
        "86abe79a610d5ec83a0f93a790bb990717bbf81dd84873d990e7c77ffb19e59c",
        "9128dd9c364e90b2b8b4d9e53e1764970f381426b151b1b3233901142f381c7d",
    ],
    ("2", 2): [
        "b44c47d730941db6ae82ae2121507884a24820361ced763c2ce36179455262af",
        "9128dd9c364e90b2b8b4d9e53e1764970f381426b151b1b3233901142f381c7d",
    ],
    ("3/2", 1): [
        "814160185e51ace912266132b46c50177ad04708b269bdf64dd325189b51d06d",
        "9128dd9c364e90b2b8b4d9e53e1764970f381426b151b1b3233901142f381c7d",
    ],
    ("3/2", 2): [
        "f1cd8b0a872c793e493d96b9079a90a1a49019d2ebe194d17d2e7b91d765e6bf",
        "9128dd9c364e90b2b8b4d9e53e1764970f381426b151b1b3233901142f381c7d",
    ],
    ("weak", 1): [
        "1821bbf35d8baf73d6e75004ab81c891154168f06f45f9075a624a6be75d67f0",
        "9128dd9c364e90b2b8b4d9e53e1764970f381426b151b1b3233901142f381c7d",
    ],
    ("weak", 2): [
        "f71dc88952268a6645f859f27ed4ee5dd4946e95a1161a4e099eac8a8b16b3c5",
        "9128dd9c364e90b2b8b4d9e53e1764970f381426b151b1b3233901142f381c7d",
    ],
}
ANTICIPATING_CHECK_DIGEST = "bbd0b72e37653e552e29ac27667ef8de4997796c859cc62ba0a8e9011f29bc6c"
# convergence.json of two seeded weak families, recorded before the weak
# rows were read off one walk of the common boxes
WEAK_CONVERGENCE_DIGESTS = {
    1: "a2e7b67ba45e183c4b4c89f0bdfd1fed685388b98be8e41e905764e948c5e8ae",
    2: "c0c4f0e88c019f9f578b3a854dd8ee2c6fa105cb0b511297b354f157772a87ec",
}


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

    def test_nan_value_exits_3(self, capsys, tmp_path):
        doc = helpers.bernoulli_x().to_document()
        doc["nodes"][-1]["value"] = ["NaN"]
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 3
        assert "cannot parse value coordinate 'NaN'" in capsys.readouterr().err

    def test_invalid_document_exits_4(self, capsys, tmp_path):
        doc = helpers.bernoulli_x().to_document()
        doc["root_children"][0]["prob"] = "2/3"  # no longer sums to one
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 4
        assert "error[TreeValidationError]" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["validate"], ["canonicalize"], ["coupling", "--check"]])
def test_non_utf8_document_exits_3(capsys, tmp_path, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte-order mark
    assert main([*command, str(path)]) == 3
    assert "error[DocumentError]" in capsys.readouterr().err


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

    def test_table_digests_match_canonicalize(self, capsys, tmp_path, x_path, y_path):
        out_dir = tmp_path / "table"
        argv = ["distance", x_path, y_path, "--emit-table", "--out", str(out_dir)]
        assert main(argv) == 0
        table = json.loads((out_dir / "table.json").read_text(encoding="utf-8"))
        assert table["left_digest"] != table["right_digest"]
        for key, path in (("left_digest", x_path), ("right_digest", y_path)):
            capsys.readouterr()
            assert main(["canonicalize", path]) == 0
            digest_line = capsys.readouterr().out.splitlines()[0]
            assert digest_line == f"digest = {table[key]}"

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
        assert main(["distance", x_path, y_path, "--p", "1/2"]) == 3


class TestWorkPerCommand:
    """Each tree is canonicalized once, by the solve, and the table hands
    those canonicalizations on to the coupling; a digest is computed only
    where an artifact prints it."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from adt import canonical, transport

        counts = {"canonical": 0, "digest": 0, "ot_solve": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        canonicalize = counting("canonical", canonical.information_process)
        for name, module in list(sys.modules.items()):
            if name.startswith("adt.") and hasattr(module, "information_process"):
                monkeypatch.setattr(module, "information_process", canonicalize)
        monkeypatch.setattr(
            canonical.CanonicalForm, "digest", counting("digest", canonical.CanonicalForm.digest)
        )
        monkeypatch.setattr(transport, "ot_solve", counting("ot_solve", transport.ot_solve))
        return counts

    @pytest.fixture
    def pair_paths(self, tmp_path):
        left, right = helpers.random_pair(random.Random(3))
        return [write_tree(tmp_path, "left", left), write_tree(tmp_path, "right", right)]

    @pytest.mark.parametrize(
        "command, flags, canonicalizations, digests",
        [
            ("coupling", [], 2, 0),
            ("geodesic", ["--lam", "1/2"], 2, 0),
            ("distance", [], 2, 0),
            ("distance", ["--emit-table", "--emit-plan", "--oracle-samples", "5"], 2, 2),
        ],
    )
    def test_canonicalizations_and_digests(
        self, counts, pair_paths, tmp_path, command, flags, canonicalizations, digests
    ):
        argv = [command, *pair_paths, *flags, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert counts["canonical"] == canonicalizations
        assert counts["digest"] == digests

    def test_oracle_adds_no_stage_solve(self, counts, pair_paths, tmp_path):
        assert main(["distance", *pair_paths, "--out", str(tmp_path / "a")]) == 0
        solves = counts["ot_solve"]
        assert solves > 0
        argv = ["distance", *pair_paths, "--oracle-samples", "5", "--out", str(tmp_path / "b")]
        assert main(argv) == 0
        assert counts["ot_solve"] == 2 * solves


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

    @pytest.mark.parametrize(
        "broken",
        ["missing", "malformed", "support_not_array", "id_not_string"],
    )
    def test_check_bad_document_exits_3(self, capsys, tmp_path, broken):
        x = helpers.bernoulli_x()
        doc = PathCoupling(x, x, {("a+", "a+"): F(1, 2), ("a-", "a-"): F(1, 2)}).to_document()
        text = {
            "missing": None,
            "malformed": json.dumps(doc)[:-1],
            "support_not_array": json.dumps({**doc, "support": 5}),
            "id_not_string": json.dumps(
                {**doc, "support": [{"left": ["a"], "right": "a+", "weight": "1"}]}
            ),
        }[broken]
        path = tmp_path / "coupling.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert main(["coupling", "--check", str(path)]) == 3
        assert "error[DocumentError]" in capsys.readouterr().err

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

    def test_too_coarse_grid_exits_before_extending(self, capsys, monkeypatch, x_path, y_path):
        def unexpected(*args):
            pytest.fail("the extension was built for a grid that cannot work")

        monkeypatch.setattr("adt.cli.extend_with_randomization", unexpected)
        assert main(["coupling", x_path, y_path, "--transfer-m", "3"]) == 10
        assert "error[GridResolutionError]" in capsys.readouterr().err

    def test_needs_two_trees_or_check(self, capsys, x_path):
        with pytest.raises(SystemExit):
            main(["coupling", x_path])

    @pytest.mark.parametrize("order,d", sorted(COUPLING_DIGESTS))
    def test_artifacts_keep_their_bytes(self, tmp_path, capsys, order, d):
        # assembled plans and their verdicts, byte for byte, on seeded pairs
        rng = random.Random(f"coupling-bytes-{order}-{d}")
        a, b = helpers.random_pair(rng, d=d, n=3)
        flag = ["--weak"] if order == "weak" else ["--p", order]
        paths = [write_tree(tmp_path, "a", a), write_tree(tmp_path, "b", b)]
        assert main(["coupling", *paths, *flag, "--out", str(tmp_path)]) == 0
        plan = tmp_path / "coupling.json"
        assert main(["coupling", "--check", str(plan), "--out", str(tmp_path)]) == 0
        digests = [sha256(tmp_path / name) for name in ("coupling.json", "coupling-check.json")]
        assert digests == COUPLING_DIGESTS[order, d]

    def test_anticipating_verdict_keeps_its_bytes(self, tmp_path, capsys):
        x, y = helpers.bernoulli_x(), helpers.y_eps(F(1, 10))
        support = [
            {"left": "a+", "right": "b++", "weight": "1/2"},
            {"left": "a-", "right": "b--", "weight": "1/2"},
        ]
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"left_tree": x.to_document(), "right_tree": y.to_document(), "support": support}),
            encoding="utf-8",
        )
        assert main(["coupling", "--check", str(plan), "--out", str(tmp_path)]) == 0
        assert "bicausal: False" in capsys.readouterr().out
        assert sha256(tmp_path / "coupling-check.json") == ANTICIPATING_CHECK_DIGEST


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_weak_report_keeps_its_bytes(self, tmp_path, capsys, d):
        # values shrunk so that some paths are clipped at 1 and some are not
        rng = random.Random(f"weak-convergence-bytes-{d}")
        trees = [
            helpers.random_tree(rng, n=3, d=d).with_values(d, lambda node: tuple(v / 12 for v in node.value))
            for _ in range(4)
        ]
        paths = [write_tree(tmp_path, f"t{k}", tree) for k, tree in enumerate(trees)]
        assert main(["convergence", *paths, "--weak", "--out", str(tmp_path)]) == 0
        assert sha256(tmp_path / "convergence.json") == WEAK_CONVERGENCE_DIGESTS[d]


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

    @pytest.mark.parametrize("raw", ["abc", "1/0", "inf"])
    def test_bad_lipschitz_exits_3(self, capsys, y_path, raw):
        assert main(["stop", y_path, "--payoff", "x1; x1 + x2", "--lipschitz", raw]) == 3
        assert f"error[DocumentError]: cannot parse Lipschitz constant {raw!r}" in capsys.readouterr().err

    def test_constant_beyond_float_range_exits_11(self, capsys, y_path):
        # Python reads the literal 1e400 as inf
        assert main(["stop", y_path, "--payoff", "x1; 1e400"]) == 11
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
