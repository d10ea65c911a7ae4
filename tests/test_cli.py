import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardcoreboost import experiments
from hardcoreboost.cli import build_parser, run

THREE_POINT_CSV = "f1,label\n0.5,1\n0.5,-1\n1.0,1\n"


@pytest.fixture
def three_point(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(THREE_POINT_CSV)
    return path


class TestExitCodes:
    def test_bounds_success(self, capsys):
        code = run(
            "bounds --m 100 --n 2 --delta 0.1 --loss hinge --no-timestamp".split()
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] > 0

    def test_bounds_flags_an_invalid_core_term(self, capsys):
        # 12 * 1 / 2 core points are too few for the core term's own
        # precondition, so the report may not call m large enough
        code = run(
            "bounds --m 12 --n 2 --delta 0.08 --mu-core 1 --c 1 --loss hinge"
            " --no-timestamp".split()
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"m_large_enough": false' in out
        assert json.loads(out)["preconditions"]["m_large_enough"] is False

    def test_missing_dataset_argument_usage_error(self, capsys):
        code = run(["train"])
        assert code == 2

    def test_unknown_subcommand_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_missing_file_domain_error(self, capsys, tmp_path):
        code = run(["train", str(tmp_path / "absent.csv"), "--class", "proj:1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_bad_loss_domain_error(self, capsys, three_point):
        code = run(["train", str(three_point), "--class", "proj:1", "--loss", "square"])
        assert code == 1

    def test_nan_cone_weight_domain_error(self, capsys, three_point):
        code = run(["train", str(three_point), "--class", "proj:1", "--loss", "cone:nan,1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "UnsupportedLossError" and "finite" in err["message"]

    @pytest.mark.parametrize("command", [["train"], ["hardcore", "--seed", "3"]])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("f1,label\n0.5,1\n0.5,1.9\n", "labels must be"),
            ("f1,f2,label\n0.5,0.5,1\n0.5,-1\n", "bad.csv: line 3: the number of columns is 2, not 3"),
            ("f1,label\n", "no data rows"),
            ("f1,label\n0.5,1\n0.5,x\n", "bad.csv: line 3: could not convert string 'x'"),
            ("f1,label,weight\n0.5,1,nan\n0.5,-1,1.0\n", "weights must be finite"),
        ],
        ids=["fractional-label", "ragged-row", "header-only", "non-numeric-line", "nan-weight"],
    )
    def test_malformed_dataset_domain_error(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = run([command[0], str(path), "--class", "proj:1", *command[1:]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and message in err["message"]
        assert "usecols" not in err["message"]


    @pytest.mark.parametrize("command", [["train"], ["hardcore", "--seed", "3"]])
    def test_nan_lattice_instance_domain_error(self, capsys, tmp_path, command):
        path = tmp_path / "nx.csv"
        path.write_text("f1,label\n0.5,1\nnan,-1\n")
        code = run([command[0], str(path), "--class", "lattice:1x1", *command[1:]])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "NaN" in err["message"]


class TestHardcoreCommand:
    def test_three_point_certificate(self, capsys, three_point):
        code = run(
            ["hardcore", str(three_point), "--class", "proj:1", "--seed", "3",
             "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["core"] == [0, 1, 2]
        assert report["verification"]["dichotomy_violations"] == 0

    def test_removed_debug_flag_is_a_usage_error(self, capsys, three_point):
        code = run(
            ["hardcore", str(three_point), "--class", "proj:1", "--seed", "3", "--dump-lp"]
        )
        assert code == 2
        assert "--dump-lp" in capsys.readouterr().err

    def test_atomic_output_file(self, capsys, three_point, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            ["hardcore", str(three_point), "--class", "proj:1", "--seed", "3",
             "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["p"]) == 3
        assert not list(tmp_path.glob(".hcb-*"))  # no temp residue

    def test_subnormal_feature_keeps_the_cli_contract(self, tmp_path):
        # the core LP's row dual, undone by the row scaling 2^1073 alone,
        # overflowed into a warning and an inf separator
        path = tmp_path / "subnormal.csv"
        path.write_text("f1,label\n-5e-324,-1\n")
        _assert_cli_contract(
            ["hardcore", str(path), "--class", "proj:1", "--seed", "0", "--no-timestamp"]
        )


class TestParser:
    def test_one_parser_parses_as_a_fresh_one(self, capsys, three_point, tmp_path):
        # run parses with the parser it builds once; after a train, a hardcore
        # and a failing bounds call it still parses each command as a new one
        assert build_parser() is build_parser()
        assert run(["train", str(three_point), "--class", "proj:1", "--no-timestamp"]) == 0
        assert run(["hardcore", str(three_point), "--class", "proj:1", "--seed", "3",
                    "--no-timestamp"]) == 0
        assert run("bounds --m 0 --n 2 --delta 0.1 --loss exp".split()) == 1
        capsys.readouterr()
        fresh = build_parser.__wrapped__()
        for argv in (
            ["train", str(three_point), "--class", "proj:1", "--loss", "logistic",
             "--method", "sub", "--trace", str(tmp_path / "t.csv")],
            ["hardcore", str(three_point), "--class", "proj:1", "--seed", "3"],
            "bounds --m 0 --n 2 --delta 0.1 --loss exp".split(),
            "bounds --m 10 --n 2 --delta 0.1 --loss hinge --from-certificate c.json".split(),
            "impossibility --depth 2 --m 10 --seed 1".split(),
            ["sweep", "--config", "cfg.json", "--out", "curve.csv", "--no-timestamp"],
        ):
            assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


class TestTrainCommand:
    def test_train_with_trace(self, capsys, three_point, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run(
            ["train", str(three_point), "--class", "proj:1", "--loss", "exp",
             "--method", "coord", "--max-iters", "50", "--trace", str(trace),
             "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["objective"] == pytest.approx(0.87024, abs=1e-4)
        # every step makes at least one slope pass in its line search
        assert report["slope_evaluations"] >= report["iterations"] - 1 > 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,l1_norm,grad_sup_norm"
        assert len(lines) >= 2

    def test_subgradient_trace_has_one_row_per_iterate(self, capsys, three_point, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run(
            ["train", str(three_point), "--class", "proj:1", "--loss", "hinge",
             "--method", "sub", "--max-iters", "3", "--trace", str(trace),
             "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["iterations"] == 3 and report["stop_reason"] == "iterations"
        assert report["slope_evaluations"] == 0  # subgradient descent has no line search
        rows = [line.split(",") for line in trace.read_text().strip().splitlines()[1:]]
        # the start and one row per step, each with the gradient taken there
        # except the last iterate's
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert all(row[3] != "" for row in rows[:3]) and rows[3][3] == ""
        assert report["objective"] == min(float(row[1]) for row in rows)

    def test_non_finite_report_writes_no_trace(self, capsys, tmp_path):
        # phi(0) = c1 ln 2 + c2 e^(ln(DBL_MAX / c2) - 1) passes the largest
        # double, and the duplicated point's gradient is 0 at the start, so the
        # objective is +inf; the report is a domain error, and neither it nor
        # the trace is written
        data = tmp_path / "duplicated.csv"
        data.write_text("f1,label\n1.0,1\n1.0,-1\n")
        trace, out = tmp_path / "trace.csv", tmp_path / "report.json"
        code = run(
            ["train", str(data), "--class", "proj:1", "--loss", "cone:1.7e308,1.7e308",
             "--method", "coord", "--max-iters", "3",
             "--trace", str(trace), "--out", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not trace.exists() and not out.exists()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "not JSON compliant" in err["message"]


    @pytest.mark.parametrize("flags", [
        ["--step-scale", "nan"], ["--step-scale", "inf"], ["--step-scale", "-1"],
        ["--step-scale", "0"],
    ], ids=" ".join)
    def test_bad_step_scale_is_a_domain_error(self, capsys, three_point, tmp_path, flags):
        out = tmp_path / "report.json"
        code = run(["train", str(three_point), "--class", "proj:1", "--loss", "hinge",
                    "--method", "sub", *flags, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "step_scale" in err["message"]


class TestDeterminism:
    def test_byte_identical_reports(self, three_point, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(
                ["hardcore", str(three_point), "--class", "proj:1", "--seed", "7",
                 "--out", str(out), "--no-timestamp"]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_timestamp_present_by_default(self, capsys, three_point):
        assert run(["hardcore", str(three_point), "--class", "proj:1", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "timestamp" in report


class TestSweepCommand:
    def test_curve_csv(self, tmp_path):
        cfg = {
            "world": {"cell_probs": [1.0, 0.0]},
            "stages": [
                {"m": 50, "class_index": 1, "epsilon": 0.01},
                {"m": 200, "class_index": 2, "epsilon": 0.002},
            ],
            "seed": 3,
            "replications": 2,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "curve.csv"
        code = run(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "stage,m,class_size,epsilon,excess_risk_median,"
            "excess_risk_p90,replication_count"
        )
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"world": {"cell_probs": [1.0, 0.0]}, "seed": 3}, "missing key 'stages'"),
            ({"world": {"cell_probs": [1.0, 0.0]}, "seed": 3, "stages": 5},
             "key 'stages' has an ill-typed value 5"),
            ({"world": {"cell_probs": [1.0, 0.0]}, "seed": 3, "replications": 2.7,
              "stages": [{"m": 50, "class_index": 1, "epsilon": 0.01}]},
             "key 'replications' has an ill-typed value 2.7"),
            ({"world": {"cell_probs": [1.0, 0.0]}, "seed": True,
              "stages": [{"m": 50, "class_index": 1, "epsilon": 0.01}]},
             "key 'seed' has an ill-typed value True"),
            ({"world": {"cell_probs": [1.0, 0.0]}, "seed": 3,
              "stages": [{"m": 50.0, "class_index": 1, "epsilon": 0.01}]},
             "key 'm' has an ill-typed value 50.0"),
            ({"world": {"cell_probs": [1.0, 0.0]}, "seed": 3,
              "stages": [{"m": 50, "class_index": "1", "epsilon": 0.01}]},
             "key 'class_index' has an ill-typed value '1'"),
        ],
        ids=["no-stages", "scalar-stages", "fractional-replications", "boolean-seed",
             "float-m", "string-class-index"],
    )
    def test_malformed_config_domain_error(self, capsys, tmp_path, cfg, message):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["sweep", "--config", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"{cfg_path}: {message}"}

    @pytest.mark.parametrize("epsilon", [-0.5, math.nan])
    def test_unreachable_epsilon_is_rejected(self, capsys, tmp_path, epsilon):
        # every replication would miss its target and the row would read nan,nan,0
        cfg = {
            "world": {"cell_probs": [0.8, 0.2]},
            "stages": [{"m": 50, "class_index": 1, "epsilon": epsilon}],
            "seed": 3,
            "replications": 2,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["sweep", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "epsilon" in err["message"]

    def test_stage_without_replications_writes_nan(self, tmp_path, monkeypatch):
        # every replication misses its target, so the stage keeps no risks
        monkeypatch.setattr(
            experiments, "coordinate_descent",
            lambda fm, loss, cfg, target: SimpleNamespace(objective=target + 1.0),
        )
        cfg = {
            "world": {"cell_probs": [0.8, 0.2]},
            "stages": [{"m": 50, "class_index": 1, "epsilon": 0.01}],
            "seed": 3,
            "replications": 2,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "curve.csv"
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_text().strip().splitlines()[1].endswith(",nan,nan,0")


class TestBoundsCommand:
    @pytest.mark.parametrize(
        "extra, message",
        [(["--m", "0", "--n", "8"], "m and n"), (["--m", "100", "--n", "0"], "m and n"),
         (["--m", "100", "--n", "8", "--epsilon", "nan"], "epsilon"),
         (["--m", "100", "--n", "8", "--c", "nan"], "positive"),
         (["--m", "100", "--n", "8", "--mu-core", "0.5", "--approx-error", "nan"],
          "approx_error")],
        ids=["m0", "n0", "epsilon-nan", "c-nan", "approx-error-nan"],
    )
    def test_bad_inputs_domain_error(self, capsys, extra, message):
        code = run(["bounds", *extra, "--delta", "0.1", "--loss", "exp", "--no-timestamp"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and message in err["message"]

    @pytest.mark.parametrize(
        "extra", [["--approx-error", "inf"], ["--c", "inf"], ["--b", "inf"]],
        ids=["approx-error-inf", "c-inf", "b-inf"],
    )
    def test_non_finite_output_is_a_domain_error(self, capsys, tmp_path, extra):
        # JSON has no Infinity: an infinite bound exits 1 and writes nothing
        out = tmp_path / "bounds.json"
        code = run(["bounds", "--m", "2", "--n", "2", "--delta", "0.1", "--loss", "exp",
                    "--mu-core", "1", *extra, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "not JSON compliant" in err["message"]
        assert run(["bounds", "--m", "2", "--n", "2", "--delta", "0.1", "--loss", "exp",
                    "--mu-core", "1", *extra]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--m", "--n"])
    def test_integer_too_large_for_a_float_domain_error(self, capsys, flag):
        sizes = {"--m": "1000", "--n": "2", flag: "1" + "0" * 400}
        code = run(["bounds", *[t for kv in sizes.items() for t in kv],
                    "--delta", "0.1", "--loss", "exp", "--no-timestamp"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "OverflowError" and "too large" in err["message"]

    def test_certificate_without_p_domain_error(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"core": [0]}))
        code = run(
            ["bounds", "--m", "100", "--n", "2", "--delta", "0.1", "--loss", "hinge",
             "--from-certificate", str(cert)]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"{cert}: missing key 'core_mass'"}

    def test_certificate_core_mass_is_weighted(self, capsys, tmp_path):
        # the core {0, 1} holds 2 of 3 points but only 0.1 of the mass
        data = tmp_path / "weighted.csv"
        data.write_text("f1,f2,label,weight\n1,0,1,0.05\n1,0,-1,0.05\n0,1,1,0.9\n")
        cert_path = tmp_path / "cert.json"
        assert run(["hardcore", str(data), "--class", "proj:2", "--seed", "0",
                    "--out", str(cert_path), "--no-timestamp"]) == 0
        cert = json.loads(cert_path.read_text())
        assert cert["core"] == [0, 1]
        assert cert["core_mass"] == pytest.approx(0.1, abs=1e-15)
        code = run(["bounds", "--m", "100", "--n", "2", "--delta", "0.1", "--loss", "hinge",
                    "--from-certificate", str(cert_path), "--no-timestamp"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"]["mu_core"] == cert["core_mass"]


class TestImpossibilityCommand:
    def test_report_round_trip(self, capsys):
        code = run(
            "impossibility --depth 4 --m 15 --seed 2 --no-timestamp".split()
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["depth"] == 4
        assert len(report["rows"]) == 6

    @pytest.mark.parametrize("scales", ["nan,inf", "1,nan", "2,-inf"])
    def test_non_finite_scales_domain_error(self, capsys, scales):
        code = run(["impossibility", "--depth", "3", "--m", "20", "--scales", scales,
                    "--loss", "exp", "--seed", "0", "--no-timestamp"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "scales must be finite" in err["message"]

    def test_saturated_rows_are_marked(self, capsys):
        code = run(
            "impossibility --depth 10 --m 20 --seed 0 --scales 1,32,4194304 "
            "--no-timestamp".split()
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["saturated"] for r in report["rows"]] == [False, False, True]
        # both keys carry the one misclassified world mass
        assert report["misclassified_mass"] == report["classification_risk"] > 0


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _assert_cli_contract(argv):
    """Exit 0 with JSON on stdout and nothing on stderr, or exit 1 with one
    {"error", "message"} line on stderr and nothing on stdout; no warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    # every drawn value passes argparse's own checks, so exit 2 is a violation
    assert code in (0, 1), (code, err)
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_not_json)
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert set(json.loads(err, parse_constant=_not_json)) == {"error", "message"}


# --flag=value keeps argparse from reading a negative value such as -inf as a flag
_INTS = st.one_of(
    st.integers(-2, 3), st.integers(4, 10**7), st.sampled_from([10**400, -(10**400)])
)
_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1e300, 0.0, -0.0, 0.5]),
    st.floats(),
).map(repr)
_LOSS_SPECS = st.sampled_from([
    "exp", "logistic", "hinge", "cone:1,1", "cone:0.3,2.5", "cone:0.5,0", "cone:0,2",
    "cone:1,1e5", "cone:1,1e300",
    "square", "", "cone:1", "cone:-1,2", "cone:0,0", "cone:nan,1", "cone:1,inf",
])


@st.composite
def _bounds_argv(draw):
    argv = ["bounds", f"--m={draw(_INTS)}", f"--n={draw(_INTS)}",
            f"--delta={draw(_FLOATS)}", f"--loss={draw(_LOSS_SPECS)}", "--no-timestamp"]
    for flag in ("--epsilon", "--mu-core", "--c", "--b", "--approx-error"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_FLOATS)}")
    return argv


@settings(max_examples=300, deadline=None)
@given(_bounds_argv())
@example(["bounds", "--m=1000", "--n=2", "--delta=0.1", "--loss=cone:1,1e5", "--b=800",
          "--no-timestamp"])
@example(["bounds", "--m=1000", "--n=2", "--delta=5e-324", "--loss=exp", "--no-timestamp"])
@example(["bounds", "--m=1", "--n=1", "--delta=1e-300", "--loss=exp", "--no-timestamp",
          "--mu-core=5e-324"])
@example(["bounds", "--m=1", "--n=1", "--delta=1e-300", "--loss=cone:0,2", "--b=inf",
          "--no-timestamp"])
def test_bounds_keeps_the_cli_contract(argv):
    _assert_cli_contract(argv)


def test_bounds_with_an_overflowing_cone_value_is_one_error_line():
    # c1 softplus(b) passes the largest double for c1 = 1e300 and b = 1e10
    argv = ["bounds", "--m=1000", "--n=2", "--delta=0.1", "--loss=cone:1e300,1", "--b=1e10",
            "--no-timestamp"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(argv)
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1
    assert set(json.loads(err.getvalue())) == {"error", "message"}


@settings(max_examples=40, deadline=None)
@given(st.lists(_FLOATS, min_size=1, max_size=3), _LOSS_SPECS)
@example(["8.98846567431158e+307"], "exp")  # 2^1023: the margins overflow to +-inf
def test_impossibility_keeps_the_cli_contract(scales, loss):
    _assert_cli_contract(["impossibility", "--depth=3", "--m=20", f"--scales={','.join(scales)}",
                          f"--loss={loss}", "--seed=0", "--no-timestamp"])
