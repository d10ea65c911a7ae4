import json
from types import SimpleNamespace

import pytest

from hardcoreboost import experiments
from hardcoreboost.cli import run

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
        rows = [line.split(",") for line in trace.read_text().strip().splitlines()[1:]]
        # the start and one row per step, each with the gradient taken there
        # except the last iterate's
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert all(row[3] != "" for row in rows[:3]) and rows[3][3] == ""
        assert report["objective"] == min(float(row[1]) for row in rows)


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
        ],
        ids=["no-stages", "scalar-stages"],
    )
    def test_malformed_config_domain_error(self, capsys, tmp_path, cfg, message):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["sweep", "--config", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"{cfg_path}: {message}"}

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
