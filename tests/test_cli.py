import json

import pytest

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
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["saturated"] for r in rows] == [False, False, True]
