"""End-to-end CLI tests: exit codes, artifacts, and determinism."""

import json

import pytest
import yaml

from ns2dsens.cli import main
from ns2dsens.spectral import GridSpec
from ns2dsens.storage import read_snapshot


def _write_config(tmp_path, name="run.yaml", **overrides):
    data = {
        "grid": {"n": 16},
        "physics": {"nu1": 0.01},
        "solver": {"dt": 2e-3, "t_end": 0.1, "sample_every": 10},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


class TestSimulate:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["verdicts"]["apriori_bounds"] is True
        assert report["runtime_seconds"] > 0
        csv_lines = (out / "diagnostics.csv").read_text().splitlines()
        assert csv_lines[0] == "t,field,l2,h1,h2"
        field, t = read_snapshot(out / "snapshot_u.bin", grid=GridSpec(16))
        assert t == pytest.approx(0.1)
        echo = yaml.safe_load((out / "config_echo.yaml").read_text())
        assert echo["physics"]["nu2"] == 0.01

    def test_summary_printed_unless_quiet(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        loud = capsys.readouterr().out
        assert "simulate: PASS" in loud
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--quiet"])
        assert capsys.readouterr().out == ""

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            physics={"nu1": 0.01,
                     "forcing": {"kind": "random_solenoidal", "l2_norm": 1.0}},
            initial={"kind": "random_solenoidal"},
            seed=12,
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--quiet"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--quiet"]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == \
            (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "snapshot_u.bin").read_bytes() == \
            (out2 / "snapshot_u.bin").read_bytes()

    def test_seed_override_changes_run(self, tmp_path):
        cfg = _write_config(tmp_path, initial={"kind": "random_solenoidal"})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet",
              "--seed", "77"])
        assert (out1 / "diagnostics.csv").read_bytes() != \
            (out2 / "diagnostics.csv").read_bytes()


class TestExitCodes:
    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--config" in err

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, bogus_block={"x": 1})
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "bogus_block" in capsys.readouterr().err

    def test_kind_conflict_is_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, system={"kind": "da"})
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "system.kind" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::ns2dsens.timestepper.CFLWarning")
    def test_blowup_is_exit_3(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            physics={"nu1": 1e-4},
            solver={"dt": 0.01, "t_end": 0.2, "sample_every": 1},
            initial={"kind": "random_solenoidal", "l2_norm": 20.0, "kmax": 4},
        )
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 3
        assert (out / "blowup_report.json").exists()
        assert "blow-up" in capsys.readouterr().err

    def test_failed_verdict_is_exit_1(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            experiment={"deltas": [2.5e-3]},
        )
        code = main(["dq-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1


class TestOtherCommands:
    def test_assimilate(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            physics={"nu1": 0.01, "mu": 5.0,
                     "interpolant": {"kind": "spectral_projection", "modes": 4}},
        )
        out = tmp_path / "out"
        assert main(["assimilate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "final_difference_l2" in report["data"]
        assert (out / "snapshot_v.bin").exists()

    def test_sensitivity(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "snapshot_ut.bin").exists()

    def test_dq_sweep(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            solver={"dt": 2e-3, "t_end": 0.1, "sample_every": 5},
            experiment={"levels": 2, "ratio_window": [0.4, 0.6]},
        )
        out = tmp_path / "out"
        assert main(["dq-sweep", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["table"]) == 2
        assert report["verdicts"]["errors_strictly_decreasing"] is True

    def test_da_dq_sweep(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            physics={"nu1": 0.01, "mu": 1.0,
                     "interpolant": {"kind": "spectral_projection", "modes": 4}},
            solver={"dt": 2e-3, "t_end": 0.1, "sample_every": 5},
            experiment={"levels": 2},
        )
        out = tmp_path / "out"
        assert main(["da-dq-sweep", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0

    def test_sync(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            physics={"nu1": 0.01, "mu": 5.0,
                     "interpolant": {"kind": "spectral_projection", "modes": 4}},
            solver={"dt": 2e-3, "t_end": 1.0, "sample_every": 50},
            initial={"kind": "random_solenoidal", "kmax": 4, "l2_norm": 0.5},
            experiment={"decay_threshold": 0.5, "with_control": False},
        )
        out = tmp_path / "out"
        assert main(["sync", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["synchronization_decay"] is True
        assert (out / "diagnostics.csv").exists()

    def test_switch(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            physics={"nu1": 0.01, "mu": 1.0,
                     "interpolant": {"kind": "spectral_projection", "modes": 4}},
            solver={"dt": 2e-3, "t_end": 0.1, "sample_every": 5},
            experiment={"t_switch": 0.05, "nu_new": 0.008},
        )
        out = tmp_path / "out"
        assert main(["switch", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["no_blowup"] is True

    def test_switch_missing_params_is_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["switch", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "t_switch" in capsys.readouterr().err

    def test_taylor_green_with_config(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            solver={"dt": 1e-3, "t_end": 0.25, "sample_every": 25},
        )
        out = tmp_path / "out"
        assert main(["taylor-green", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0

    def test_verify_with_config(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            solver={"dt": 1e-3, "t_end": 0.25, "sample_every": 25},
            experiment={"trials": 10, "ensemble": 6},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["identity_suite"] is True
        assert report["verdicts"]["interpolant_bound_box_average"] is True
