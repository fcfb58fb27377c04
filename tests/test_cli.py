"""End-to-end CLI tests: exit codes, artifacts, and determinism."""

import json
import re
import time

import pytest
import yaml

from ns2dsens import cli, runconfig
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

    @pytest.mark.parametrize("overrides, block", [
        ({"physics": {"nu1": 0.01, "mu": 0.5,
                      "interpolant": {"kind": "box_average", "boxes": 0}}}, "physics.interpolant"),
        ({"physics": {"nu1": 0.01, "mu": 0.5,
                      "interpolant": {"kind": "box_average", "boxes": -4}}}, "physics.interpolant"),
        ({"physics": {"nu1": 0.01, "mu": 0.5,
                      "interpolant": {"kind": "spectral_projection", "modes": 0}}},
         "physics.interpolant"),
        ({"initial": {"kind": "random_solenoidal", "kmin": 6, "kmax": 2}}, "initial"),
        ({"physics": {"nu1": 0.01, "forcing": {"kind": "random_solenoidal",
                                               "kmin": 6, "kmax": 2}}}, "physics.forcing"),
        ({"physics": {"nu1": 0.01, "forcing": {"kind": "grashof", "grashof": -5}}},
         "physics.forcing"),
        ({"experiment": {"trials": 0}}, "experiment.trials"),
        ({"experiment": {"ensemble": 0}}, "experiment.ensemble"),
        ({"physics": {"nu1": 0.01, "mu": 0.5,
                      "interpolant": {"kind": "spectral_projection", "modes": 2}},
          "experiment": {"nu_new": -0.01}}, "experiment"),
    ])
    def test_bad_block_value_is_exit_2(self, tmp_path, capsys, overrides, block):
        # Each value is rejected at load, with the block named and no echo written.
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert f"configuration error: {block}" in capsys.readouterr().err
        assert not (out / "config_echo.yaml").exists()

    @pytest.mark.parametrize("command, overrides, key", [
        ("simulate", {"solver": {"dt": 2e-3, "t_end": float("inf")}}, "solver.t_end"),
        ("simulate", {"physics": {"nu1": 0.01, "nu2": 10**400}}, "physics.nu2"),
        ("simulate", {"physics": {"nu1": float("nan")}}, "physics.nu1"),
        ("simulate", {"physics": {"nu1": 0.01, "forcing": {"kind": "random_solenoidal",
                                                           "l2_norm": float("nan")}}},
         "physics.forcing.l2_norm"),
        ("dq-sweep", {"experiment": {"ratio_window": [0.4, float("inf")]}},
         "experiment.ratio_window"),
    ])
    def test_non_finite_number_is_exit_2(self, tmp_path, capsys, command, overrides, key):
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert f"configuration error: {key}: expected a finite number" in capsys.readouterr().err
        assert not (out / "config_echo.yaml").exists()

    @pytest.mark.parametrize("command, experiment", [
        ("taylor-green", {"levels": 3}),
        ("taylor-green", {"norm": "l2_h"}),
        ("sync", {"trials": 5}),
        ("verify", {"ratio_window": [0.4, 0.6]}),
        ("switch", {"t_switch": 0.06, "nu_new": 0.008, "with_control": True}),
        *(("simulate", {key: value}) for key, value in [
            ("levels", 2), ("deltas", [1e-3]), ("norm", "l2_v"), ("ratio_window", [0.4, 0.6]),
            ("decay_threshold", 0.5), ("with_control", False), ("control_floor", 0.2),
            ("t_switch", 0.05), ("nu_new", 0.008), ("trials", 5), ("ensemble", 5),
        ]),
    ])
    def test_unread_experiment_key_is_exit_2(self, tmp_path, capsys, command, experiment):
        cfg = _write_config(tmp_path, experiment=experiment)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: '{command}' does not read experiment." in err
        assert not (out / "config_echo.yaml").exists()

    def test_kind_conflict_is_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, system={"kind": "da"})
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "system.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, key", [
        ("switch", {"experiment": {"t_switch": 0.06}}, "experiment.nu_new"),
        ("switch", {"experiment": {"nu_new": 0.008}}, "experiment.t_switch"),
        ("simulate", {"system": {"kind": "nse_sens"}}, "system.kind"),
        ("switch", {"system": {"kind": "nse"},
                    "experiment": {"t_switch": 0.06, "nu_new": 0.008}}, "system.kind"),
    ])
    def test_missing_key_or_kind_conflict_writes_no_echo(
        self, tmp_path, capsys, command, overrides, key
    ):
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert key in capsys.readouterr().err
        assert not (out / "config_echo.yaml").exists()

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
        blowup = json.loads((out / "blowup_report.json").read_text(encoding="utf-8"))
        assert re.fullmatch(r"[0-9a-f]{16}", blowup["config_digest"])
        assert any(w.startswith("CFLWarning: ") for w in blowup["warnings"])
        assert "blow-up" in capsys.readouterr().err

    @pytest.mark.parametrize("command, experiment, message", [
        ("dq-sweep", {"levels": 0}, "levels"),
        ("dq-sweep", {"deltas": [1e-3, 2e-3]}, "strictly decreasing"),
        ("dq-sweep", {"levels": 2, "deltas": [2e-3, 1e-3]}, "not both"),
        ("switch", {"t_switch": 0.03, "nu_new": 0.008}, "sample time"),
    ])
    def test_bad_sweep_or_switch_parameters_are_exit_2(
        self, tmp_path, capsys, command, experiment, message
    ):
        cfg = _write_config(tmp_path, experiment=experiment)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", [16, 30])
    def test_verify_with_config(self, tmp_path, n):
        # n = 30 is not divisible by 4: the box-average bound takes 2 boxes.
        cfg = _write_config(
            tmp_path,
            grid={"n": n},
            solver={"dt": 1e-3, "t_end": 0.25, "sample_every": 25},
            experiment={"trials": 10, "ensemble": 6},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["identity_suite"] is True
        assert report["verdicts"]["interpolant_bound_box_average"] is True


_NUDGED = {"nu1": 0.01, "mu": 5.0,
           "interpolant": {"kind": "spectral_projection", "modes": 4}}
_ORACLE_SOLVER = {"dt": 1e-3, "t_end": 0.25, "sample_every": 25}

# A small config for each command.
_COMMAND_CONFIGS = {
    "simulate": {},
    "assimilate": {"physics": _NUDGED},
    "sensitivity": {},
    "dq-sweep": {"experiment": {"levels": 2}},
    "da-dq-sweep": {"physics": {**_NUDGED, "mu": 1.0}, "experiment": {"levels": 2}},
    "sync": {"physics": _NUDGED, "experiment": {"with_control": True}},
    "switch": {"physics": {**_NUDGED, "mu": 1.0},
               "solver": {"dt": 2e-3, "t_end": 0.1, "sample_every": 5},
               "experiment": {"t_switch": 0.05, "nu_new": 0.008}},
    "taylor-green": {"solver": _ORACLE_SOLVER},
    "verify": {"solver": _ORACLE_SOLVER, "experiment": {"trials": 10, "ensemble": 6}},
}


def _report(tmp_path, command, out="out", seed=None, **overrides):
    cfg = _write_config(tmp_path, **overrides)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) in (0, 1)
    return json.loads((tmp_path / out / "report.json").read_text())


class TestReports:
    def test_every_command_has_a_config(self):
        assert set(_COMMAND_CONFIGS) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_command_writes_a_full_report(self, tmp_path, command):
        report = _report(tmp_path, command, **_COMMAND_CONFIGS[command])
        assert re.fullmatch(r"[0-9a-f]{16}", report["config_digest"])
        assert report["runtime_seconds"] > 0
        assert isinstance(report["data"]["warnings"], list)

    def test_simulate_digest_tells_seeds_apart(self, tmp_path):
        random = {"initial": {"kind": "random_solenoidal"}}
        digests = {
            _report(tmp_path, "simulate", out=f"s{seed}", seed=seed, **random)["config_digest"]
            for seed in (1, 2)
        }
        assert len(digests) == 2 and "" not in digests

    def test_single_run_digest_covers_linear_only(self, tmp_path):
        digests = {
            _report(tmp_path, "simulate", out=str(flag),
                    system={"linear_only": flag})["config_digest"]
            for flag in (False, True)
        }
        assert len(digests) == 2

    def test_repeated_run_into_another_out_keeps_the_digest(self, tmp_path):
        a, b = (_report(tmp_path, "sync", out=out, **_COMMAND_CONFIGS["sync"])
                for out in ("a", "b"))
        assert a.pop("runtime_seconds") > 0 and b.pop("runtime_seconds") > 0
        assert a == b

    def test_inadmissible_gain_warning_is_recorded(self, tmp_path):
        physics = {**_NUDGED, "mu": 60.0, "allow_inadmissible": True}
        report = _report(tmp_path, "assimilate", physics=physics)
        assert any(
            w.startswith("AdmissibilityWarning: ") for w in report["data"]["warnings"]
        )

    def test_verify_runtime_covers_the_bound_ensembles(self, tmp_path, monkeypatch):
        def slow(*args, **kwargs):
            time.sleep(0.1)
            return verify_bound(*args, **kwargs)

        verify_bound = cli.verify_bound
        monkeypatch.setattr(cli, "verify_bound", slow)
        report = _report(tmp_path, "verify", **_COMMAND_CONFIGS["verify"])
        assert report["runtime_seconds"] >= 0.2


def _without_runtimes(report):
    """report with its runtimes dropped, at any depth."""
    if isinstance(report, dict):
        return {k: _without_runtimes(v) for k, v in report.items()
                if k not in ("runtime_seconds", "timings")}
    if isinstance(report, list):
        return [_without_runtimes(v) for v in report]
    return report


# Each experiment default of a command's runner, spelt out.  The runner's
# signature holds it; the CLI passes on only the keys a config sets.
_SPELT_DEFAULTS = {
    "dq-sweep": {"levels": 5, "norm": "l2_v"},
    "da-dq-sweep": {"levels": 5, "norm": "l2_v"},
    "sync": {"decay_threshold": 1e-3, "with_control": True, "control_floor": 0.1},
    "taylor-green": {"ratio_window": [0.4, 0.6]},
    "verify": {"trials": 100, "ensemble": 100},
}


class TestExperimentKeys:
    def test_commands_read_every_experiment_key(self):
        read = {key for _, keys, _, _ in cli._COMMANDS.values() for key in keys}
        assert read | set(runconfig.SWEEP_KEYS) == set(runconfig._EXPERIMENT)

    @pytest.mark.parametrize("command", sorted(_SPELT_DEFAULTS))
    def test_spelt_defaults_give_the_same_report(self, tmp_path, command):
        overrides = {k: v for k, v in _COMMAND_CONFIGS[command].items() if k != "experiment"}
        omitted = _report(tmp_path, command, out="omitted", **overrides)
        spelt = _report(tmp_path, command, out="spelt", **overrides,
                        experiment=_SPELT_DEFAULTS[command])
        assert _without_runtimes(spelt) == _without_runtimes(omitted)
