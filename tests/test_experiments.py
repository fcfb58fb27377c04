"""Experiment runner tests at small scale; closed-form Taylor-Green oracles."""

import json

import numpy as np
import pytest

from ns2dsens.diagnostics import BoundCheck, grashof
from ns2dsens.dynamics import PhysicsParams
from ns2dsens.experiments import (
    DQSweepSpec,
    ExperimentReport,
    forcing_for_grashof,
    run_da_dq_convergence,
    run_da_sync,
    run_dq_convergence,
    run_reynolds_switch,
    run_taylor_green_suite,
    taylor_green_flow,
    taylor_green_quotient,
    taylor_green_sensitivity,
    trajectory_distance,
)
from ns2dsens.interpolants import SpectralProjection
from ns2dsens.spectral import GridSpec, SpectralField, norm, random_field, taylor_green
from ns2dsens.timestepper import AdmissibilityError, SolverConfig, integrate
from ns2dsens.dynamics import SystemKind, SystemSpec

GRID = GridSpec(16)
NU = 0.01
CFG = SolverConfig(dt=2e-3, t_end=0.25, sample_every=5)


class TestClosedForms:
    def test_flow_decay_norm(self):
        u = taylor_green_flow(GRID, NU, 0.5)
        expect = np.exp(-8 * np.pi**2 * NU * 0.5) / np.sqrt(2.0)
        assert norm(u) == pytest.approx(expect, rel=1e-13)

    def test_sensitivity_is_scaled_flow(self):
        t = 0.7
        s = taylor_green_sensitivity(GRID, NU, t)
        u = taylor_green_flow(GRID, NU, t)
        assert norm(s - (-8 * np.pi**2 * t) * u) < 1e-14

    def test_quotient_approaches_sensitivity(self):
        t = 1.0
        errs = [
            norm(taylor_green_quotient(GRID, NU, NU + d, t)
                 - taylor_green_sensitivity(GRID, NU, t))
            for d in (1e-3, 5e-4)
        ]
        assert 0.45 < errs[1] / errs[0] < 0.55

    def test_quotient_rejects_equal_viscosities(self):
        with pytest.raises(ValueError, match="distinct"):
            taylor_green_quotient(GRID, NU, NU, 1.0)


class TestForcingForGrashof:
    def test_hits_target(self):
        f = forcing_for_grashof(GRID, NU, 500.0, seed=2)
        assert grashof(norm(f), NU) == pytest.approx(500.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            forcing_for_grashof(GRID, NU, 0.0)


class TestTrajectoryDistance:
    def test_norm_reductions(self):
        tg = taylor_green(GRID)
        zero = SpectralField.zero(GRID)
        times = np.array([0.0, 0.5, 1.0])
        a = [tg, tg, tg]
        b = [zero, zero, zero]
        assert trajectory_distance(times, a, b, "l2_v") == pytest.approx(
            2 * np.pi, rel=1e-12
        )
        assert trajectory_distance(times, a, b, "l2_h") == pytest.approx(
            np.sqrt(0.5), rel=1e-12
        )
        assert trajectory_distance(times, a, b, "linf_h") == pytest.approx(
            np.sqrt(0.5), rel=1e-12
        )

    def test_unknown_norm(self):
        with pytest.raises(ValueError, match="trajectory norm"):
            trajectory_distance(np.array([0.0, 1.0]), [], [], "bogus")


class TestDQSweepSpec:
    def test_halving_factory(self):
        spec = DQSweepSpec.halving(NU, taylor_green(GRID), levels=3)
        assert spec.deltas == (NU / 2, NU / 4, NU / 8)
        assert spec.nu2_values == tuple(NU + d for d in spec.deltas)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="decreasing"):
            DQSweepSpec(NU, (1e-3, 2e-3), taylor_green(GRID))

    def test_rejects_outside_localization(self):
        with pytest.raises(ValueError, match="localization"):
            DQSweepSpec(NU, (0.6 * NU,), taylor_green(GRID))

    def test_boundary_delta_allowed(self):
        DQSweepSpec(NU, (0.5 * NU,), taylor_green(GRID))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            DQSweepSpec(NU, (1e-3,), taylor_green(GRID), norm="h3")


class TestExperimentReport:
    def test_passed_logic(self):
        ok = BoundCheck.from_inequality("a", 1.0, 2.0)
        bad = BoundCheck.from_inequality("b", 2.0, 1.0)
        assert ExperimentReport("x", {"v": True}, checks=(ok,)).passed
        assert not ExperimentReport("x", {"v": False}, checks=(ok,)).passed
        assert not ExperimentReport("x", {"v": True}, checks=(ok, bad)).passed

    def test_to_dict_is_json_safe_and_drops_artifacts(self):
        rep = ExperimentReport(
            "x",
            {"v": True},
            table=({"delta": np.float64(0.5), "ratio": None},),
            data={"arr": np.arange(3.0), "note": "fine"},
            checks=(BoundCheck.from_inequality("a", 1.0, 2.0),),
            artifacts={"trajectory": object()},
        )
        out = json.loads(json.dumps(rep.to_dict()))
        assert out["passed"] is True
        assert out["data"]["arr"] == [0.0, 1.0, 2.0]
        assert "artifacts" not in out

    def test_summary_lines_mention_failures(self):
        rep = ExperimentReport(
            "x", {"good": True, "broken": False},
            checks=(BoundCheck.from_inequality("c", 2.0, 1.0),),
        )
        text = "\n".join(rep.summary_lines())
        assert "x: FAIL" in text
        assert "[FAIL] broken" in text
        assert "[FAIL] c" in text


class TestDQConvergence:
    def test_taylor_green_sweep(self):
        spec = DQSweepSpec.halving(NU, taylor_green(GRID), levels=3)
        rep = run_dq_convergence(
            spec, PhysicsParams(NU, NU), CFG, ratio_window=(0.4, 0.6)
        )
        assert rep.passed
        assert rep.verdicts["errors_strictly_decreasing"]
        assert rep.verdicts["two_path_consistent"]
        assert len(rep.table) == 3
        assert rep.table[0]["ratio"] is None
        assert 0.4 <= rep.table[1]["ratio"] <= 0.6
        assert rep.data["integrator_tolerance"] > 0

    def test_single_delta_is_insufficient_for_rate(self):
        spec = DQSweepSpec(NU, (NU / 4,), taylor_green(GRID))
        rep = run_dq_convergence(spec, PhysicsParams(NU, NU), CFG)
        assert not rep.verdicts["sufficient_for_rate"]
        assert not rep.passed
        assert len(rep.table) == 1
        assert "errors_strictly_decreasing" not in rep.verdicts

    def test_viscosity_mismatch_rejected(self):
        spec = DQSweepSpec.halving(NU, taylor_green(GRID), levels=2)
        with pytest.raises(ValueError, match="disagrees"):
            run_dq_convergence(spec, PhysicsParams(0.02, 0.02), CFG)

    def test_digest_tracks_configuration(self):
        spec = DQSweepSpec(NU, (NU / 4,), taylor_green(GRID))
        a = run_dq_convergence(spec, PhysicsParams(NU, NU), CFG)
        b = run_dq_convergence(spec, PhysicsParams(NU, NU), CFG)
        cfg2 = SolverConfig(dt=1e-3, t_end=0.25, sample_every=10)
        c = run_dq_convergence(spec, PhysicsParams(NU, NU), cfg2)
        assert a.config_digest == b.config_digest
        assert a.config_digest != c.config_digest
        assert a.data["errors"] == b.data["errors"]

    def test_digest_hashes_initial_field_content(self):
        # Seeds 0 and 3 draw different fields of equal L2 norm.
        cfg = SolverConfig(dt=2e-3, t_end=0.02, sample_every=5)
        digests = {
            run_dq_convergence(
                DQSweepSpec(NU, (NU / 4,), random_field(GRID, seed=seed, l2_norm=1.0)),
                PhysicsParams(NU, NU),
                cfg,
            ).config_digest
            for seed in (0, 3)
        }
        assert len(digests) == 2


class TestDADQConvergence:
    INTERP = SpectralProjection(modes=4)

    def test_taylor_green_da_sweep(self):
        spec = DQSweepSpec.halving(NU, taylor_green(GRID), levels=3)
        p = PhysicsParams(NU, NU, mu=1.0, interp=self.INTERP)
        rep = run_da_dq_convergence(spec, p, CFG, ratio_window=(0.35, 0.65))
        assert rep.passed
        assert rep.data["strict_admissible"]

    def test_inadmissible_gain_aborts(self):
        spec = DQSweepSpec.halving(NU, taylor_green(GRID), levels=2)
        p = PhysicsParams(NU, NU, mu=50.0, interp=SpectralProjection(modes=2))
        with pytest.raises(AdmissibilityError, match="strict"):
            run_da_dq_convergence(spec, p, CFG)

    def test_zero_gain_reproduces_plain_sweep(self):
        u0 = taylor_green(GRID)
        spec = DQSweepSpec.halving(NU, u0, levels=2)
        plain = run_dq_convergence(spec, PhysicsParams(NU, NU), CFG)
        p0 = PhysicsParams(NU, NU, mu=0.0, interp=None)
        degen = run_da_dq_convergence(spec, p0, CFG, v0=u0)
        assert degen.data["errors"] == plain.data["errors"]
        assert degen.data["two_path_gaps"] == plain.data["two_path_gaps"]

    def test_synchronized_start_matches_plain_errors(self):
        u0 = taylor_green(GRID)
        spec = DQSweepSpec.halving(NU, u0, levels=2)
        plain = run_dq_convergence(spec, PhysicsParams(NU, NU), CFG)
        p = PhysicsParams(NU, NU, mu=1.0, interp=self.INTERP)
        synced = run_da_dq_convergence(spec, p, CFG, v0=u0)
        assert synced.data["errors"] == plain.data["errors"]


class TestDASync:
    def _params(self, mu):
        f = forcing_for_grashof(GRID, NU, 200.0, seed=5)
        interp = self.INTERP if mu > 0 else None
        return PhysicsParams(NU, NU, mu=mu, forcing=f, interp=interp)

    INTERP = SpectralProjection(modes=4)

    def test_synchronizes_with_gain(self):
        u0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
        v0 = random_field(GRID, seed=7, kmin=1, kmax=4, l2_norm=0.5)
        cfg = SolverConfig(dt=2e-3, t_end=1.0, sample_every=25)
        rep = run_da_sync(self._params(20.0), cfg, u0, v0, decay_threshold=0.05)
        assert rep.verdicts["synchronization_decay"]
        assert rep.verdicts["decay_slope_negative"]
        assert rep.data["log_slope"] < 0
        assert rep.data["decay_factor"] < 0.05

    def test_synchronized_start_stays_synchronized(self):
        u0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
        rep = run_da_sync(self._params(20.0), CFG, u0, u0)
        assert rep.data["decay_factor"] == 0.0
        assert rep.data["log_slope"] is None
        assert max(rep.data["difference_l2"]) < 1e-12

    def test_control_run_has_no_decay_verdict(self):
        u0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
        v0 = random_field(GRID, seed=7, kmin=1, kmax=4, l2_norm=0.5)
        rep = run_da_sync(self._params(0.0), CFG, u0, v0)
        assert "synchronization_decay" not in rep.verdicts
        assert "decay_slope_negative" not in rep.verdicts

    def test_with_control_compares(self):
        u0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
        v0 = random_field(GRID, seed=7, kmin=1, kmax=4, l2_norm=0.5)
        cfg = SolverConfig(dt=2e-3, t_end=1.0, sample_every=25)
        rep = run_da_sync(
            self._params(20.0), cfg, u0, v0,
            decay_threshold=0.05, with_control=True,
        )
        assert rep.verdicts["control_no_comparable_decay"]
        assert rep.data["control_decay_factor"] > rep.data["decay_factor"]
        assert "control" in rep.artifacts


class TestReynoldsSwitch:
    def _setup(self):
        f = forcing_for_grashof(GRID, NU, 200.0, seed=5)
        p = PhysicsParams(NU, NU, mu=1.0, forcing=f,
                          interp=SpectralProjection(modes=4))
        cfg = SolverConfig(dt=2e-3, t_end=0.5, sample_every=25)
        u0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
        return p, cfg, u0

    def test_switch_passes_piecewise_checks(self):
        p, cfg, u0 = self._setup()
        rep = run_reynolds_switch(p, cfg, t_switch=0.25, nu_new=0.005, u0=u0)
        assert rep.verdicts["no_blowup"]
        assert rep.verdicts["piecewise_apriori"]
        names = {c.name for c in rep.checks}
        assert any(n.startswith("pre_switch_") for n in names)
        assert any(n.startswith("post_switch_") for n in names)
        assert rep.table[0]["window"] == "pre"
        assert rep.table[1]["nu2"] == 0.005

    def test_noop_switch_bit_identical(self):
        p, cfg, u0 = self._setup()
        rep = run_reynolds_switch(p, cfg, t_switch=0.25, nu_new=p.nu2, u0=u0)
        from ns2dsens.timestepper import integrate as plain_integrate
        base = plain_integrate(
            SystemSpec(SystemKind.DA),
            {"u": u0, "v": SpectralField.zero(GRID)}, p, cfg,
        )
        traj = rep.artifacts["trajectory"]
        for name in ("u", "v"):
            for a, b in zip(traj.snapshots[name], base.snapshots[name]):
                assert np.array_equal(a.coeffs, b.coeffs)

    def test_validation(self):
        p, cfg, u0 = self._setup()
        with pytest.raises(ValueError, match="positive"):
            run_reynolds_switch(p, cfg, t_switch=0.25, nu_new=0.0, u0=u0)
        with pytest.raises(ValueError, match="inside"):
            run_reynolds_switch(p, cfg, t_switch=0.5, nu_new=0.005, u0=u0)
        with pytest.raises(ValueError, match="sample time"):
            run_reynolds_switch(p, cfg, t_switch=0.123, nu_new=0.005, u0=u0)

    def test_blowup_is_reported_not_raised(self):
        p = PhysicsParams(1e-4, 1e-4, mu=0.0)
        cfg = SolverConfig(dt=0.01, t_end=0.2, sample_every=1)
        u0 = random_field(GRID, seed=8, kmin=1, kmax=4, l2_norm=20.0)
        rep = run_reynolds_switch(p, cfg, t_switch=0.1, nu_new=5e-5, u0=u0, v0=u0)
        assert not rep.verdicts["no_blowup"]
        assert not rep.passed
        assert rep.data["blowup_time"] > 0
        assert "norm_history" in rep.data


class TestTaylorGreenSuite:
    def test_small_scale_suite_passes(self):
        cfg = SolverConfig(dt=1e-3, t_end=0.25, sample_every=25)
        rep = run_taylor_green_suite(cfg, grid=GRID, nu=NU)
        assert rep.passed
        assert rep.data["flow_max_rel_error"] < 1e-5
        assert rep.data["sensitivity_rel_error_at_T"] < 1e-4
        assert len(rep.data["dq_errors"]) == 2
        assert 0.4 <= rep.data["dq_ratios"][0] <= 0.6
        json.dumps(rep.to_dict())
