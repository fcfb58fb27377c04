"""Experiment runner tests at small scale; closed-form Taylor-Green oracles."""

import dataclasses
import inspect
import json
import re
import warnings
import weakref

import numpy as np
import pytest

from ns2dsens import diagnostics, experiments
from ns2dsens.diagnostics import SAMPLE_BLOCK, BoundCheck, check_apriori, grashof
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
)
from ns2dsens.interpolants import BoxAverage, SpectralProjection
from ns2dsens.spectral import (
    BandStack,
    GridSpec,
    SpectralField,
    band_half,
    norm,
    norms,
    random_field,
    taylor_green,
)
from ns2dsens.timestepper import AdmissibilityError, SolverConfig, integrate
from ns2dsens.dynamics import SystemKind, SystemSpec, without_nudging

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

    @pytest.mark.parametrize("nu1, deltas, initial, error, match", [
        (0.0, (1e-3,), "field", ValueError, "nu1 must be positive"),
        (NU, (), "field", ValueError, "at least one delta"),
        (NU, (2e-3, -1e-3), "field", ValueError, "deltas must be positive"),
        (NU, (1e-3,), "coeffs", TypeError, "initial must be a SpectralField"),
    ])
    def test_rejects_invalid_arguments(self, nu1, deltas, initial, error, match):
        u0 = taylor_green(GRID)
        with pytest.raises(error, match=match):
            DQSweepSpec(nu1, deltas, u0 if initial == "field" else u0.coeffs)


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

    @pytest.mark.parametrize("assimilated", [False, True])
    def test_each_accepted_row_is_checked_once(self, assimilated):
        # Copy 0 reads u1 and v1 and has no flow rows of its own, so the
        # batched run's checks certify u1 (v1) and each copy's u2_j (v2_j)
        # once each, and name no u2_0 or v2_0.
        spec = DQSweepSpec.halving(NU, taylor_green(GRID), levels=2)
        if assimilated:
            p = PhysicsParams(NU, NU, mu=1.0, interp=self.INTERP)
            rep = run_da_dq_convergence(spec, p, CFG)
        else:
            rep = run_dq_convergence(spec, PhysicsParams(NU, NU), CFG)
        names = [c.name for c in rep.checks]
        assert len(names) == len(set(names))
        checked = {re.sub(r"_(h1_sup|l2_sup|dissipation_integral)$", "", n) for n in names}
        flows = ("u1", "u2_1", "u2_2") + (("v1", "v2_1", "v2_2") if assimilated else ())
        assert checked == set(flows)

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

    @staticmethod
    def _control(p, cfg, u0, v0):
        """The zero-gain control, integrated on its own as the runner builds it."""
        return integrate(SystemSpec(SystemKind.DA), {"u": u0, "v": v0}, without_nudging(p), cfg)

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

    def test_blocked_gap_equals_unblocked(self):
        # 130 samples: full blocks of SAMPLE_BLOCK samples and a shorter tail.
        u0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
        v0 = random_field(GRID, seed=7, kmin=1, kmax=4, l2_norm=0.5)
        cfg = SolverConfig(dt=2e-3, t_end=129 * 2e-3)
        p = self._params(20.0)
        rep = run_da_sync(p, cfg, u0, v0, with_control=True)

        def whole(traj):
            assert traj.n_samples == 130 and 130 % SAMPLE_BLOCK
            u, v = traj.snapshots["u"].coeffs, traj.snapshots["v"].coeffs
            return norms(BandStack(GRID, u - v))[:, 0]

        assert np.array_equal(rep.data["difference_l2"], whole(rep.artifacts["trajectory"]))
        control = whole(self._control(p, cfg, u0, v0))
        assert np.array_equal(rep.data["control_difference_l2"], control)
        assert rep.data["control_decay_factor"] == control[-1] / control[0]

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
        gap = rep.data["control_difference_l2"]
        assert gap.shape == rep.data["difference_l2"].shape
        assert rep.data["control_decay_factor"] == gap[-1] / gap[0]
        assert set(rep.artifacts) == {"trajectory"}

    def test_gap_is_per_sample_norm_of_difference(self):
        # The gap sums |u - v|^2 on the band halves of the samples: the terms
        # of `norm` in another order, within TestNorms' 1e-14 relative budget.
        # A ratio of two such gaps spends two budgets plus its own rounding.
        u0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
        v0 = random_field(GRID, seed=7, kmin=1, kmax=4, l2_norm=0.5)
        cfg = SolverConfig(dt=2e-3, t_end=1.0, sample_every=25)
        p = self._params(20.0)
        rep = run_da_sync(p, cfg, u0, v0, decay_threshold=0.05, with_control=True)
        gaps = {}
        for key, traj in (
            ("trajectory", rep.artifacts["trajectory"]),
            ("control", self._control(p, cfg, u0, v0)),
        ):
            snaps = zip(traj.snapshots["u"], traj.snapshots["v"], strict=True)
            gaps[key] = np.array([norm(u - v) for u, v in snaps])
        assert rep.data["difference_l2"] == pytest.approx(gaps["trajectory"], rel=1e-14, abs=0.0)
        want = gaps["trajectory"][-1] / gaps["trajectory"][0]
        assert rep.data["decay_factor"] == pytest.approx(want, rel=3e-14)
        assert rep.verdicts["synchronization_decay"] == (want <= 0.05)
        assert rep.data["control_difference_l2"] == pytest.approx(
            gaps["control"], rel=1e-14, abs=0.0
        )
        control = gaps["control"][-1] / gaps["control"][0]
        assert rep.data["control_decay_factor"] == pytest.approx(control, rel=3e-14)
        assert rep.verdicts["control_no_comparable_decay"] == (control > 0.1)

    @staticmethod
    def _integration_starts(monkeypatch, p, cfg, u0, v0):
        """Run `sync` with its control; per integration, (gain, whether each
        earlier run's sample array is still alive) at its start, and the
        bytes of each run's sample array.  Only weak references are held."""
        arrays, starts, sizes = [], [], []

        def tracked(system, init, p, cfg, **kwargs):
            starts.append((p.mu, [ref() is not None for ref in arrays]))
            traj = integrate(system, init, p, cfg, **kwargs)
            samples = traj.snapshots["u"].coeffs.base
            arrays.append(weakref.ref(samples))
            sizes.append(samples.nbytes)
            return traj

        monkeypatch.setattr(experiments, "integrate", tracked)
        run_da_sync(p, cfg, u0, v0, with_control=True)
        return starts, sizes

    def test_control_samples_die_before_nudged_run(self, monkeypatch):
        # The control runs first and is reduced to its gap and checks, so its
        # sample array is gone when the nudged run starts: one run's samples
        # are alive at a time.
        u0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
        v0 = random_field(GRID, seed=7, kmin=1, kmax=4, l2_norm=0.5)
        starts, _ = self._integration_starts(monkeypatch, self._params(20.0), CFG, u0, v0)
        assert starts == [(0.0, []), (20.0, [False])]

    def test_one_workload_sized_sample_array_alive_at_a_time(self, monkeypatch):
        # The `sync` benchmark's setup: n = 48, box nudging, every step
        # sampled, so each run's samples are 301 x 35,904 bytes, 10.8 MB.
        # The sample store relies on the control's array being dead before
        # the nudged run allocates; two such arrays would be alive otherwise.
        grid = GridSpec(48)
        forcing = forcing_for_grashof(grid, NU, 1e3, seed=2)
        p = PhysicsParams(NU, NU, mu=5.0, forcing=forcing, interp=BoxAverage(boxes=8))
        u0 = random_field(grid, seed=3, kmin=1, kmax=6, l2_norm=1.0)
        v0 = random_field(grid, seed=4, kmin=1, kmax=6, l2_norm=1.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.3)
        starts, sizes = self._integration_starts(monkeypatch, p, cfg, u0, v0)
        assert starts == [(0.0, []), (5.0, [False])]
        assert sizes == [301 * 35_904] * 2

    def test_control_u_checks_equal_nudged_u_checks(self):
        # The control reuses the nudged run's projected forcing object, so its
        # u is the nudged run's u bit for bit.  Re-projecting the forcing
        # moved it by up to 2.8e-17 on this setup and u_l2_sup's rhs by 1.4e-14.
        grid = GridSpec(48)
        forcing = forcing_for_grashof(grid, NU, 1e3, seed=2)
        p = PhysicsParams(NU, NU, mu=5.0, forcing=forcing, interp=BoxAverage(boxes=8))
        u0 = random_field(grid, seed=3, kmin=1, kmax=6, l2_norm=1.0)
        v0 = random_field(grid, seed=4, kmin=1, kmax=6, l2_norm=1.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.3)
        rep = run_da_sync(p, cfg, u0, v0, decay_threshold=0.25, with_control=True)
        checks = {c.name: c for c in rep.checks}
        control_u = [name for name in checks if name.startswith("control_u_")]
        assert len(control_u) == 3
        for name in control_u:
            nudged = checks[name.removeprefix("control_")]
            assert checks[name] == dataclasses.replace(nudged, name=name)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestSamplePass:
    """The runners read their per-sample norms through the one blocked pass of `diagnostics`."""

    SIZES = (1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1)
    CFG = SolverConfig(dt=2e-3, t_end=SAMPLE_BLOCK * 2e-3)  # SAMPLE_BLOCK + 1 samples
    U0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
    V0 = random_field(GRID, seed=7, kmin=1, kmax=4, l2_norm=0.5)

    @staticmethod
    def _passes(monkeypatch, run):
        """run()'s report and its pass calls, each as (trajectory, form, kind, series)."""
        calls = []

        def recording(traj, form, kind="l2"):
            series = diagnostics.sample_norms(traj, form, kind)
            calls.append((traj, form, kind, series))
            return series

        monkeypatch.setattr(experiments, "sample_norms", recording)
        report = run()
        monkeypatch.undo()
        return report, calls

    def _assert_per_sample(self, calls, want):
        """Each call's series, and the pass of its form over the first S samples
        for each S in SIZES, equal the per-sample reference bit for bit."""
        for (traj, form, kind, series), ref in zip(calls, want, strict=True):
            assert traj.n_samples == max(self.SIZES)
            assert np.array_equal(_bits(series), _bits(ref))
            for samples in self.SIZES:
                head = dataclasses.replace(traj, times=traj.times[:samples], snapshots={
                    k: v[:samples] for k, v in traj.snapshots.items()})
                got = diagnostics.sample_norms(head, form, kind)
                assert np.array_equal(_bits(got), _bits(ref[:samples]))

    @staticmethod
    def _per_sample(a, b, col):
        """Column col of `norms` of a - b, one sample at a time."""
        return [norms(BandStack(GRID, a[i : i + 1] - b[i : i + 1]))[0, col] for i in range(len(a))]

    @pytest.mark.parametrize("assimilated", [False, True])
    @pytest.mark.parametrize("norm_key, col", [("l2_h", 0), ("l2_v", 1), ("linf_h", 0)])
    def test_quotient_sweep(self, monkeypatch, assimilated, norm_key, col):
        spec = DQSweepSpec.halving(NU, self.U0, levels=3, norm=norm_key)
        p = PhysicsParams(NU, NU, forcing=forcing_for_grashof(GRID, NU, 200.0, seed=5))
        if assimilated:
            p = dataclasses.replace(p, mu=1.0, interp=SpectralProjection(modes=4))
            sweep, flow1, flow2, evolved = run_da_dq_convergence, "v1", "v2", "dp"
        else:
            sweep, flow1, flow2, evolved = run_dq_convergence, "u1", "u2", "d"
        runs = []

        def kept(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(experiments, "integrate", kept)
        rep, calls = self._passes(monkeypatch, lambda: sweep(spec, p, self.CFG))
        s = {k: v.coeffs for k, v in rep.artifacts["reference"].snapshots.items()}
        errors, gaps = [], []
        for j, nu2 in enumerate(spec.nu2_values, start=1):
            alg = np.concatenate([(s[flow1][i : i + 1] - s[f"{flow2}_{j}"][i : i + 1])
                                  / complex(spec.nu1 - nu2) for i in range(len(s[flow1]))])
            errors.append(self._per_sample(alg, s[f"{evolved}_0"], col))
            gaps.append(self._per_sample(s[f"{evolved}_{j}"], alg, col))
        # The integrator tolerance: the finest copy's evolved quotient against
        # the half-step run's, whose samples fall at the same times.
        batch, half = runs
        assert batch is rep.artifacts["reference"] and np.array_equal(half.times, batch.times)
        finest = f"{evolved}_{len(spec.deltas)}"
        tolerance = self._per_sample(s[finest], half.snapshots[evolved].coeffs, col)
        self._assert_per_sample(calls, errors + gaps + [tolerance])
        if norm_key == "linf_h":  # the sup over the samples
            assert rep.data["errors"] == [max(e) for e in errors]
            assert rep.data["integrator_tolerance"] == max(tolerance)

    def test_sync_gap(self, monkeypatch):
        p = PhysicsParams(NU, NU, mu=20.0, forcing=forcing_for_grashof(GRID, NU, 200.0, seed=5),
                          interp=SpectralProjection(modes=4))
        rep, calls = self._passes(
            monkeypatch, lambda: run_da_sync(p, self.CFG, self.U0, self.V0, with_control=True))
        want = [self._per_sample(traj.snapshots["u"].coeffs, traj.snapshots["v"].coeffs, 0)
                for traj, *_ in calls]
        self._assert_per_sample(calls, want)
        (control, *_, control_gap), (traj, *_, gap) = calls
        assert control.params.mu == 0.0 and traj is rep.artifacts["trajectory"]
        assert rep.data["control_difference_l2"] is control_gap
        assert rep.data["difference_l2"] is gap

    def test_no_norms_call_gets_more_than_a_block(self, monkeypatch):
        # Spies on the `norms` of the runners and the post-run checks, not
        # the stepper's: the sweep's errors and gaps, the synchronization gaps
        # and the nudged sources are all formed a block of samples at a time.
        sizes = []

        def spy(stack, l2_only=False):
            sizes.append(int(np.prod(stack.coeffs.shape[:-3])))
            return norms(stack, l2_only)

        for module in (experiments, diagnostics):
            if hasattr(module, "norms"):
                monkeypatch.setattr(module, "norms", spy)
        cfg = SolverConfig(dt=2e-3, t_end=0.1)  # 51 samples
        run_dq_convergence(DQSweepSpec.halving(NU, self.U0, levels=2), PhysicsParams(NU, NU), cfg)
        sweep = len(sizes)
        p = PhysicsParams(NU, NU, mu=20.0, interp=SpectralProjection(modes=4))
        run_da_sync(p, cfg, self.U0, self.V0, with_control=True)
        assert 0 < sweep < len(sizes)
        assert max(sizes) <= SAMPLE_BLOCK


class TestNoFieldPerSample:
    """The runners read their samples as band halves: a run's `SpectralField`s,
    counted as the benchmark's `spectral.field_new` layer counts them, do not
    grow with its number of samples."""

    U0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)

    @staticmethod
    def _fields_made(monkeypatch, run) -> int:
        made = []
        post_init = SpectralField.__post_init__

        def counted(self):
            made.append(self.grid.n)
            post_init(self)

        monkeypatch.setattr(SpectralField, "__post_init__", counted)
        run()
        monkeypatch.undo()
        return len(made)

    @pytest.mark.parametrize("runner", ["dq_convergence", "taylor_green_suite"])
    def test_count_does_not_depend_on_samples(self, monkeypatch, runner):
        spec = DQSweepSpec.halving(NU, self.U0, levels=2)
        runs = {
            "dq_convergence": lambda cfg: run_dq_convergence(spec, PhysicsParams(NU, NU), cfg),
            "taylor_green_suite": lambda cfg: run_taylor_green_suite(cfg, grid=GRID, nu=NU),
        }
        counts = []
        for every in (1, 5):  # 11 and 3 samples
            cfg = SolverConfig(dt=2e-3, t_end=0.02, sample_every=every)
            counts.append(self._fields_made(monkeypatch, lambda: runs[runner](cfg)))
        assert counts[0] == counts[1] > 0

    def test_callable_forcing_adds_only_its_own_field_per_evaluation(self, monkeypatch):
        # The stepper and the certificates read the forcing as band halves, so
        # each evaluation builds one field: the one the callable returns.
        f = forcing_for_grashof(GRID, NU, 200.0, seed=5)
        evaluations = []

        def forcing(t):
            evaluations.append(t)
            return f * (1.0 + t)

        p, nse = PhysicsParams(NU, NU, forcing=forcing), SystemSpec(SystemKind.NSE)

        def made_beyond_evaluations(run) -> int:
            evaluations.clear()
            made = self._fields_made(monkeypatch, run)
            assert evaluations
            return made - len(evaluations)

        runs = [SolverConfig(dt=2e-3, t_end=steps * 2e-3) for steps in (10, 20)]
        stepper = [made_beyond_evaluations(lambda: integrate(nse, {"u": self.U0}, p, cfg))
                   for cfg in runs]
        assert stepper[0] == stepper[1]
        trajs = [integrate(nse, {"u": self.U0}, p, dataclasses.replace(runs[1], sample_every=every))
                 for every in (1, 5)]  # 21 and 5 samples
        checks = [made_beyond_evaluations(lambda: check_apriori(traj)) for traj in trajs]
        assert checks == [0, 0]


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

    def test_one_batched_run_is_certified(self, monkeypatch):
        # The suite integrates once.  Its flow oracle reads the batch's u1,
        # bit for bit a separate NSE run's u, and its a-priori checks cover
        # every flow of the batch: u1 and each u2_j.
        cfg = SolverConfig(dt=1e-3, t_end=0.25, sample_every=25)
        systems = []

        def counted(system, *args, **kwargs):
            systems.append(system)
            return integrate(system, *args, **kwargs)

        monkeypatch.setattr(experiments, "integrate", counted)
        rep = run_taylor_green_suite(cfg, grid=GRID, nu=NU)
        assert len(systems) == 1
        assert {c.name for c in rep.checks} == {
            f"{flow}_{kind}"
            for flow in ("u1", "u2_1", "u2_2")
            for kind in ("h1_sup", "l2_sup", "dissipation_integral")
        }
        flow = integrate(SystemSpec(SystemKind.NSE), {"u": taylor_green(GRID)},
                         PhysicsParams(NU, NU), cfg)
        exact = [taylor_green_flow(GRID, NU, t) for t in flow.times]
        errs = [norm(flow.snapshot("u", i) - e) / norm(e) for i, e in enumerate(exact)]
        assert rep.data["flow_max_rel_error"] == float(np.max(errs))


class TestReportPath:
    """Every runner's report is timed, warned and digested by `experiments.reported`."""

    CFG = SolverConfig(dt=2e-3, t_end=0.02, sample_every=5)
    INTERP = SpectralProjection(modes=4)
    U0 = random_field(GRID, seed=6, kmin=1, kmax=4, l2_norm=0.5)
    V0 = random_field(GRID, seed=7, kmin=1, kmax=4, l2_norm=0.5)
    F = forcing_for_grashof(GRID, NU, 200.0, seed=5)

    @classmethod
    def cases(cls):
        """(runner, base arguments, one alternative per argument)."""
        spec = DQSweepSpec.halving(NU, cls.U0, levels=2)
        spec_alt = DQSweepSpec.halving(NU, cls.U0, levels=3)
        plain = PhysicsParams(NU, NU)
        nudged = PhysicsParams(NU, NU, mu=1.0, interp=cls.INTERP)
        cfg_alt = SolverConfig(dt=2e-3, t_end=0.02, sample_every=10)
        synced = PhysicsParams(NU, NU, mu=5.0, forcing=cls.F, interp=cls.INTERP)
        return [
            (run_dq_convergence,
             dict(spec=spec, p=plain, cfg=cls.CFG, ratio_window=None),
             dict(spec=spec_alt, p=PhysicsParams(NU, NU, forcing=cls.F), cfg=cfg_alt,
                  ratio_window=(0.4, 0.6))),
            (run_da_dq_convergence,
             dict(spec=spec, p=nudged, cfg=cls.CFG, v0=None, ratio_window=None),
             dict(spec=spec_alt, p=PhysicsParams(NU, NU, mu=2.0, interp=cls.INTERP),
                  cfg=cfg_alt, v0=cls.V0, ratio_window=(0.4, 0.6))),
            (run_da_sync,
             dict(p=synced, cfg=cls.CFG, u0=cls.U0, v0=cls.V0, decay_threshold=1e-3,
                  with_control=False, control_floor=0.1),
             dict(p=PhysicsParams(NU, NU, mu=5.0, forcing=cls.F,
                                  interp=SpectralProjection(modes=3)),
                  cfg=cfg_alt, u0=cls.V0, v0=cls.U0, decay_threshold=0.5,
                  with_control=True, control_floor=0.2)),
            (run_reynolds_switch,
             dict(p=nudged, cfg=SolverConfig(dt=2e-3, t_end=0.02), t_switch=0.01,
                  nu_new=0.008, u0=cls.U0, v0=None),
             dict(p=PhysicsParams(NU, 0.012, mu=1.0, interp=cls.INTERP), cfg=cls.CFG,
                  t_switch=0.012, nu_new=0.009, u0=cls.V0, v0=cls.U0)),
            (run_taylor_green_suite,
             dict(cfg=cls.CFG, grid=GRID, nu=NU, deltas=None, ratio_window=(0.4, 0.6)),
             dict(cfg=cfg_alt, grid=GridSpec(18), nu=0.02, deltas=(NU / 2, NU / 4),
                  ratio_window=(0.3, 0.7))),
        ]

    @pytest.mark.parametrize("case", range(5))
    def test_each_argument_alone_changes_the_digest(self, case):
        runner, base, alternatives = self.cases()[case]
        assert set(base) == set(alternatives) == set(inspect.signature(runner).parameters)
        digest = runner(**base).config_digest
        assert re.fullmatch(r"[0-9a-f]{16}", digest)
        assert runner(**base).config_digest == digest
        flipped = {
            name: runner(**{**base, name: value}).config_digest
            for name, value in alternatives.items()
        }
        assert digest not in flipped.values()
        assert len(set(flipped.values())) == len(flipped)

    def test_callable_forcing_is_hashed_at_every_half_step(self):
        # Equal at t = 0, apart afterwards: the digest tells the runs apart.
        reports = [
            run_da_sync(PhysicsParams(NU, NU, mu=5.0, forcing=forcing, interp=self.INTERP),
                        self.CFG, self.U0, self.V0)
            for forcing in (lambda t: self.F, lambda t: self.F * (1.0 + 10.0 * t))
        ]
        assert reports[0].data["decay_factor"] != reports[1].data["decay_factor"]
        assert reports[0].config_digest != reports[1].config_digest

    def test_callable_forcing_is_hashed_raw(self, monkeypatch):
        # The band half of the callable's own field at t = k dt / 2,
        # k = 0..2N, enters the digest; no band limit or projection is
        # formed for it.
        from ns2dsens import dynamics

        times, halves = [], []

        def forcing(t):
            times.append(t)
            return self.F * (1.0 + t)

        def refused(*args):
            raise AssertionError("the digest projects nothing")

        def recorded(c, K):
            halves.append(K)
            return band_half(c, K)

        monkeypatch.setattr(dynamics, "leray_project", refused)
        monkeypatch.setattr(SpectralField, "band_limited", refused)
        monkeypatch.setattr(experiments, "band_half", recorded)
        p = PhysicsParams(NU, NU, forcing=forcing)
        digest = experiments._digest(run_da_sync, {"p": p, "cfg": self.CFG})
        half = 0.5 * self.CFG.dt
        assert times == [k * half for k in range(2 * self.CFG.n_steps + 1)]
        assert halves == [GRID.cutoff] * len(times)
        assert experiments._digest(run_da_sync, {"p": p, "cfg": self.CFG}) == digest

    def test_callable_forcing_is_hashed_inside_the_band(self):
        # Two callables equal inside the band and apart outside it drive the
        # same run and get one digest; one band coefficient moved gets
        # another.
        K = GRID.cutoff
        outside, inside = np.zeros((2, 2, GRID.n, GRID.n), dtype=np.complex128)
        outside[0, K + 1, 0] = outside[0, -K - 1, 0] = 0.3
        outside[1, 2, -K - 1] = outside[1, -2, K + 1] = 0.2
        inside[0, 1, 2], inside[0, -1, -2] = 1e-3j, -1e-3j
        reports = [
            run_da_sync(PhysicsParams(NU, NU, mu=5.0, forcing=forcing, interp=self.INTERP),
                        self.CFG, self.U0, self.V0)
            for forcing in (
                lambda t: self.F * (1.0 + t),
                lambda t: self.F * (1.0 + t) + SpectralField(GRID, outside),
                lambda t: self.F * (1.0 + t) + SpectralField(GRID, inside),
            )
        ]
        assert not GRID.band_mask[K + 1, 0] and not GRID.band_mask[2, -K - 1]
        runs = [{k: v for k, v in r.to_dict().items() if k != "runtime_seconds"}
                for r in reports]
        assert json.dumps(runs[0]) == json.dumps(runs[1])
        assert reports[2].config_digest != reports[0].config_digest

    def test_a_run_leaves_the_params_digest_unchanged(self):
        # A run forms the constant forcing's band half on p; the digest
        # reads p's inputs only.
        p = PhysicsParams(NU, NU, mu=5.0, forcing=self.F, interp=self.INTERP)
        before = experiments._digest(run_da_sync, {"p": p})
        report = run_da_sync(p, self.CFG, self.U0, self.V0)
        assert "_forcing_band" in vars(p)
        assert experiments._digest(run_da_sync, {"p": p}) == before
        assert run_da_sync(p, self.CFG, self.U0, self.V0).config_digest == report.config_digest

    def test_unknown_input_type_is_refused(self):
        spec = DQSweepSpec.halving(NU, self.U0, levels=2)
        with pytest.raises(TypeError, match="cannot digest"):
            run_dq_convergence(spec, PhysicsParams(NU, NU), self.CFG, ratio_window=object())
        with pytest.raises(TypeError, match="cannot digest"):
            run_da_sync(PhysicsParams(NU, NU), self.CFG, self.U0, self.V0.coeffs)
        # A callable forcing is hashed at a run's times, which only a SolverConfig gives.
        p = PhysicsParams(NU, NU, forcing=lambda t: self.F)
        with pytest.raises(TypeError, match="no SolverConfig given"):
            experiments._digest(run_da_sync, {"p": p})

    def test_warnings_are_recorded_in_the_order_raised(self):
        # An inadmissible gain warns in the nudged run; the control, which
        # runs first, has no gain and raises none.
        p = PhysicsParams(NU, NU, mu=100.0, interp=self.INTERP)
        rep = run_da_sync(p, self.CFG, self.U0, self.V0, with_control=True)
        assert rep.data["warnings"] == [
            w for w in rep.data["warnings"] if w.startswith("AdmissibilityWarning: ")
        ]
        assert len(rep.data["warnings"]) == 1
        assert rep.runtime_seconds > 0

    def test_a_failed_call_issues_its_warnings_again(self):
        @experiments.reported
        def failing(x):
            warnings.warn("before failing", UserWarning)
            raise RuntimeError("failed")

        with pytest.warns(UserWarning, match="before failing"), pytest.raises(RuntimeError):
            failing(1)
