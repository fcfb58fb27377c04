"""Diagnostics tests: bound checks, Grashof, identities, a-priori validators."""

import dataclasses

import numpy as np
import pytest

from ns2dsens import diagnostics
from ns2dsens.diagnostics import (
    APRIORI_REL_TOL,
    SAMPLE_BLOCK,
    BoundCheck,
    check_apriori,
    effective_source_l2,
    grashof,
    identity_suite,
    sample_norms,
    trajectory_grashof,
)
from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec, forcing_at, with_viscosity2
from ns2dsens.interpolants import BoxAverage, SpectralProjection, admissibility, interpolate
from ns2dsens.spectral import (
    BandStack,
    GridSpec,
    SpectralField,
    leray_project,
    norm,
    norms,
    project_coeffs,
    random_field,
    taylor_green,
)
from ns2dsens.timestepper import SolverConfig, integrate

GRID = GridSpec(32)


class TestBoundCheck:
    def test_pass_and_margin(self):
        c = BoundCheck.from_inequality("x", lhs=1.0, rhs=2.0)
        assert c.passed
        assert c.margin == pytest.approx(1.0)

    def test_tolerance_boundary(self):
        assert APRIORI_REL_TOL == 1e-8
        ok = BoundCheck.from_inequality("x", lhs=1.0 + 0.5e-8, rhs=1.0)
        bad = BoundCheck.from_inequality("x", lhs=1.0 + 3e-8, rhs=1.0)
        assert ok.passed and ok.tolerance == APRIORI_REL_TOL
        assert not bad.passed

    def test_zero_zero_passes(self):
        assert BoundCheck.from_inequality("x", lhs=0.0, rhs=0.0).passed

    def test_residual_form(self):
        assert BoundCheck.from_residual("r", 1e-12, 1e-10).passed
        assert not BoundCheck.from_residual("r", 1e-9, 1e-10).passed


class TestGrashof:
    def test_reference_value(self):
        # nu = 0.01 and |f| = 4 pi^2 give G = 1e4.
        assert grashof(4 * np.pi**2, 0.01) == pytest.approx(1e4, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            grashof(1.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            grashof(-1.0, 0.01)

    def test_trajectory_grashof(self):
        f = random_field(GRID, seed=1, kmin=2, kmax=6, l2_norm=4 * np.pi**2)
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=f)
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=10)
        traj = integrate(SystemSpec(SystemKind.NSE), {"u": taylor_green(GRID)}, p, cfg)
        assert trajectory_grashof(traj) == pytest.approx(1e4, rel=1e-10)


class TestIdentitySuite:
    def test_all_pass_at_default_tolerances(self):
        report = identity_suite(GRID, trials=25, seed=0)
        assert report.passed
        names = {c.name for c in report.checks}
        assert "advective_skew_symmetry" in names
        assert "advective_enstrophy_orthogonality" in names
        assert "projection_self_adjoint" in names
        assert report.empirical["advective_inequality_constant"] > 0

    def test_deterministic(self):
        a = identity_suite(GRID, trials=5, seed=3)
        b = identity_suite(GRID, trials=5, seed=3)
        for ca, cb in zip(a.checks, b.checks):
            assert ca.lhs == cb.lhs

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one trial"):
            identity_suite(GRID, trials=0)


def _nse_run(forcing=None, t_end=0.2):
    p = PhysicsParams(nu1=0.02, nu2=0.02, forcing=forcing)
    cfg = SolverConfig(dt=1e-3, t_end=t_end, sample_every=20)
    init = {"u": random_field(GRID, seed=10, kmin=1, kmax=6)}
    return integrate(SystemSpec(SystemKind.NSE), init, p, cfg), p


class TestAprioriFlow:
    def test_unforced_taylor_green_passes(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.2, sample_every=20)
        traj = integrate(SystemSpec(SystemKind.NSE), {"u": taylor_green(GRID)}, p, cfg)
        checks = check_apriori(traj)
        assert {c.name for c in checks} == {
            "u_h1_sup", "u_l2_sup", "u_dissipation_integral",
        }
        assert all(c.passed for c in checks)

    def test_forced_run_passes(self):
        f = random_field(GRID, seed=11, kmin=2, kmax=6, l2_norm=2.0)
        traj, _ = _nse_run(forcing=f)
        assert all(c.passed for c in check_apriori(traj))

    def test_h1_sup_reports_its_closest_approach_after_t0(self):
        # At t = 0 the H1 bound is an equality, so a report there would
        # read margin 0 on every run.  It reads a later sample instead, and
        # its margin is that sample's gap between the two sides.
        f = random_field(GRID, seed=11, kmin=2, kmax=6, l2_norm=2.0)
        traj, p = _nse_run(forcing=f)
        (check,) = [c for c in check_apriori(traj) if c.name == "u_h1_sup"]
        h1_sq = traj.norm_series("u", "h1") ** 2
        rhs = h1_sq[0] + diagnostics._cumulative_trapezoid(
            diagnostics._forcing_l2(p, GRID, traj.times) ** 2, traj.times) / p.nu1
        i = int(np.flatnonzero(h1_sq == check.lhs)[0])
        assert i >= 1
        assert check.passed and check.margin > 0
        assert check.rhs == rhs[i]
        assert check.margin == rhs[i] - h1_sq[i]
        assert check.margin == min(rhs[1:] - h1_sq[1:])

    def test_corrupted_series_fails(self):
        traj, _ = _nse_run()
        series = {k: v.copy() for k, v in traj.series.items()}
        series["u"][series["u"].shape[0] // 2 :, :] *= 4.0
        corrupted = dataclasses.replace(traj, series=series)
        checks = check_apriori(corrupted)
        assert any(not c.passed for c in checks)

    def test_quotient_fields_not_checked(self):
        p = PhysicsParams(nu1=0.01, nu2=0.008)
        cfg = SolverConfig(dt=1e-3, t_end=0.05, sample_every=10)
        u0 = taylor_green(GRID)
        traj = integrate(SystemSpec(SystemKind.DQ_DIRECT), {"u1": u0, "u2": u0}, p, cfg)
        names = {c.name for c in check_apriori(traj)}
        assert names == {
            "u1_h1_sup", "u1_l2_sup", "u1_dissipation_integral",
            "u2_h1_sup", "u2_l2_sup", "u2_dissipation_integral",
        }


class TestAprioriAssimilated:
    def _da_traj(self, mu, interp, nu=0.01):
        p = PhysicsParams(nu1=nu, nu2=nu, mu=mu, interp=interp)
        cfg = SolverConfig(dt=1e-3, t_end=0.2, sample_every=20)
        init = {
            "u": taylor_green(GRID),
            "v": random_field(GRID, seed=12, kmin=1, kmax=6, l2_norm=0.5),
        }
        return integrate(SystemSpec(SystemKind.DA), init, p, cfg), p

    def test_nonstrict_admissibility_gives_l2_bound_only(self):
        # mu c0 h^2 = 10/(4 pi^2 81) ~ 3.1e-3 <= 0.01, strict form fails.
        traj, _ = self._da_traj(mu=10.0, interp=SpectralProjection(modes=8))
        names = {c.name for c in check_apriori(traj) if c.name.startswith("v")}
        assert names == {"v_l2_sup"}

    def test_strict_admissibility_gives_all_bounds(self):
        # box means: mu c0 h^2 = 1/(pi^2 64) ~ 1.6e-3, strict 6.3e-3 <= 0.01.
        traj, _ = self._da_traj(mu=1.0, interp=BoxAverage(boxes=8))
        v_checks = [c for c in check_apriori(traj) if c.name.startswith("v")]
        assert {c.name for c in v_checks} == {
            "v_l2_sup", "v_h1_sup", "v_dissipation_integral",
        }
        assert all(c.passed for c in v_checks)

    def test_all_checks_pass_on_admissible_run(self):
        traj, _ = self._da_traj(mu=10.0, interp=SpectralProjection(modes=8))
        assert all(c.passed for c in check_apriori(traj))

    def test_label_prefix(self):
        traj, _ = self._da_traj(mu=1.0, interp=BoxAverage(boxes=8))
        names = {c.name for c in check_apriori(traj, label="pre_switch_")}
        assert all(n.startswith("pre_switch_") for n in names)

    def test_inadmissible_row_forms_no_source(self, monkeypatch):
        # Run at nu2 = 0.1, checked at nu2 = 0.02 where even the non-strict
        # gate fails: mu c0 h^2 = 5/(16 pi^2) ~ 3.2e-2.  The nudged row gets
        # no check, so its effective source (one interpolate call per block
        # of samples) is never formed; the flow row's checks ignore nu2.
        grid = GridSpec(32)
        f = random_field(grid, seed=13, kmin=2, kmax=6, l2_norm=2.0)
        p = PhysicsParams(nu1=0.1, nu2=0.1, mu=5.0, interp=BoxAverage(boxes=4), forcing=f)
        init = {
            "u": random_field(grid, seed=14, kmin=1, kmax=6, l2_norm=0.5),
            "v": random_field(grid, seed=15, kmin=1, kmax=6, l2_norm=0.5),
        }
        traj = integrate(SystemSpec(SystemKind.DA), init, p, SolverConfig(dt=1e-3, t_end=0.05))
        q = with_viscosity2(p, 0.02)
        assert traj.n_samples == 51 and not admissibility(q.nu2, q.mu, q.interp)
        calls = []

        def counting(*args):
            calls.append(args)
            return interpolate(*args)

        monkeypatch.setattr(diagnostics, "interpolate", counting)
        checks = check_apriori(traj, q)
        assert calls == []
        monkeypatch.undo()
        assert checks == [c for c in check_apriori(traj) if c.name.startswith("u_")]
        assert [c.name for c in checks] == ["u_h1_sup", "u_l2_sup", "u_dissipation_integral"]

    def test_zero_gain_treated_as_flow(self):
        traj, _ = self._da_traj(mu=0.0, interp=None)
        names = {c.name for c in check_apriori(traj) if c.name.startswith("v")}
        assert names == {"v_h1_sup", "v_l2_sup", "v_dissipation_integral"}


class TestStackedSource:
    """The assimilated source, stacked in blocks, against the per-sample formula."""

    SAMPLES = 130  # full blocks of SAMPLE_BLOCK and a shorter tail

    def _run(self, interp, mu, forcing):
        grid = GridSpec(24)
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=mu, interp=interp, forcing=forcing)
        cfg = SolverConfig(dt=1e-3, t_end=(self.SAMPLES - 1) * 1e-3)
        init = {
            "u": random_field(grid, seed=50, kmin=1, kmax=6, l2_norm=0.5),
            "v": random_field(grid, seed=51, kmin=1, kmax=6, l2_norm=0.5),
        }
        return integrate(SystemSpec(SystemKind.DA), init, p, cfg), p

    @staticmethod
    def per_sample_source(traj, ref, p=None):
        """The formula the blocks replace: one full-spectrum field per sample."""
        p = traj.params if p is None else p
        return np.array([
            norm(
                forcing_at(p, traj.grid, t)
                + p.mu * leray_project(interpolate(traj.snapshot(ref, i), p.interp).band_limited())
            )
            for i, t in enumerate(traj.times)
        ])

    def cases(self):
        grid = GridSpec(24)
        f0 = random_field(grid, seed=52, kmin=2, kmax=6, l2_norm=2.0)
        # Box means: strictly admissible (4 mu c0 h^2 = 6.3e-3 <= 0.01), all
        # three checks.  Projection, with a time-dependent forcing:
        # 4 mu c0 h^2 = 8.1e-3, also all three.
        yield self._run(BoxAverage(boxes=8), 1.0, f0)
        yield self._run(SpectralProjection(modes=4), 2.0, lambda t: (1.0 + t) * f0)

    def test_stacked_norms_match_per_sample_formula(self):
        assert self.SAMPLES > SAMPLE_BLOCK and self.SAMPLES % SAMPLE_BLOCK
        for traj, p in self.cases():
            assert traj.n_samples == self.SAMPLES
            got = effective_source_l2(traj, "u")
            want = self.per_sample_source(traj, "u")
            assert np.abs(got - want).max() <= 1e-13 * want.max()

    def test_verdicts_unchanged(self, monkeypatch):
        for traj, p in self.cases():
            stacked = check_apriori(traj)
            with monkeypatch.context() as m:
                m.setattr(diagnostics, "effective_source_l2", self.per_sample_source)
                per_sample = check_apriori(traj)
            assert [c.name for c in stacked] == [c.name for c in per_sample]
            assert {c.name for c in stacked} >= {"v_l2_sup", "v_h1_sup", "v_dissipation_integral"}
            for a, b in zip(stacked, per_sample):
                assert a.passed == b.passed
                assert abs(a.rhs - b.rhs) <= 1e-13 * abs(b.rhs)
                assert a.lhs == b.lhs

    def test_constant_forcing_measured_once(self, monkeypatch):
        traj, p = next(self.cases())
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return forcing_at(*args)

        monkeypatch.setattr(diagnostics, "forcing_at", counting)
        checks = check_apriori(traj)
        grashof_number = trajectory_grashof(traj)
        assert len(calls) <= 3  # f_l2, the source's band half, the Grashof sup
        monkeypatch.undo()
        # Bit-identical to measuring the forcing at every sample time.
        per_time = np.asarray([norm(forcing_at(p, traj.grid, t)) for t in traj.times])
        monkeypatch.setattr(diagnostics, "_forcing_l2", lambda *args: per_time)
        assert check_apriori(traj) == checks
        assert trajectory_grashof(traj) == grashof_number


def head(traj, samples):
    """A run's first samples as a trajectory; `Trajectory.window` needs at least two."""
    return dataclasses.replace(traj, times=traj.times[:samples],
                               snapshots={k: v[:samples] for k, v in traj.snapshots.items()})


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestSampleNorms:
    """The one blocked pass against one sample at a time, bit for bit."""

    SIZES = (1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1)

    def test_columns_of_a_difference(self):
        traj, _ = TestStackedSource()._run(BoxAverage(boxes=8), 1.0, None)
        u, v = traj.snapshots["u"].coeffs, traj.snapshots["v"].coeffs
        for kind, col in (("l2", 0), ("h1", 1)):
            want = [norms(BandStack(traj.grid, u[i : i + 1] - v[i : i + 1]))[0, col]
                    for i in range(max(self.SIZES))]
            for samples in self.SIZES:
                got = sample_norms(head(traj, samples),
                                   lambda b, out: np.subtract(u[b], v[b], out=out), kind)
                assert np.array_equal(bits(got), bits(want[:samples]))

    def test_effective_source(self):
        for traj, p in TestStackedSource().cases():
            grid, refs = traj.grid, traj.snapshots["u"].coeffs
            want = []
            for i, t in enumerate(traj.times[: max(self.SIZES)]):
                seen = interpolate(BandStack(grid, refs[i : i + 1]), p.interp).coeffs
                f = diagnostics.forcing_band(p, grid, t)
                g = f + p.mu * project_coeffs(seen, *grid.band_projector)
                want.append(norms(BandStack(grid, g), l2_only=True)[0])
            for samples in self.SIZES:
                got = effective_source_l2(head(traj, samples), "u")
                assert np.array_equal(bits(got), bits(want[:samples]))
