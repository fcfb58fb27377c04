"""Diagnostics tests: bound checks, Grashof, identities, a-priori validators."""

import dataclasses
import warnings

import numpy as np
import pytest

from ns2dsens import diagnostics
from ns2dsens import dynamics
from ns2dsens.diagnostics import (
    APRIORI_REL_TOL,
    SAMPLE_BLOCK,
    BoundCheck,
    check_apriori,
    grashof,
    identity_suite,
    sample_norms,
    trajectory_grashof,
)
from ns2dsens.dynamics import (
    PhysicsParams,
    SystemKind,
    SystemSpec,
    forcing_band,
)
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
from ns2dsens.timestepper import AdmissibilityWarning, SolverConfig, integrate

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
        # Each later sample compares the sup of ||u||^2 over the steps since
        # the previous sample with the bound's right side at that sample.
        f = random_field(GRID, seed=11, kmin=2, kmax=6, l2_norm=2.0)
        traj, p = _nse_run(forcing=f)
        (check,) = [c for c in check_apriori(traj) if c.name == "u_h1_sup"]
        reduced = traj.reductions["u"]
        f_l2 = norms(BandStack(GRID, forcing_band(p, GRID, 0.0)), l2_only=True)
        assert (reduced[:, 3] == f_l2**2).all()  # a constant forcing's |f|^2, every state
        h1_sup = reduced[1:, 1]
        rhs = traj.norm_series("u", "h1")[0] ** 2 + reduced[1:, 5] / p.nu1
        i = int(np.flatnonzero(h1_sup == check.lhs)[0])
        assert check.passed and check.margin > 0
        assert check.rhs == rhs[i]
        assert check.margin == rhs[i] - h1_sup[i]
        assert check.margin == min(rhs - h1_sup)

    def test_corrupted_series_fails(self):
        # The checks read the run's reductions: norms four times larger from
        # the middle on are squared sups and a dissipation integral 16 times
        # larger there.
        traj, _ = _nse_run()
        reductions = {k: v.copy() for k, v in traj.reductions.items()}
        half = reductions["u"][reductions["u"].shape[0] // 2 :]
        half[:, :3] *= 16.0
        half[:, 4] *= 16.0
        corrupted = dataclasses.replace(traj, reductions=reductions)
        checks = check_apriori(corrupted)
        assert all(c.passed for c in check_apriori(traj))
        assert [c.passed for c in checks] == [False, False, False]

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
        # Run at nu2 = 0.02, where even the non-strict gate fails:
        # mu c0 h^2 = 5/(16 pi^2) ~ 3.2e-2.  The nudged row gets no check,
        # and the checks interpolate nothing and take no norm: every number
        # comes from the run's reductions.  The flow row's checks do not
        # read nu2, so they are those of the same run at an admissible nu2.
        grid = GridSpec(32)
        f = random_field(grid, seed=13, kmin=2, kmax=6, l2_norm=2.0)
        init = {
            "u": random_field(grid, seed=14, kmin=1, kmax=6, l2_norm=0.5),
            "v": random_field(grid, seed=15, kmin=1, kmax=6, l2_norm=0.5),
        }
        cfg = SolverConfig(dt=1e-3, t_end=0.05)

        def run(nu2):
            p = PhysicsParams(nu1=0.1, nu2=nu2, mu=5.0, interp=BoxAverage(boxes=4), forcing=f)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AdmissibilityWarning)
                return integrate(SystemSpec(SystemKind.DA), init, p, cfg,
                                 enforce_admissibility=False)

        traj = run(0.02)
        assert traj.n_samples == 51 and not admissibility(0.02, 5.0, BoxAverage(boxes=4))
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("interpolate", "norms"):
            monkeypatch.setattr(diagnostics, name, counting(name, getattr(diagnostics, name)))
        checks = check_apriori(traj)
        assert calls == []
        monkeypatch.undo()
        assert checks == [c for c in check_apriori(run(0.1)) if c.name.startswith("u_")]
        assert [c.name for c in checks] == ["u_h1_sup", "u_l2_sup", "u_dissipation_integral"]

    def test_zero_gain_treated_as_flow(self):
        traj, _ = self._da_traj(mu=0.0, interp=None)
        names = {c.name for c in check_apriori(traj) if c.name.startswith("v")}
        assert names == {"v_h1_sup", "v_l2_sup", "v_dissipation_integral"}


class TestStackedSource:
    """The assimilated source measured in the rounds against the per-sample formula."""

    SAMPLES = 130  # every step a sample

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
    def per_sample_source(traj, ref):
        """|f + mu P I_h(u_ref)| at every sample, one full-spectrum field per sample."""
        p = traj.params
        return np.array([
            norm(
                forcing_field(p, t)
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
        # With every step sampled, the sup of |g|^2 since the previous sample
        # is the larger of its two ends.
        for traj, p in self.cases():
            assert traj.n_samples == self.SAMPLES
            got = np.sqrt(traj.reductions["v"][:, 3])
            want = self.per_sample_source(traj, "u")
            assert abs(got[0] - want[0]) <= 1e-13 * want.max()
            assert np.abs(got[1:] - np.maximum(want[:-1], want[1:])).max() <= 1e-13 * want.max()

    def test_verdicts_unchanged(self):
        # Every step sampled, the checks equal the trapezoids and sups of the
        # per-sample formula over the samples, the quadrature the reductions
        # replace, to rounding.
        for traj, p in self.cases():
            checks = {c.name: c for c in check_apriori(traj)}
            assert {"v_l2_sup", "v_h1_sup", "v_dissipation_integral"} <= set(checks)
            source_sq = self.per_sample_source(traj, "u") ** 2
            l2_sq, h1_sq, h2_sq = (traj.norm_series("v", k) ** 2 for k in ("l2", "h1", "h2"))
            source_int = np.r_[0.0, np.cumsum(0.5 * (source_sq[1:] + source_sq[:-1]) * 1e-3)]
            nu, lam1 = p.nu2, 4 * np.pi**2
            want = {
                "v_h1_sup": (h1_sq[1:], h1_sq[0] + source_int[1:] / nu),
                "v_l2_sup": (l2_sq[1:], l2_sq[0] + source_sq.max() / (p.mu * nu * lam1)),
                "v_dissipation_integral": (
                    0.5 * nu * np.trapezoid(h2_sq, dx=1e-3), h1_sq[0] + source_int[-1] / nu),
            }
            for name, sides in want.items():
                lhs, rhs = np.broadcast_arrays(*np.atleast_1d(*sides))
                i = np.argmin(rhs - lhs)
                check = checks[name]
                assert check.passed
                assert check.rhs == pytest.approx(rhs[i], rel=1e-12)
                assert check.margin == pytest.approx(rhs[i] - lhs[i], rel=1e-9, abs=1e-12 * rhs[i])

    def test_constant_forcing_measured_once(self, monkeypatch):
        # A constant forcing's |f| is one norm of one band half per params;
        # a callable's is one per round plus one for the final state.
        single = []
        measure = dynamics.norms

        def counting(stack, l2_only=False):
            if stack.coeffs.ndim == 3:
                single.append(stack)
            return measure(stack, l2_only=l2_only)

        monkeypatch.setattr(dynamics, "norms", counting)
        rounds = self.SAMPLES  # every step plus the Heun midpoint
        for (traj, p), want in zip(self.cases(), (1, rounds + 1)):
            assert len(single) == want
            single.clear()


class TestCadence:
    """Every sup and integral of the checks runs over every step, whatever the cadence."""

    EVERY = (1, 5, 25)

    @staticmethod
    def runs(kind, n, mu, interp):
        # The fields of the pinned certificate cases (tests/test_certificates.py):
        # 50 steps of dt = 1e-3 at nu1 = 0.5, nu2 = 0.1.
        grid = GridSpec(n)
        forcing = random_field(grid, seed=3, kmin=1, kmax=4, l2_norm=1.0)
        p = PhysicsParams(0.5, 0.1, mu=mu, forcing=forcing, interp=interp)
        system = SystemSpec(kind)
        init = {name: random_field(grid, seed=1 if row.role == "flow" else 2, kmin=1, kmax=6,
                                   l2_norm=0.5 if row.role == "flow" else 0.1)
                for name, row in system.rows.items()}
        return [integrate(system, init, p, SolverConfig(dt=1e-3, t_end=0.05, sample_every=e))
                for e in TestCadence.EVERY]

    @pytest.mark.parametrize("kind, n, mu, interp", [
        (SystemKind.NSE, 32, 0.0, None),
        # Boxes of 1/8: 4 mu c0 h^2 = 0.032 <= nu2, so v gets all three bounds.
        (SystemKind.DA, 24, 5.0, BoxAverage(8)),
    ], ids=["nse-forced-32", "da-box-24"])
    def test_records_do_not_depend_on_cadence(self, kind, n, mu, interp):
        # Sampled at every 5th and 25th step, the trapezoids over the sample
        # times read a fast-decaying |Au|^2 at too few points: the forced nse
        # run's dissipation lhs read 100.54, 207.63 and 996.87 against an rhs
        # of 184.69.  The reductions give one value at every cadence.
        trajs = self.runs(kind, n, mu, interp)
        every_step = trajs[0]
        by_name = [{c.name: c for c in check_apriori(traj)} for traj in trajs]
        bounds = [name for name in by_name[0] if not name.endswith("h1_sup")]
        assert len(bounds) == (2 if kind == SystemKind.NSE else 4)
        for name in bounds:
            assert by_name[0][name].passed
            assert all(checks[name] == by_name[0][name] for checks in by_name[1:])
        # At each sample, h1_sup's lhs (and the sups of |u|^2 and |Au|^2) is
        # the sup over every state since the previous sample, and the sup of
        # |g|^2 the sup over every state from the previous sample on, |g| as
        # the round on each state measures it.
        p, system = every_step.params, every_step.system
        states = np.stack([every_step.snapshots[n].coeffs for n in system.fields], axis=1)
        source_sq = np.array([system.explicit_rhs(BandStack(every_step.grid, c), p, t)[2]
                              for c, t in zip(states, every_step.times)]) ** 2
        for traj, every in zip(trajs, self.EVERY):
            for row, name in enumerate(system.fields):
                sq = every_step.series[name][1:] ** 2
                assert np.array_equal(traj.reductions[name][1:, :3],
                                      sq.reshape(-1, every, 3).max(axis=1))
                closed = [source_sq[i - every : i + 1, row].max()
                          for i in range(every, len(source_sq), every)]
                assert np.array_equal(traj.reductions[name][1:, 3], closed)
            assert all(c.passed for c in check_apriori(traj))


class TestForcingEvaluations:
    """A callable forcing is evaluated by the stepper only: once per round and once at t_end."""

    def test_counts(self):
        grid = GridSpec(16)
        f0 = random_field(grid, seed=60, kmin=1, kmax=4, l2_norm=1.0)
        times = []

        def forcing(t):
            times.append(t)
            return (1.0 + t) * f0

        p = PhysicsParams(0.05, 0.05, mu=5.0, forcing=forcing, interp=SpectralProjection(4))
        init = {"u": random_field(grid, seed=61, kmin=1, kmax=4, l2_norm=0.5),
                "v": random_field(grid, seed=62, kmin=1, kmax=4, l2_norm=0.5)}
        steps = 20
        cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3, sample_every=5)
        traj = integrate(SystemSpec(SystemKind.DA), init, p, cfg)
        # Every step's round, the Heun midpoint's round, and the final state.
        dt = cfg.dt
        assert times == [0.0, dt] + [k * dt for k in range(1, steps + 1)]
        times.clear()
        checks = check_apriori(traj)
        grashof_number = trajectory_grashof(traj)
        assert times == []
        assert checks and all(c.passed for c in checks) and grashof_number > 0


class TestBoundaryGain:
    """The gates of the nudged bounds at a viscosity exactly on each admissibility boundary."""

    @pytest.mark.parametrize("strict, factor, names", [
        (False, 1.0, ["v_l2_sup"]),
        (True, 4.0, ["v_l2_sup", "v_h1_sup", "v_dissipation_integral"]),
    ], ids=["non-strict", "strict"])
    def test_records_at_boundary(self, strict, factor, names):
        # nu2 = factor mu c0 h^2 formed in the order `admissibility` forms
        # it (tests/test_interpolants.py): on the boundary, inclusive.  One
        # ulp below it, the gate closes.
        spec, mu = BoxAverage(boxes=4), 16.0
        nu2 = factor * mu * spec.default_c0 * spec.h**2
        grid = GridSpec(16)
        init = {"u": random_field(grid, seed=70, kmin=1, kmax=4, l2_norm=0.5),
                "v": random_field(grid, seed=71, kmin=1, kmax=4, l2_norm=0.5)}
        cfg = SolverConfig(dt=1e-3, t_end=0.02, sample_every=4)

        def v_checks(nu):
            p = PhysicsParams(nu1=0.5, nu2=nu, mu=mu, interp=spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AdmissibilityWarning)
                traj = integrate(SystemSpec(SystemKind.DA), init, p, cfg,
                                 enforce_admissibility=False)
            return [c for c in check_apriori(traj) if c.name.startswith("v_")]

        assert admissibility(nu2, mu, spec, strict=strict)
        at = v_checks(nu2)
        assert [c.name for c in at] == names and all(c.passed for c in at)
        below = [c.name for c in v_checks(float(np.nextafter(nu2, 0.0)))]
        assert below == ([] if not strict else ["v_l2_sup"])


class TestSwitchedRuns:
    """A window reads the params its steps ran with; a check across the switch is refused."""

    def _run(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=10.0, interp=SpectralProjection(modes=8))
        cfg = SolverConfig(dt=1e-3, t_end=0.2, sample_every=20)
        init = {"u": taylor_green(GRID),
                "v": random_field(GRID, seed=80, kmin=1, kmax=4, l2_norm=0.5)}
        return integrate(SystemSpec(SystemKind.DA), init, p, cfg, nu2_switch=(0.1, 0.02)), p

    def test_post_window_reads_new_viscosity(self):
        traj, p = self._run()
        i = traj.index_at_time(0.1)
        pre, post = traj.window(0, i), traj.window(i, traj.n_samples - 1)
        assert pre.params is p and post.params.nu2 == 0.02
        assert post.params.nu1 == p.nu1 and post.params.forcing is p.forcing
        (dissipation,) = [c for c in check_apriori(post) if c.name == "v_dissipation_integral"]
        reduced = post.reductions["v"]
        h2_int = reduced[-1, 4] - reduced[0, 4]
        source_int = reduced[-1, 5] - reduced[0, 5]
        assert dissipation.lhs == 0.5 * 0.02 * h2_int
        assert dissipation.rhs == post.norm_series("v", "h1")[0] ** 2 + source_int / 0.02

    def test_spanning_run_raises(self):
        traj, _ = self._run()
        i = traj.index_at_time(0.1)
        for spanning in (traj, traj.window(i - 1, i + 1)):
            with pytest.raises(ValueError, match="t_switch = 0.1"):
                check_apriori(spanning)
        for side in (traj.window(0, i), traj.window(i, traj.n_samples - 1)):
            assert check_apriori(side)


def forcing_field(p, t):
    """The projected forcing at time t as a full field: the reference for its band half."""
    f = p.forcing
    return f if isinstance(f, SpectralField) else leray_project(f(t).band_limited())


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
        # The source the rounds measure, bit for bit the per-sample formula
        # on the band half: one `interpolate` call on one sample.
        for traj, p in TestStackedSource().cases():
            grid, refs = traj.grid, traj.snapshots["u"].coeffs
            want = []
            for i, t in enumerate(traj.times):
                seen = interpolate(BandStack(grid, refs[i : i + 1]), p.interp).coeffs
                f = forcing_band(p, grid, t)
                g = f + p.mu * project_coeffs(seen, *grid.band_projector)
                want.append(norms(BandStack(grid, g), l2_only=True)[0])
            got, want = traj.reductions["v"][:, 3], np.square(want)
            assert np.array_equal(bits(got[:1]), bits(want[:1]))
            assert np.array_equal(bits(got[1:]), bits(np.maximum(want[:-1], want[1:])))
