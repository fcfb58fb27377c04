"""Integrator tests: closed-form decay, observed order, guards, reproducibility."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from ns2dsens import dynamics
from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec, dq_field, with_viscosity2
from ns2dsens.interpolants import BoxAverage, SpectralProjection
from ns2dsens.spectral import (
    BandStack,
    GridSpec,
    SpectralField,
    band_full,
    band_half,
    bilinear,
    inner,
    leray_project,
    norm,
    random_field,
    taylor_green,
)
from ns2dsens.timestepper import (
    AdmissibilityError,
    AdmissibilityWarning,
    BlowupError,
    CFLWarning,
    SolverConfig,
    Trajectory,
    integrate,
    step_convergence_order,
)

GRID = GridSpec(32)
TG_RATE = 8 * np.pi**2


def tg_flow(grid, nu, t):
    return np.exp(-TG_RATE * nu * t) * taylor_green(grid)


def full_stack_reference(system, init, p, dt, n_steps, switch=None):
    """States after each step of a Heun start and CNAB2 steps on the full (F, 2, n, n) stack.

    The scheme as `integrate` defines it, written out mode by mode on whole
    spectra: tendencies from `SystemSpec.explicit_rhs`, expanded, and a
    per-field `leray_project` after every step.  switch = (step, params)
    changes the parameters from that step on.
    """
    grid = next(iter(init.values())).grid
    names = system.fields
    lam = grid.eigenvalues
    zero = SpectralField.zero(grid)

    def rhs(stack, q, t):
        state = BandStack(grid, band_half(stack, grid.cutoff))
        return band_full(system.explicit_rhs(state, q, t)[0], grid.n)

    state = np.stack([leray_project(init.get(name, zero).band_limited()).coeffs for name in names])
    states = [state]
    n_prev = None
    for step in range(n_steps):
        q = p if switch is None or step < switch[0] else switch[1]
        nu = np.array([system.viscosity(name, q) for name in names]).reshape(-1, 1, 1, 1)
        n_curr = rhs(state, q, step * dt)
        if n_prev is None:
            f0 = n_curr - nu * lam * state
            mid = state + dt * f0
            new = (rhs(mid, q, (step + 1) * dt) - nu * lam * mid + f0) * (0.5 * dt) + state
        else:
            a = 0.5 * dt * nu * lam
            new = ((1.5 * n_curr - 0.5 * n_prev) * dt + (1.0 - a) * state) / (1.0 + a)
        n_prev = n_curr
        state = np.stack([leray_project(SpectralField(grid, row)).coeffs for row in new])
        states.append(state)
    return states


def tg_sensitivity(grid, nu, t):
    return -TG_RATE * t * np.exp(-TG_RATE * nu * t) * taylor_green(grid)


class TestSolverConfig:
    def test_rejects_non_integral_horizon(self):
        with pytest.raises(ValueError, match="integer number of steps"):
            SolverConfig(dt=0.3, t_end=1.0)

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="does not divide"):
            SolverConfig(dt=0.1, t_end=1.0, sample_every=3)

    def test_rejects_dt_beyond_horizon(self):
        with pytest.raises(ValueError, match="exceeds"):
            SolverConfig(dt=2.0, t_end=1.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(dt=0.0, t_end=1.0), "dt must be positive"),
        (dict(dt=0.1, t_end=0.0), "t_end must be positive"),
        (dict(dt=0.1, t_end=1.0, sample_every=0), "sample_every must be a positive integer"),
    ])
    def test_rejects_nonpositive(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kwargs)

    def test_step_count(self):
        assert SolverConfig(dt=1e-3, t_end=1.0).n_steps == 1000


class TestTaylorGreenDecay:
    def test_flow_matches_exponential_decay(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.5, sample_every=100)
        traj = integrate(SystemSpec(SystemKind.NSE), {"u": taylor_green(GRID)}, p, cfg)
        want = tg_flow(GRID, 0.01, 0.5)
        err = norm(traj.final("u") - want) / norm(want)
        assert err < 1e-6

    def test_sensitivity_matches_closed_form(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.5, sample_every=100)
        traj = integrate(
            SystemSpec(SystemKind.NSE_SENS), {"u": taylor_green(GRID)}, p, cfg
        )
        want = tg_sensitivity(GRID, 0.01, 0.5)
        err = norm(traj.final("ut") - want) / norm(want)
        assert err < 1e-5

    def test_quotient_stack_tracks_algebraic_quotient(self):
        nu1, nu2 = 0.01, 0.005
        p = PhysicsParams(nu1=nu1, nu2=nu2)
        cfg = SolverConfig(dt=1e-3, t_end=0.5, sample_every=100)
        u0 = taylor_green(GRID)
        traj = integrate(SystemSpec(SystemKind.DQ_DIRECT), {"u1": u0, "u2": u0}, p, cfg)
        alg = dq_field(traj.final("u1"), traj.final("u2"), nu1, nu2)
        err = norm(traj.final("d") - alg) / norm(alg)
        assert err < 1e-6
        # and both agree with the closed form
        decay = (np.exp(-TG_RATE * nu1 * 0.5) - np.exp(-TG_RATE * nu2 * 0.5)) / (nu1 - nu2)
        want = decay * u0
        assert norm(traj.final("d") - want) / norm(want) < 1e-5


class TestObservedOrder:
    def test_second_order_on_closed_form(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=4e-3, t_end=0.5, sample_every=125)
        result = step_convergence_order(
            SystemSpec(SystemKind.NSE),
            {"u": taylor_green(GRID)},
            p,
            cfg,
            exact=lambda t: tg_flow(GRID, 0.01, t),
        )
        assert 1.8 <= result.order <= 2.2
        assert result.errors[0] > result.errors[1] > result.errors[2]

    def test_second_order_against_refined_reference(self):
        p = PhysicsParams(
            nu1=0.02, nu2=0.02, forcing=random_field(GRID, seed=40, kmin=2, kmax=6, l2_norm=0.5)
        )
        init = {"u": random_field(GRID, seed=41, kmin=1, kmax=6, l2_norm=0.5)}
        cfg = SolverConfig(dt=4e-3, t_end=0.2, sample_every=50)
        result = step_convergence_order(SystemSpec(SystemKind.NSE), init, p, cfg)
        assert 1.7 <= result.order <= 2.3

    @pytest.mark.parametrize("refinements, initial, match", [
        ((1, 1), "taylor_green", "distinct and increasing"),
        ((2, 1), "taylor_green", "distinct and increasing"),
        ((1, 2), "zero", "refinement 1 hit the rounding floor"),
    ])
    def test_unfittable_ladder_rejected(self, refinements, initial, match):
        # A zero start stays zero, and so does its error against the exact zero.
        u0 = taylor_green(GRID) if initial == "taylor_green" else SpectralField.zero(GRID)
        cfg = SolverConfig(dt=4e-3, t_end=0.02, sample_every=5)
        with pytest.raises(ValueError, match=match):
            step_convergence_order(SystemSpec(SystemKind.NSE), {"u": u0},
                                   PhysicsParams(nu1=0.01, nu2=0.01), cfg,
                                   exact=lambda t: u0, refinements=refinements)

    def test_degenerate_reference_rejected(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=4e-3, t_end=0.2, sample_every=50)
        with pytest.raises(ValueError, match="degenerate refinement"):
            step_convergence_order(
                SystemSpec(SystemKind.NSE),
                {"u": taylor_green(GRID)},
                p,
                cfg,
                refinements=(1, 2, 4),
                reference_refinement=4,
            )


class TestEnergyIdentity:
    def residual(self, dt):
        # d/dt (|u|^2 / 2) + nu ||u||^2 - (f, u) at interior samples, by
        # central differences; second-order accurate for the sampled flow.
        p = PhysicsParams(
            nu1=0.02, nu2=0.02, forcing=random_field(GRID, seed=50, kmin=2, kmax=6)
        )
        cfg = SolverConfig(dt=dt, t_end=0.1, sample_every=1)
        traj = integrate(
            SystemSpec(SystemKind.NSE),
            {"u": random_field(GRID, seed=51, kmin=1, kmax=6)},
            p,
            cfg,
        )
        f = p.forcing
        worst = 0.0
        for i in range(1, traj.n_samples - 1):
            e_prev = 0.5 * traj.norm_series("u")[i - 1] ** 2
            e_next = 0.5 * traj.norm_series("u")[i + 1] ** 2
            dedt = (e_next - e_prev) / (2 * dt)
            u_i = traj.snapshot("u", i)
            rhs = -p.nu1 * norm(u_i, "h1") ** 2 + inner(f, u_i)
            worst = max(worst, abs(dedt - rhs))
        return worst

    def test_balance_residual_is_second_order_small(self):
        coarse = self.residual(2e-3)
        fine = self.residual(1e-3)
        assert coarse < 0.05
        assert fine < coarse / 2.5


class TestGuards:
    def test_blowup_raises_with_history(self):
        p = PhysicsParams(
            nu1=1e-4, nu2=1e-4,
            forcing=random_field(GRID, seed=60, kmin=2, kmax=6, l2_norm=50.0),
        )
        cfg = SolverConfig(dt=0.25, t_end=50.0, sample_every=1)
        init = {"u": random_field(GRID, seed=61, kmin=1, kmax=6, l2_norm=5.0)}
        with warnings_ignored():
            with pytest.raises(BlowupError) as err:
                integrate(SystemSpec(SystemKind.NSE), init, p, cfg)
        assert err.value.field == "u"
        assert err.value.time > 0
        assert len(err.value.history["times"]) >= 1

    # The guard on crafted norms: `norms` is called once for the initial
    # state and once after every step, so call k + 1 is step k's, whose
    # state is at t = (k + 1) dt.  A case sets rows' L2 entries of some
    # steps' calls and expects what the guard gives for those values: the
    # first row past 1e6 ref_l2 (or not finite) with its time and value,
    # and the history of every sample taken before that step.  ref_l2 is
    # a row's initial L2, or for ut (zero at t = 0) max(largest initial
    # L2, 1).
    CFG = SolverConfig(dt=1e-3, t_end=0.012)

    @classmethod
    def _crafted_run(cls, monkeypatch, edits, sample_every=1):
        """Run NSE_SENS with edits {step: {name: value}} applied to its L2 norms.

        Returns the run's BlowupError (None when none is raised), the
        unpatched run's L2 series per row with the sampled edits applied,
        and its ref_l2 per row.
        """
        from ns2dsens import timestepper

        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = replace(cls.CFG, sample_every=sample_every)
        system = SystemSpec(SystemKind.NSE_SENS)
        init = {"u": random_field(GridSpec(16), seed=64, kmin=1, kmax=4, l2_norm=3.0)}
        clean = integrate(system, init, p, cfg)
        ref_l2 = {"u": clean.series["u"][0, 0], "ut": max(clean.series["u"][0, 0], 1.0)}
        l2 = {name: series[:, 0].copy() for name, series in clean.series.items()}
        for step, values in edits(ref_l2).items():
            if (step + 1) % sample_every == 0:
                for name, value in values.items():
                    l2[name][(step + 1) // sample_every] = value
        real_norms, calls = timestepper.norms, []

        def crafted(stack):
            out = real_norms(stack)
            for name, value in edits(ref_l2).get(len(calls) - 1, {}).items():
                out[system.fields.index(name), 0] = value
            calls.append(None)
            return out

        monkeypatch.setattr(timestepper, "norms", crafted)
        try:
            integrate(system, init, p, cfg)
        except BlowupError as exc:
            return exc, l2, ref_l2
        return None, l2, ref_l2

    @classmethod
    def _check_history(cls, err, l2, step, sample_every=1):
        taken = step // sample_every + 1
        assert err.time == (step + 1) * cls.CFG.dt
        times = np.arange(0, cls.CFG.n_steps + 1, sample_every) * cls.CFG.dt
        np.testing.assert_array_equal(err.history["times"], times[:taken])
        assert list(err.history["l2"]) == ["u", "ut"]
        for name, got in err.history["l2"].items():
            assert got.view(np.int64).tolist() == l2[name][:taken].view(np.int64).tolist()

    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_guard_reports_a_row_turned_nan(self, monkeypatch, sample_every):
        err, l2, _ = self._crafted_run(
            monkeypatch, lambda ref: {7: {"ut": np.nan}}, sample_every
        )
        assert err.field == "ut" and np.isnan(err.value)
        self._check_history(err, l2, 7, sample_every)

    def test_guard_reports_a_row_turned_inf(self, monkeypatch):
        err, l2, _ = self._crafted_run(monkeypatch, lambda ref: {4: {"u": np.inf}})
        assert err.field == "u" and err.value == np.inf
        self._check_history(err, l2, 4)

    @pytest.mark.parametrize("name", ["u", "ut"])
    def test_guard_fires_past_the_limit_not_at_it(self, monkeypatch, name):
        def edits(ref):
            limit = 1e6 * ref[name]
            return {2: {name: limit}, 5: {name: np.nextafter(limit, np.inf)}}

        err, l2, ref_l2 = self._crafted_run(monkeypatch, edits)
        assert err.field == name
        assert err.value == np.nextafter(1e6 * ref_l2[name], np.inf)
        self._check_history(err, l2, 5)

    def test_guard_at_the_limit_runs_to_the_end(self, monkeypatch):
        err, _, _ = self._crafted_run(
            monkeypatch, lambda ref: {k: {n: 1e6 * ref[n] for n in ref} for k in range(12)}
        )
        assert err is None

    def test_guard_reports_the_first_of_two_rows(self, monkeypatch):
        err, l2, ref_l2 = self._crafted_run(
            monkeypatch, lambda ref: {3: {"u": 2e6 * ref["u"], "ut": np.nan}}
        )
        assert err.field == "u" and err.value == 2e6 * ref_l2["u"]
        self._check_history(err, l2, 3)

    def test_cfl_warning(self):
        p = PhysicsParams(nu1=0.05, nu2=0.05)
        cfg = SolverConfig(dt=0.01, t_end=0.03, sample_every=1)
        init = {"u": random_field(GRID, seed=62, kmin=1, kmax=4, l2_norm=2.0)}
        with pytest.warns(CFLWarning):
            integrate(SystemSpec(SystemKind.NSE), init, p, cfg)

    # A decaying run whose CFL estimate rises from 0.472 at t = 0 to 0.514 at
    # step 17 and falls back to 0.486 at step 32, sampled at t = 0 and t_end
    # only.  Over 32 steps every excursion lies between the samples.  Over 12
    # steps (0.498 at step 11, 0.502 at step 12) only the final state, which
    # no round sees, exceeds the limit.
    @pytest.mark.parametrize("steps", [32, 12], ids=["between_samples", "final_state"])
    def test_cfl_excursion_between_samples_warns(self, steps):
        p = PhysicsParams(nu1=1e-3, nu2=1e-3)
        dt = 0.0032
        cfg = SolverConfig(dt=dt, t_end=steps * dt, sample_every=steps)
        init = {"u": random_field(GRID, seed=0, kmin=1, kmax=4, l2_norm=2.0)}
        with pytest.warns(CFLWarning):
            traj = integrate(SystemSpec(SystemKind.NSE), init, p, cfg)
        cfl = [dt * GRID.n * field.max_speed() for field in traj.snapshots["u"]]
        value, t = traj.peak_cfl
        assert value > 0.5
        if steps == 32:
            assert max(cfl) < 0.5
            assert 0 < t < cfg.t_end
        else:
            assert cfl[0] < 0.5 < cfl[1]
            assert (value, t) == (cfl[1], traj.times[1])

    def test_cfl_warns_once_and_records_peak(self):
        p = PhysicsParams(nu1=0.05, nu2=0.05)
        dt = 0.01
        cfg = SolverConfig(dt=dt, t_end=0.2, sample_every=1)
        init = {"u": random_field(GRID, seed=62, kmin=1, kmax=4, l2_norm=2.0)}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = integrate(SystemSpec(SystemKind.NSE), init, p, cfg)
        cfl = np.array([dt * GRID.n * field.max_speed() for field in traj.snapshots["u"]])
        assert (cfl > 0.5).sum() > 10
        assert [w.category for w in caught] == [CFLWarning]
        # Every step is a sample, so the samples hold every checked state.
        # n = 32 is not divisible by 3, so the rounds read the n-grid values
        # through another transform path: equal within ROUND_SPEED_RTOL.
        value, t = traj.peak_cfl
        assert value == pytest.approx(cfl.max(), rel=ROUND_SPEED_RTOL, abs=0)
        assert t == traj.times[int(cfl.argmax())]
        assert traj.window(0, 3).peak_cfl == traj.peak_cfl

    def test_nudging_stability_gate(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=50.0, interp=SpectralProjection(modes=8))
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        init = {"u": taylor_green(GRID), "v": SpectralField.zero(GRID)}
        with pytest.raises(ValueError, match="dt \\* mu"):
            integrate(SystemSpec(SystemKind.DA), init, p, cfg)

    def test_nudging_stability_gate_boundary(self):
        # dt = 1/8 and mu = 8 give dt * mu = 1 exactly, which is allowed; the
        # gate tolerates 1e-12 and fires at the next float beyond it.
        interp = SpectralProjection(modes=8)
        cfg = SolverConfig(dt=0.125, t_end=0.25)
        init = {"u": 0.01 * taylor_green(GRID), "v": SpectralField.zero(GRID)}
        traj = integrate(
            SystemSpec(SystemKind.DA), init, PhysicsParams(0.01, 0.01, mu=8.0, interp=interp), cfg
        )
        assert traj.n_samples == 3
        mu = np.nextafter(8.0 * (1.0 + 1e-12), np.inf)
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=mu, interp=interp)
        with pytest.raises(ValueError, match="dt \\* mu"):
            integrate(SystemSpec(SystemKind.DA), init, p, cfg)

    def test_admissibility_gate_raises(self):
        # mu c0 h^2 = 50 / (4 pi^2 81) ~ 1.56e-2 > nu = 0.01.
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=50.0, interp=SpectralProjection(modes=8))
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=10)
        init = {"u": taylor_green(GRID), "v": SpectralField.zero(GRID)}
        with pytest.raises(AdmissibilityError, match="admissibility"):
            integrate(SystemSpec(SystemKind.DA), init, p, cfg)

    def test_admissibility_gate_demotable(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=50.0, interp=SpectralProjection(modes=8))
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=10)
        init = {"u": taylor_green(GRID), "v": SpectralField.zero(GRID)}
        with pytest.warns(AdmissibilityWarning):
            traj = integrate(
                SystemSpec(SystemKind.DA), init, p, cfg, enforce_admissibility=False
            )
        assert traj.n_samples == 2


# Rounding bound for a round's peak speed against max|u| of the same grid
# values formed by another transform path, relative to max|u|: both values
# come from O(log m) butterfly stages of complex128 arithmetic on at most
# 2 (2K + 1)(K + 1) band modes, so a few hundred ulp covers them.
ROUND_SPEED_RTOL = 1e-13


class TestRoundPeakSpeed:
    """The peak speed an `explicit_rhs` round reads off its advective products."""

    @staticmethod
    def product_grid_speed(field, m):
        """max|u| over the m-grid values of a band-limited field, by a complex ifft2."""
        K = field.grid.cutoff
        idx = np.r_[0 : K + 1, -K:0]
        padded = np.zeros((2, m, m), dtype=np.complex128)
        padded[:, idx[:, None], idx] = field.coeffs[:, idx[:, None], idx]
        ux, uy = np.fft.ifft2(padded, norm="forward").real
        return float(np.sqrt(ux**2 + uy**2).max())

    @pytest.mark.parametrize("n", [24, 30, 32, 48])
    @pytest.mark.parametrize("kind", [SystemKind.DA, SystemKind.NSE_SENS, SystemKind.DQ_DIRECT])
    def test_matches_grid_values(self, n, kind):
        grid = GridSpec(n)
        system = SystemSpec(kind)
        # Derivative rows are ten times faster, so counting one would show.
        init = {
            name: random_field(
                grid, seed=80 + i, kmin=1, kmax=6,
                l2_norm=1.0 + i if name in system.advecting_fields else 10.0,
            )
            for i, name in enumerate(system.fields)
        }
        state = BandStack.of([init[name] for name in system.fields])
        _, speed = system.explicit_rhs(state, PhysicsParams(nu1=0.01, nu2=0.008), 0.0)
        advecting = [init[name] for name in system.advecting_fields]
        if n % 3:
            # The product grid is the n-grid: the values `physical` gives.
            ref = max(f.max_speed() for f in advecting)
        else:
            # The padded product grid, m = n + 2.
            ref = max(self.product_grid_speed(f, grid.product_n) for f in advecting)
        assert speed == pytest.approx(ref, rel=ROUND_SPEED_RTOL, abs=0)

    def test_linear_only_round_reads_no_speed(self):
        state = BandStack.of([taylor_green(GRID)])
        _, speed = SystemSpec(SystemKind.NSE, linear_only=True).explicit_rhs(
            state, PhysicsParams(nu1=0.01, nu2=0.01), 0.0
        )
        assert speed == 0.0


class TestStateHandling:
    def test_missing_field_rejected(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=10)
        with pytest.raises(ValueError, match="missing initial data"):
            integrate(SystemSpec(SystemKind.DA), {"u": taylor_green(GRID)}, p, cfg)

    def test_unknown_field_rejected(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=10)
        init = {"u": taylor_green(GRID), "w": taylor_green(GRID)}
        with pytest.raises(ValueError, match="unknown fields"):
            integrate(SystemSpec(SystemKind.NSE), init, p, cfg)

    def test_no_field_or_a_field_on_another_grid_rejected(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=10)
        with pytest.raises(ValueError, match="at least one field"):
            integrate(SystemSpec(SystemKind.DA), {}, p, cfg)
        init = {"u": taylor_green(GRID), "v": taylor_green(GridSpec(16))}
        with pytest.raises(ValueError, match="field 'v' is on grid 16, expected 32"):
            integrate(SystemSpec(SystemKind.DA), init, p, cfg)

    def test_quotient_fields_default_to_zero(self):
        p = PhysicsParams(nu1=0.01, nu2=0.005)
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=10)
        u0 = taylor_green(GRID)
        traj = integrate(SystemSpec(SystemKind.DQ_DIRECT), {"u1": u0, "u2": u0}, p, cfg)
        assert norm(traj.snapshot("d", 0)) == 0.0

    def test_initial_data_projected_on_ingestion(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=10)
        raw = random_field(GRID, seed=63, solenoidal=False)
        traj = integrate(SystemSpec(SystemKind.NSE), {"u": raw}, p, cfg)
        assert traj.snapshot("u", 0).divergence_max() < 1e-13

    def test_sampling_covers_endpoints(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.02, sample_every=5)
        traj = integrate(SystemSpec(SystemKind.NSE), {"u": taylor_green(GRID)}, p, cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.02, abs=1e-12)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.n_samples == 5

    def test_projection_drift_is_rounding_level(self):
        p = PhysicsParams(
            nu1=0.01, nu2=0.01, forcing=random_field(GRID, seed=64, kmin=2, kmax=6)
        )
        cfg = SolverConfig(dt=1e-3, t_end=0.1, sample_every=10)
        init = {"u": random_field(GRID, seed=65, kmin=1, kmax=6)}
        traj = integrate(SystemSpec(SystemKind.NSE), init, p, cfg)
        assert traj.max_projection_drift < 1e-13

    def test_window_slicing(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        cfg = SolverConfig(dt=1e-3, t_end=0.02, sample_every=5)
        traj = integrate(SystemSpec(SystemKind.NSE), {"u": taylor_green(GRID)}, p, cfg)
        win = traj.window(1, 3)
        assert win.n_samples == 3
        assert win.times[0] == traj.times[1]
        assert np.array_equal(win.norm_series("u"), traj.norm_series("u")[1:4])
        assert traj.index_at_time(0.015) == 3
        with pytest.raises(ValueError, match="not a sample time"):
            traj.index_at_time(0.0125)
        for i0, i1 in ((2, 2), (3, 1), (0, traj.n_samples)):
            with pytest.raises(ValueError, match="bad window"):
                traj.window(i0, i1)


class TestSampleStorage:
    @pytest.fixture(scope="class")
    def traj(self):
        grid = GridSpec(48)
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=10.0, interp=SpectralProjection(modes=8))
        cfg = SolverConfig(dt=1e-3, t_end=0.01, sample_every=1)
        init = {
            "u": random_field(grid, seed=66, kmin=1, kmax=6),
            "v": random_field(grid, seed=67, kmin=1, kmax=6, l2_norm=0.5),
        }
        return integrate(SystemSpec(SystemKind.DA), init, p, cfg)

    def test_holds_one_band_half_sample_array(self, traj):
        # S samples of F = 2 fields, each 2 components of (2K + 1)(K + 1)
        # complex128 modes: the whole store, with no expanded spectra kept.
        held = {id(s.coeffs.base): s.coeffs.base for s in traj.snapshots.values()}
        (samples,) = held.values()
        K = traj.grid.cutoff
        assert samples.nbytes == traj.n_samples * 2 * 2 * (2 * K + 1) * (K + 1) * 16
        assert not samples.flags.writeable

    def test_snapshots_are_read_only(self, traj):
        for name in ("u", "v"):
            assert not traj.snapshots[name].coeffs.flags.writeable
            field = traj.snapshot(name, 3)
            with pytest.raises(ValueError, match="read-only"):
                field.coeffs[0, 1, 1] = 1.0

    def test_repeated_reads_are_equal(self, traj):
        for name in ("u", "v"):
            first, again = traj.snapshot(name, 5), traj.snapshot(name, 5)
            assert np.array_equal(first.coeffs, again.coeffs)

    def test_window_and_final_read_the_same_samples(self, traj):
        win = traj.window(2, 6)
        for name in ("u", "v"):
            snaps = traj.snapshots[name]
            assert len(win.snapshots[name]) == 5
            for j, field in enumerate(win.snapshots[name]):
                assert np.array_equal(field.coeffs, snaps[2 + j].coeffs)
            assert np.array_equal(win.final(name).coeffs, snaps[6].coeffs)
            last = snaps[traj.n_samples - 1].coeffs
            assert np.array_equal(traj.final(name).coeffs, last)
            assert np.array_equal(snaps[-1].coeffs, last)

    def test_samples_are_one_numpy_array_at_every_size(self):
        # At n = 48 a DA sample is 35,904 bytes: 121 samples make 4.34 MB, 61
        # make 2.19 MB, on either side of numpy's 4 MiB huge-page advice.
        # Both are arrays numpy allocated, read-only, holding the same bits.
        grid = GridSpec(48)
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=1.0, interp=SpectralProjection(modes=4))
        init = {
            "u": random_field(grid, seed=93, kmin=1, kmax=6),
            "v": random_field(grid, seed=94, kmin=1, kmax=6, l2_norm=0.5),
        }
        each, every_other = (
            integrate(SystemSpec(SystemKind.DA), init, p,
                      SolverConfig(dt=1e-3, t_end=0.12, sample_every=k)).snapshots
            for k in (1, 2)
        )
        big, small = each["u"].coeffs.base, every_other["u"].coeffs.base
        assert big.nbytes >= 4 << 20 > small.nbytes
        for samples in (big, small):
            assert samples.base is None and samples.flags.owndata
            assert not samples.flags.writeable
        for name in ("u", "v"):
            assert np.array_equal(each[name].coeffs[::2], every_other[name].coeffs)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        p = PhysicsParams(
            nu1=0.01, nu2=0.008, forcing=random_field(GRID, seed=70, kmin=2, kmax=6)
        )
        cfg = SolverConfig(dt=1e-3, t_end=0.05, sample_every=10)
        init = {"u1": taylor_green(GRID), "u2": taylor_green(GRID)}
        a = integrate(SystemSpec(SystemKind.DQ_DIRECT), init, p, cfg)
        b = integrate(SystemSpec(SystemKind.DQ_DIRECT), init, p, cfg)
        for name in ("u1", "u2", "d"):
            assert np.array_equal(a.final(name).coeffs, b.final(name).coeffs)


    @pytest.mark.parametrize("kind, named", [
        (SystemKind.NSE_SENS, [("u", "u"), ("ut", "u"), ("u", "ut")]),
        (SystemKind.DA_SENS, [
            ("u", "u"), ("ut", "u"), ("u", "ut"), ("v", "v"), ("vt", "v"), ("v", "vt"),
        ]),
        (SystemKind.DA_DQ_DIRECT, [
            ("u1", "u1"), ("u2", "u2"), ("u2", "d"), ("d", "u1"),
            ("v1", "v1"), ("v2", "v2"), ("v2", "dp"), ("dp", "v1"),
        ]),
    ])
    def test_one_stacked_bilinear_call_per_round(self, monkeypatch, kind, named):
        # Every product of a round comes from one stacked call.  A
        # sensitivity row's second product mirrors its first and reads its
        # planes; each product must still be the bytes of its pair formed
        # alone.
        p = PhysicsParams(
            nu1=0.01, nu2=0.008, mu=2.0, interp=SpectralProjection(modes=8),
            forcing=random_field(GRID, seed=71, kmin=2, kmax=6),
        )
        init = {
            "u1": taylor_green(GRID),
            "u2": random_field(GRID, seed=74, kmin=1, kmax=6),
            "d": random_field(GRID, seed=75, kmin=1, kmax=6),
            "v1": random_field(GRID, seed=72, kmin=1, kmax=6),
            "v2": random_field(GRID, seed=73, kmin=1, kmax=6),
            "dp": random_field(GRID, seed=76, kmin=1, kmax=6),
        }
        init.update(u=init["u1"], ut=init["d"], v=init["v1"], vt=init["dp"])
        system = SystemSpec(kind)
        fields = [init[name] for name in system.fields]
        state = BandStack.of(fields)
        calls = []

        def recording(*args):
            calls.append((args, bilinear(*args)))
            return calls[-1][1]

        monkeypatch.setattr(dynamics, "bilinear", recording)
        system.explicit_rhs(state, p, 0.0)
        ((stack, pairs), products), = calls
        assert stack is state
        assert [(system.fields[a], system.fields[b]) for a, b in pairs] == named
        for got, (a, b) in zip(products.fields(), pairs, strict=True):
            assert np.array_equal(got.coeffs, bilinear(fields[a], fields[b]).coeffs)

        # Without advection a round transforms nothing.
        transforms = []
        for name in ("irfft2", "rfft2", "ifftn", "irfftn", "fftn", "rfftn"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *a, fn=fn, **k: transforms.append(fn) or fn(*a, **k)
            )
        SystemSpec(kind, linear_only=True).explicit_rhs(state, p, 0.0)
        assert len(calls) == 1 and transforms == []


class TestFullStackReference:
    @pytest.mark.parametrize("n", [24, 32])
    @pytest.mark.parametrize("kind", [SystemKind.NSE_SENS, SystemKind.DA])
    @pytest.mark.parametrize("nu_new", [None, 0.012])
    def test_band_half_steps_match_full_stack(self, n, kind, nu_new):
        # n = 24 takes the padded product path; mu c0 h^2 = 1 / (16 pi^2) < nu.
        grid = GridSpec(n)
        p = PhysicsParams(
            nu1=0.01, nu2=0.008, mu=1.0, interp=BoxAverage(4),
            forcing=random_field(grid, seed=95, kmin=2, kmax=6),
        )
        init = {
            "u": random_field(grid, seed=96, kmin=1, kmax=6),
            "v": random_field(grid, seed=97, kmin=1, kmax=6, l2_norm=0.5),
        }
        system = SystemSpec(kind)
        init = {k: f for k, f in init.items() if k in system.fields}
        dt, n_steps = 1e-3, 4
        switch = None if nu_new is None else (2, with_viscosity2(p, nu_new))
        want = full_stack_reference(system, init, p, dt, n_steps, switch)
        traj = integrate(
            system, init, p, SolverConfig(dt=dt, t_end=n_steps * dt),
            nu2_switch=None if nu_new is None else (2 * dt, nu_new),
        )
        for row, name in enumerate(system.fields):
            got = traj.snapshots[name]
            assert len(got) == n_steps + 1
            for field, stack in zip(got, want):
                assert np.array_equal(field.coeffs, stack[row])


class TestSharedRows:
    @pytest.mark.parametrize("n", [24, 32])
    def test_rows_with_one_equation_agree_across_systems(self, n):
        # A field whose equation and inputs two systems share advances bit for
        # bit alike in both stacks, whatever its row index (n = 24 pads).
        grid = GridSpec(n)
        p = PhysicsParams(
            nu1=0.01, nu2=0.007, mu=2.0, interp=SpectralProjection(modes=4),
            forcing=random_field(grid, seed=90, kmin=2, kmax=6),
        )
        cfg = SolverConfig(dt=1e-3, t_end=6e-3, sample_every=2)
        u0 = random_field(grid, seed=91, kmin=1, kmax=6)
        v0 = random_field(grid, seed=92, kmin=1, kmax=6, l2_norm=0.5)
        init = {"u": u0, "u1": u0, "u2": u0, "v": v0, "v1": v0, "v2": v0}
        K, S = SystemKind, SystemSpec
        # Batched stacks: copy 0 at nu2 = nu1 holds the sensitivities, read
        # off u1 and v1, copy 1 the unbatched quotient rows at nu2.
        DQ2 = S(K.DQ_DIRECT, nu2s=("nu1", p.nu2))
        DA2 = S(K.DA_DQ_DIRECT, nu2s=("nu1", p.nu2))
        runs = {}
        for system in [S(kind) for kind in SystemKind] + [DQ2, DA2]:
            bases = {system.base(name) for name in system.fields}
            fields = {k: f for k, f in init.items() if k in bases}
            runs[system] = integrate(system, fields, p, cfg)
        groups = (
            ((S(K.NSE), "u"), (S(K.NSE_SENS), "u"), (S(K.DQ_DIRECT), "u1"),
             (S(K.DA_DQ_DIRECT), "u1"), (DQ2, "u1"), (DA2, "u1")),
            ((S(K.DA_SENS), "v"), (S(K.DA_DQ_DIRECT), "v1"), (DA2, "v1")),
            ((S(K.NSE_SENS), "ut"), (S(K.DA_SENS), "ut"), (DQ2, "d_0"), (DA2, "d_0")),
            ((S(K.DA_SENS), "vt"), (DA2, "dp_0")),
            ((S(K.DQ_DIRECT), "u2"), (S(K.DA_DQ_DIRECT), "u2"), (DQ2, "u2_1"), (DA2, "u2_1")),
            ((S(K.DQ_DIRECT), "d"), (S(K.DA_DQ_DIRECT), "d"), (DQ2, "d_1"), (DA2, "d_1")),
            ((S(K.DA_DQ_DIRECT), "v2"), (DA2, "v2_1")),
            ((S(K.DA_DQ_DIRECT), "dp"), (DA2, "dp_1")),
        )
        for (system0, name0), *rest in groups:
            want = runs[system0]
            for system, name in rest:
                got = runs[system]
                assert np.array_equal(got.series[name], want.series[name0])
                for a, b in zip(got.snapshots[name], want.snapshots[name0], strict=True):
                    assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("n", [24, 32])
    @pytest.mark.parametrize("kind", [SystemKind.DQ_DIRECT, SystemKind.DA_DQ_DIRECT])
    def test_batched_rows_equal_their_single_entry_runs(self, n, kind):
        # Batch invariance: every row of a run with nu2s = (a, b) is the same
        # row of the run with (a,) alone or (b,) alone, samples and norm
        # series bit for bit (int64 views, so signed zeros count).  Copy j's
        # rows are named name_j, so copy 1 of the batch is copy 0 of (b,).
        grid = GridSpec(n)
        p = PhysicsParams(
            nu1=0.01, nu2=0.01, mu=4.0, interp=BoxAverage(boxes=8),
            forcing=random_field(grid, seed=93, kmin=2, kmax=6),
        )
        cfg = SolverConfig(dt=1e-3, t_end=5e-3)
        init = {
            "u1": random_field(grid, seed=94, kmin=1, kmax=6),
            "u2": random_field(grid, seed=95, kmin=1, kmax=6),
            "v1": random_field(grid, seed=96, kmin=1, kmax=6, l2_norm=0.5),
            "v2": random_field(grid, seed=97, kmin=1, kmax=6, l2_norm=0.5),
        }
        a, b = 0.007, 0.013

        def run(nu2s):
            system = SystemSpec(kind, nu2s=nu2s)
            bases = {system.base(name) for name in system.fields}
            return integrate(system, {k: f for k, f in init.items() if k in bases}, p, cfg)

        batched = run((a, b))
        for alone, suffix in ((run((a,)), "_0"), (run((b,)), "_1")):
            for name in alone.snapshots:
                got = name[:-2] + suffix if name.endswith("_0") else name
                assert np.array_equal(
                    batched.series[got].view(np.int64), alone.series[name].view(np.int64)
                )
                assert np.array_equal(
                    batched.snapshots[got].coeffs.view(np.int64),
                    alone.snapshots[name].coeffs.view(np.int64),
                )


class TestViscositySwitch:
    def _da_setup(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=10.0, interp=SpectralProjection(modes=8))
        cfg = SolverConfig(dt=1e-3, t_end=0.2, sample_every=20)
        init = {
            "u": taylor_green(GRID),
            "v": random_field(GRID, seed=80, kmin=1, kmax=4, l2_norm=0.5),
        }
        return p, cfg, init

    def test_noop_switch_bit_identical(self):
        p, cfg, init = self._da_setup()
        plain = integrate(SystemSpec(SystemKind.DA), init, p, cfg)
        switched = integrate(
            SystemSpec(SystemKind.DA), init, p, cfg, nu2_switch=(0.1, p.nu2)
        )
        for name in ("u", "v"):
            for i in range(plain.n_samples):
                assert np.array_equal(
                    plain.snapshot(name, i).coeffs, switched.snapshot(name, i).coeffs
                )

    def test_real_switch_changes_solution(self):
        p, cfg, init = self._da_setup()
        plain = integrate(SystemSpec(SystemKind.DA), init, p, cfg)
        switched = integrate(
            SystemSpec(SystemKind.DA), init, p, cfg, nu2_switch=(0.1, 0.005)
        )
        assert np.array_equal(
            plain.snapshot("v", plain.index_at_time(0.1)).coeffs,
            switched.snapshot("v", switched.index_at_time(0.1)).coeffs,
        )
        assert norm(plain.final("v") - switched.final("v")) > 1e-8

    def test_switch_follows_piecewise_closed_form(self):
        # Stokes-only assimilating field with mu = 0: piecewise exponential.
        p = PhysicsParams(nu1=0.01, nu2=0.02)
        cfg = SolverConfig(dt=1e-3, t_end=0.2, sample_every=20)
        u0 = taylor_green(GRID)
        init = {"u": u0, "v": u0}
        traj = integrate(
            SystemSpec(SystemKind.DA, linear_only=True), init, p, cfg,
            nu2_switch=(0.1, 0.04),
        )
        factor = np.exp(-TG_RATE * 0.02 * 0.1) * np.exp(-TG_RATE * 0.04 * 0.1)
        want = factor * u0
        assert norm(traj.final("v") - want) / norm(want) < 1e-5

    def test_switch_validation(self):
        p, cfg, init = self._da_setup()
        with pytest.raises(ValueError, match="step boundary"):
            integrate(SystemSpec(SystemKind.DA), init, p, cfg, nu2_switch=(0.10005, 0.005))
        with pytest.raises(ValueError, match="strictly inside"):
            integrate(SystemSpec(SystemKind.DA), init, p, cfg, nu2_switch=(0.2, 0.005))
        with pytest.raises(ValueError, match="positive"):
            integrate(SystemSpec(SystemKind.DA), init, p, cfg, nu2_switch=(0.1, -1.0))

    def test_with_viscosity2_reuses_forcing(self):
        f = random_field(GRID, seed=81)
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=f)
        q = with_viscosity2(p, 0.02)
        assert q.forcing is p.forcing
        assert q.nu2 == 0.02
        assert q.nu1 == p.nu1


class warnings_ignored:
    def __enter__(self):
        import warnings

        self._cm = warnings.catch_warnings()
        self._cm.__enter__()
        warnings.simplefilter("ignore")
        return self

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)
