"""Right-hand side assemblies tested against closed forms and exact identities."""

import numpy as np
import pytest

from ns2dsens.diagnostics import check_apriori
from ns2dsens.dynamics import (
    PhysicsParams,
    SystemKind,
    SystemSpec,
    dq_field,
    forcing_at,
    with_viscosity2,
)
from ns2dsens.interpolants import BoxAverage, SpectralProjection, interpolate
from ns2dsens.spectral import (
    GridSpec,
    SpectralField,
    bilinear,
    leray_project,
    norm,
    random_field,
    stokes_apply,
    taylor_green,
)
from ns2dsens.timestepper import SolverConfig, integrate

GRID = GridSpec(32)
TG_RATE = 8 * np.pi**2
NSE = SystemSpec(SystemKind.NSE)
DA = SystemSpec(SystemKind.DA)
SENS = SystemSpec(SystemKind.NSE_SENS)
DA_SENS = SystemSpec(SystemKind.DA_SENS)
DQ = SystemSpec(SystemKind.DQ_DIRECT)
DA_DQ = SystemSpec(SystemKind.DA_DQ_DIRECT)


def coeffs_close(a, b, tol=1e-12):
    scale = max(np.abs(b.coeffs).max(), 1.0)
    return np.abs(a.coeffs - b.coeffs).max() <= tol * scale


class TestPhysicsParams:
    def test_rejects_bad_viscosity(self):
        with pytest.raises(ValueError, match="positive"):
            PhysicsParams(nu1=0.0, nu2=0.01)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PhysicsParams(nu1=0.01, nu2=0.01, mu=-1.0)

    def test_nudging_requires_interpolant(self):
        with pytest.raises(ValueError, match="interpolant"):
            PhysicsParams(nu1=0.01, nu2=0.01, mu=1.0)

    def test_constant_forcing_projected_on_ingestion(self):
        raw = random_field(GRID, seed=1, solenoidal=False)
        assert raw.divergence_max() > 1e-6
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=raw)
        assert p.forcing.divergence_max() < 1e-13

    def test_callable_forcing_projected_per_call(self):
        raw = random_field(GRID, seed=2, solenoidal=False)
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=lambda t: raw * (1.0 + t))
        f = forcing_at(p, GRID, 0.5)
        assert f.divergence_max() < 1e-13
        assert norm(f) == pytest.approx(1.5 * norm(forcing_at(p, GRID, 0.0)), rel=1e-12)

    def test_no_forcing_is_zero_field(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        assert norm(forcing_at(p, GRID, 3.0)) == 0.0

    def test_forcing_grid_mismatch(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=random_field(GridSpec(16), seed=3))
        with pytest.raises(ValueError, match="grid"):
            forcing_at(p, GRID, 0.0)


class TestFlowTendency:
    def test_taylor_green_closed_form(self):
        # B vanishes on the vortex array, leaving pure Stokes decay.
        p = PhysicsParams(nu1=0.02, nu2=0.02)
        u0 = taylor_green(GRID)
        got = NSE.rhs("u", {"u": u0}, p)
        want = -p.nu1 * TG_RATE * u0
        assert coeffs_close(got, want, tol=1e-12)

    def test_balanced_forcing_gives_steady_state(self):
        u0 = taylor_green(GRID)
        p = PhysicsParams(nu1=0.02, nu2=0.02, forcing=0.02 * TG_RATE * u0)
        assert norm(NSE.rhs("u", {"u": u0}, p)) < 1e-12

    def test_output_invariants(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=random_field(GRID, seed=4))
        u = random_field(GRID, seed=5, kmin=1, kmax=8)
        out = NSE.rhs("u", {"u": u}, p)
        out.validate(require_band=True)
        assert out.divergence_max() < 1e-12

    def test_linear_only_drops_advection(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        u = random_field(GRID, seed=6)
        got = SystemSpec(SystemKind.NSE, linear_only=True).rhs("u", {"u": u}, p)
        want = -p.nu1 * stokes_apply(u)
        assert np.array_equal(got.coeffs, want.coeffs)


class TestAssimilatedTendency:
    def test_equals_flow_tendency_when_synchronized(self):
        p = PhysicsParams(
            nu1=0.01, nu2=0.01, mu=5.0, interp=SpectralProjection(modes=4)
        )
        v = random_field(GRID, seed=7)
        got = DA.rhs("v", {"u": v, "v": v}, p)
        assert np.array_equal(got.coeffs, DQ.rhs("u2", {"u2": v}, p).coeffs)

    def test_equals_flow_tendency_when_gain_zero(self):
        p = PhysicsParams(nu1=0.01, nu2=0.012)
        v = random_field(GRID, seed=8)
        u = random_field(GRID, seed=9)
        got = DA.rhs("v", {"u": u, "v": v}, p)
        assert np.array_equal(got.coeffs, DQ.rhs("u2", {"u2": v}, p).coeffs)

    def test_nudging_pulls_toward_reference(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=5.0, interp=SpectralProjection(modes=10))
        u = random_field(GRID, seed=10, kmin=1, kmax=6)
        v = random_field(GRID, seed=11, kmin=1, kmax=6)
        pulled = DA.rhs("v", {"u": u, "v": v}, p) - DA.rhs("v", {"u": v, "v": v}, p)
        want = 5.0 * (u - v)  # projection keeps the whole annulus
        assert coeffs_close(pulled, want, tol=1e-12)

    def test_unobserved_scales_not_nudged(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=5.0, interp=SpectralProjection(modes=2))
        u = random_field(GRID, seed=12, kmin=4, kmax=8)
        v = random_field(GRID, seed=13, kmin=4, kmax=8)
        assert np.array_equal(
            DA.rhs("v", {"u": u, "v": v}, p).coeffs, DA.rhs("v", {"u": v, "v": v}, p).coeffs
        )

    def test_box_average_nudging_stays_band_limited(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=2.0, interp=BoxAverage(boxes=8))
        u = random_field(GRID, seed=14)
        v = random_field(GRID, seed=15)
        out = DA.rhs("v", {"u": u, "v": v}, p)
        out.validate(require_band=True)
        assert out.divergence_max() < 1e-12


class TestQuotientIdentities:
    """The quotient tendencies are exact algebraic consequences of the flow ones."""

    def test_dq_matches_tendency_quotient(self):
        nu1, nu2 = 0.01, 0.006
        p = PhysicsParams(nu1=nu1, nu2=nu2, forcing=random_field(GRID, seed=16))
        u1 = random_field(GRID, seed=17)
        u2 = random_field(GRID, seed=18)
        d = dq_field(u1, u2, nu1, nu2)
        state = {"u1": u1, "u2": u2, "d": d}
        got = DQ.rhs("d", state, p)
        want = dq_field(DQ.rhs("u1", state, p), DQ.rhs("u2", state, p), nu1, nu2)
        assert coeffs_close(got, want, tol=1e-10)

    def test_da_dq_matches_tendency_quotient(self):
        nu1, nu2 = 0.01, 0.008
        p = PhysicsParams(
            nu1=nu1, nu2=nu2, mu=1.0,
            interp=BoxAverage(boxes=8),
            forcing=random_field(GRID, seed=19),
        )
        u1 = random_field(GRID, seed=20)
        u2 = random_field(GRID, seed=21)
        v1 = random_field(GRID, seed=22)
        v2 = random_field(GRID, seed=23)
        d = dq_field(u1, u2, nu1, nu2)
        dp = dq_field(v1, v2, nu1, nu2)
        state = {"u1": u1, "u2": u2, "d": d, "v1": v1, "v2": v2, "dp": dp}
        got = DA_DQ.rhs("dp", state, p)
        lhs1 = DA_DQ.rhs("v1", state, p)
        lhs2 = DA_DQ.rhs("v2", state, p)
        want = dq_field(lhs1, lhs2, nu1, nu2)
        assert coeffs_close(got, want, tol=1e-10)

    def test_dq_field_rejects_equal_viscosities(self):
        u = random_field(GRID, seed=24)
        with pytest.raises(ValueError, match="distinct"):
            dq_field(u, u, 0.01, 0.01)

    def test_dq_field_value(self):
        a = random_field(GRID, seed=25)
        b = random_field(GRID, seed=26)
        d = dq_field(a, b, 0.012, 0.01)
        assert coeffs_close(d, (a - b) / 0.002, tol=1e-14)


class TestSensitivityTendency:
    def test_zero_state_reduces_to_stokes_coupling(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        u0 = taylor_green(GRID)
        got = SENS.rhs("ut", {"u": u0, "ut": SpectralField.zero(GRID)}, p)
        want = -TG_RATE * u0
        assert coeffs_close(got, want, tol=1e-12)

    def test_matches_finite_difference_of_flow_tendency(self):
        # d/d nu of the flow tendency at fixed state is -A u, so the
        # sensitivity equation evaluated on the quotient of nearby flow
        # tendencies must agree with the directional derivative.
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        u = random_field(GRID, seed=27)
        ut = random_field(GRID, seed=28)
        delta = 1e-6
        u_pert = u + delta * ut
        # u2 carries the perturbed viscosity nu1 + delta, u1 the unperturbed one.
        pair = {"u1": u, "u2": u_pert}
        p_pert = with_viscosity2(p, p.nu1 + delta)
        fd = (DQ.rhs("u2", pair, p_pert) - DQ.rhs("u1", pair, p_pert)) / delta
        got = SENS.rhs("ut", {"u": u, "ut": ut}, p)
        assert coeffs_close(got, fd, tol=2e-5)

    def test_da_sens_nudges_toward_reference_sensitivity(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, mu=3.0, interp=SpectralProjection(modes=10))
        v = random_field(GRID, seed=29, kmin=1, kmax=6)
        vt = random_field(GRID, seed=30, kmin=1, kmax=6)
        ut = random_field(GRID, seed=31, kmin=1, kmax=6)
        pulled = (
            DA_SENS.rhs("vt", {"v": v, "vt": vt, "ut": ut}, p)
            - DA_SENS.rhs("vt", {"v": v, "vt": vt, "ut": vt}, p)
        )
        want = 3.0 * (ut - vt)
        assert coeffs_close(pulled, want, tol=1e-12)


class TestSystemSpec:
    def test_field_lists(self):
        assert SystemSpec(SystemKind.NSE).fields == ("u",)
        assert SystemSpec(SystemKind.DA).fields == ("u", "v")
        assert SystemSpec(SystemKind.NSE_SENS).fields == ("u", "ut")
        assert SystemSpec(SystemKind.DA_SENS).fields == ("u", "ut", "v", "vt")
        assert SystemSpec(SystemKind.DQ_DIRECT).fields == ("u1", "u2", "d")
        assert SystemSpec(SystemKind.DA_DQ_DIRECT).fields == (
            "u1", "u2", "d", "v1", "v2", "dp",
        )

    def test_accepts_kind_string(self):
        assert SystemSpec("da_dq_direct").kind is SystemKind.DA_DQ_DIRECT

    def test_viscosity_assignment(self):
        p = PhysicsParams(nu1=0.01, nu2=0.005, mu=1.0, interp=BoxAverage(boxes=8))
        da = SystemSpec(SystemKind.DA)
        assert da.viscosity("u", p) == 0.01
        assert da.viscosity("v", p) == 0.005
        sens = SystemSpec(SystemKind.DA_SENS)
        assert sens.viscosity("v", p) == 0.01
        assert sens.viscosity("vt", p) == 0.01
        dq = SystemSpec(SystemKind.DA_DQ_DIRECT)
        assert dq.viscosity("u1", p) == 0.01
        assert dq.viscosity("v2", p) == 0.005
        assert dq.viscosity("dp", p) == 0.005

    def test_unknown_field_rejected(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        with pytest.raises(ValueError, match="no field"):
            SystemSpec(SystemKind.NSE).viscosity("v", p)

    def test_explicit_rhs_consistent_with_public_tendencies(self):
        # The module-docstring equations written out term by term, in the
        # order the assembly adds them, for every field of every system.
        p = PhysicsParams(
            nu1=0.01, nu2=0.007, mu=1.5,
            interp=BoxAverage(boxes=8),
            forcing=random_field(GRID, seed=32),
        )
        rng = np.random.default_rng(33)
        s = {
            name: random_field(GRID, rng)
            for name in ("u", "ut", "v", "vt", "u1", "u2", "d", "v1", "v2", "dp")
        }
        u, ut, v, vt, u1, u2, d, v1, v2, dp = s.values()
        nu1, nu2, A = p.nu1, p.nu2, stokes_apply
        f = forcing_at(p, GRID, 0.5)

        def nudge(target, current):
            diff = interpolate(target - current, p.interp)
            return p.mu * leray_project(diff.band_limited())

        for linear_only in (False, True):

            def B(a, b):
                return SpectralField.zero(GRID) if linear_only else bilinear(a, b)

            def flow(x):
                return f - B(x, x)

            def derivative(first, second, source):
                return -B(*first) - B(*second) - A(source)

            # Per field: everything but its own viscous term, and its viscosity.
            sens = (derivative((ut, u), (u, ut), u), nu1)
            quotient = (derivative((u2, d), (d, u1), u1), nu2)
            cases = {
                SystemKind.NSE: {"u": (flow(u), nu1)},
                SystemKind.DA: {"u": (flow(u), nu1), "v": (flow(v) + nudge(u, v), nu2)},
                SystemKind.NSE_SENS: {"u": (flow(u), nu1), "ut": sens},
                SystemKind.DA_SENS: {
                    "u": (flow(u), nu1),
                    "ut": sens,
                    "v": (flow(v) + nudge(u, v), nu1),
                    "vt": (derivative((vt, v), (v, vt), v) + nudge(ut, vt), nu1),
                },
                SystemKind.DQ_DIRECT: {
                    "u1": (flow(u1), nu1),
                    "u2": (flow(u2), nu2),
                    "d": quotient,
                },
                SystemKind.DA_DQ_DIRECT: {
                    "u1": (flow(u1), nu1),
                    "u2": (flow(u2), nu2),
                    "d": quotient,
                    "v1": (flow(v1) + nudge(u1, v1), nu1),
                    "v2": (flow(v2) + nudge(u2, v2), nu2),
                    "dp": (derivative((v2, dp), (dp, v1), v1) + nudge(d, dp), nu2),
                },
            }
            for kind, expected in cases.items():
                spec = SystemSpec(kind, linear_only=linear_only)
                assert tuple(expected) == spec.fields, kind
                for name, (explicit, nu) in expected.items():
                    want = explicit - nu * A(s[name])
                    own = spec.viscosity(name, p) * A(s[name])
                    got = spec.explicit_rhs(name, s, p, t=0.5) - own
                    assert np.abs(got.coeffs - want.coeffs).max() < 1e-14, (kind, name)
                    assert np.array_equal(spec.rhs(name, s, p, t=0.5).coeffs, got.coeffs)


# Per kind: field order, viscosity slot of every field, nudging targets,
# fields with zero initial data (the only ones without a-priori checks).
# Written out by hand so the table in dynamics is checked against the
# equations, not against itself.
_WIRING = {
    "nse": (("u",), ("nu1",), {}, ()),
    "da": (("u", "v"), ("nu1", "nu2"), {"v": "u"}, ()),
    "nse_sens": (("u", "ut"), ("nu1", "nu1"), {}, ("ut",)),
    "da_sens": (
        ("u", "ut", "v", "vt"), ("nu1",) * 4, {"v": "u", "vt": "ut"}, ("ut", "vt"),
    ),
    "dq_direct": (("u1", "u2", "d"), ("nu1", "nu2", "nu2"), {}, ("d",)),
    "da_dq_direct": (
        ("u1", "u2", "d", "v1", "v2", "dp"),
        ("nu1", "nu2", "nu2", "nu1", "nu2", "nu2"),
        {"v1": "u1", "v2": "u2", "dp": "d"},
        ("d", "dp"),
    ),
}


@pytest.mark.parametrize("kind", sorted(_WIRING))
def test_system_wiring_pinned(kind):
    fields, slots, nudged, zero = _WIRING[kind]
    grid = GridSpec(16)
    p = PhysicsParams(
        nu1=0.01, nu2=0.008, mu=1.0,
        interp=SpectralProjection(modes=4),
        forcing=random_field(grid, seed=40),
    )
    spec = SystemSpec(kind)
    assert spec.fields == fields
    assert [spec.viscosity(name, p) for name in fields] == [
        getattr(p, slot) for slot in slots
    ]
    assert dict(spec.nudged_fields) == nudged
    assert spec.zero_default_fields == frozenset(zero)

    init = {
        name: random_field(grid, seed=41 + i, l2_norm=0.5)
        for i, name in enumerate(fields)
        if name not in zero
    }
    traj = integrate(spec, init, p, SolverConfig(dt=1e-3, t_end=2e-3))
    checked = [name for name in fields if name not in zero]
    assert {c.name for c in check_apriori(traj)} == {
        f"{name}_{check}"
        for name in checked
        for check in ("h1_sup", "l2_sup", "dissipation_integral")
    }
