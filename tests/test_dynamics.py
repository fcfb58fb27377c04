"""Right-hand side assemblies tested against closed forms and exact identities."""

import numpy as np
import pytest

from ns2dsens.diagnostics import check_apriori
from ns2dsens.dynamics import (
    PhysicsParams,
    SystemKind,
    SystemSpec,
    dq_field,
    forcing_band,
    with_viscosity2,
    without_nudging,
)
from ns2dsens.interpolants import BoxAverage, SpectralProjection, interpolate
from ns2dsens.spectral import (
    BandStack,
    GridSpec,
    SpectralField,
    _plane_blocks,
    _plane_plan,
    band_half,
    bilinear,
    leray_project,
    norm,
    project_coeffs,
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


def projected_band(p, grid, t):
    """The reference for `forcing_band`: the band half of the projected full field.

    A constant forcing is the field projected on ingestion, a callable's
    value is band-limited and projected at full size; zeros when unforced.
    """
    f = p.forcing
    if f is None:
        return band_half(SpectralField.zero(grid).coeffs, grid.cutoff)
    field = f if isinstance(f, SpectralField) else leray_project(f(t).band_limited())
    return band_half(field.coeffs, grid.cutoff)


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

    def test_rejects_forcing_of_another_type(self):
        with pytest.raises(ValueError, match="a field or a callable"):
            PhysicsParams(nu1=0.01, nu2=0.01, forcing=random_field(GRID, seed=1).coeffs)

    def test_constant_forcing_projected_on_ingestion(self):
        raw = random_field(GRID, seed=1, solenoidal=False)
        assert raw.divergence_max() > 1e-6
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=raw)
        assert p.forcing.divergence_max() < 1e-13

    def test_callable_forcing_projected_per_call(self):
        raw = random_field(GRID, seed=2, solenoidal=False)
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=lambda t: raw * (1.0 + t))
        f, f0 = (BandStack(GRID, forcing_band(p, GRID, t)[None])[0] for t in (0.5, 0.0))
        assert f.divergence_max() < 1e-13
        assert norm(f) == pytest.approx(1.5 * norm(f0), rel=1e-12)

    def test_no_forcing_is_zero_field(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        assert forcing_band(p, GRID, 3.0) == 0.0

    def test_forcing_grid_mismatch(self):
        other = random_field(GridSpec(16), seed=3)
        for forcing in (other, lambda t: other):
            p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=forcing)
            with pytest.raises(ValueError, match="forcing grid 16 does not match state grid 32"):
                forcing_band(p, GRID, 0.0)


class TestForcingBand:
    def test_callable_forcing_enters_each_round_at_its_time(self):
        # On a zero state a flow row's round is the forcing's band half alone.
        raw = random_field(GRID, seed=4, kmin=2, kmax=6)
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=lambda t: raw * (1.0 + t))
        zero = BandStack.of([SpectralField.zero(GRID)])
        rounds = {t: NSE.explicit_rhs(zero, p, t)[0][0] for t in (0.0, 0.5)}
        for t, got in rounds.items():
            assert np.array_equal(got, projected_band(p, GRID, t))
        assert np.allclose(rounds[0.5], 1.5 * rounds[0.0], rtol=0, atol=1e-15)
        assert not np.array_equal(rounds[0.5], rounds[0.0])
        assert "_forcing_band" not in vars(p)

    @pytest.mark.parametrize("n", [16, 24, 48])
    def test_callable_band_half_has_the_bits_of_the_full_projection(self, n):
        # A callable's value is projected on its band half, never at full size.
        grid = GridSpec(n)
        raw = SpectralField.from_physical(grid, np.random.default_rng(n).standard_normal((2, n, n)))
        assert raw.divergence_max() > 1e-6 and (raw.coeffs * ~grid.band_mask).any()
        values = (random_field(grid, seed=n), random_field(grid, seed=n, solenoidal=False), raw)
        for value in values:
            p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=lambda t, v=value: v * (1.0 + t))
            for t in (0.0, 0.37):
                got, want = forcing_band(p, grid, t), projected_band(p, grid, t)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_copies_form_their_own_band_and_give_the_same_rounds(self):
        p = PhysicsParams(
            nu1=0.01, nu2=0.007, mu=1.5, interp=BoxAverage(boxes=8),
            forcing=random_field(GRID, seed=5, kmin=2, kmax=6),
        )
        state = BandStack.of([random_field(GRID, seed=6), random_field(GRID, seed=7)])
        u_row = DA.explicit_rhs(state, p, 0.0)[0][0]  # forms p's band half first
        same = with_viscosity2(p, p.nu2)
        unnudged = without_nudging(p)
        rounds = [DA.explicit_rhs(state, q, 0.0)[0] for q in (p, same)]
        assert np.array_equal(rounds[0], rounds[1])
        assert np.array_equal(DA.explicit_rhs(state, unnudged, 0.0)[0][0], u_row)
        for q in (same, unnudged):
            assert q._forcing_band is not p._forcing_band
            assert np.array_equal(q._forcing_band, p._forcing_band)
            assert not q._forcing_band.flags.writeable

    def test_forcing_on_another_grid_raises_every_round(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01, forcing=random_field(GridSpec(16), seed=3))
        state = BandStack.of([random_field(GRID, seed=8)])
        for _ in range(2):
            with pytest.raises(ValueError, match="grid"):
                NSE.explicit_rhs(state, p, 0.0)

    def test_absent_forcing_is_zero_in_every_row(self):
        p = PhysicsParams(nu1=0.01, nu2=0.01)
        zero = BandStack.of([SpectralField.zero(GRID)])
        assert forcing_band(p, GRID, 1.0) == 0.0
        assert not NSE.explicit_rhs(zero, p, 1.0)[0].any()


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
        # Batched: the nu1 rows once, then one renamed copy of the nu2 rows per value.
        assert SystemSpec(SystemKind.DA_DQ_DIRECT, nu2s=(0.01, 0.02)).fields == (
            "u1", "v1", "u2_0", "d_0", "v2_0", "dp_0", "u2_1", "d_1", "v2_1", "dp_1",
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
        batched = SystemSpec(SystemKind.DA_DQ_DIRECT, nu2s=(0.02, 0.03))
        assert batched.viscosity("v1", p) == 0.01
        assert batched.viscosity("dp_0", p) == 0.02
        assert batched.viscosity("u2_1", p) == 0.03
        assert batched.rows["dp_1"].products == (("v2_1", "dp_1"), ("dp_1", "v1"))
        assert batched.rows["dp_1"].nudge_to == "d_1"
        assert batched.base("dp_1") == "dp"

    def test_nu1_copy_reads_the_nu1_flows(self):
        # At nu2 = nu1, u2 and v2 obey the u1 and v1 equations, so a "nu1"
        # copy reads those rows and adds only its derivative rows.
        spec = SystemSpec(SystemKind.DA_DQ_DIRECT, nu2s=("nu1", 0.02))
        assert spec.fields == ("u1", "v1", "d_0", "dp_0", "u2_1", "d_1", "v2_1", "dp_1")
        d0, dp0 = spec.rows["d_0"], spec.rows["dp_0"]
        assert d0.products == (("u1", "d_0"), ("d_0", "u1"))
        assert (d0.source, d0.nudge_to) == ("u1", None)
        assert dp0.products == (("v1", "dp_0"), ("dp_0", "v1"))
        assert (dp0.source, dp0.nudge_to) == ("v1", "d_0")
        assert spec.rows["dp_1"].products == (("v2_1", "dp_1"), ("dp_1", "v1"))
        assert spec.base("dp_0") == "dp"
        for nu2 in (0.005, 0.01, 0.03):
            p = PhysicsParams(nu1=0.01, nu2=nu2)
            assert spec.viscosity("d_0", p) == spec.viscosity("dp_0", p) == p.nu1
        # d_0's two products are a mirror pair: the kernel forms one tensor,
        # 3 planes, for both.
        d0_at = spec.fields.index("d_0")
        own = tuple(pair for pair in spec.wiring.pairs if d0_at in pair)
        assert own == ((0, d0_at), (d0_at, 0))
        forms, n_planes, _ = _plane_plan(own)
        assert (len(forms), n_planes) == (1, 3)

    @pytest.mark.parametrize("bad", ["nu2", 0, -1])
    def test_bad_nu2s_entry_rejected(self, bad):
        with pytest.raises(ValueError):
            SystemSpec(SystemKind.DA_DQ_DIRECT, nu2s=("nu1", bad))

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
        f = p.forcing  # constant: projected on ingestion

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
                state = BandStack.of([s[name] for name in spec.fields])
                rows = BandStack(GRID, spec.explicit_rhs(state, p, t=0.5)[0]).fields()
                for row, (name, (explicit, nu)) in zip(rows, expected.items()):
                    want = explicit - nu * A(s[name])
                    own = spec.viscosity(name, p) * A(s[name])
                    got = row - own
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


def test_da_sens_round_views_its_operand_rows():
    # u, ut, v, vt are rows 0..3: the self-products read u and v as rows
    # 0::2, the cross products ut and vt as rows 1::2 against them, and the
    # nudging reads v, vt against u, ut.  All are slices, so no round
    # gathers an operand row.
    wiring = DA_SENS.wiring
    blocks = _plane_blocks(_plane_plan(wiring.pairs)[0])
    assert [(a, b) for a, b, _, _ in blocks] == [
        (slice(0, 3, 2), slice(0, 3, 2)), (slice(1, 4, 2), slice(0, 3, 2)),
    ]
    assert (wiring.nudged, wiring.targets) == (slice(2, 4, 1), slice(0, 2, 1))


def assembled_rows(spec, state, p, t):
    """Every row of explicit_rhs assembled on its own, term by term, from the field table.

    Forcing (or, for a derivative row, the negated first product), minus the
    remaining products in row order, minus the Stokes source, plus the
    nudging term of that row's difference alone.  The products come from one
    stacked `bilinear` call, the kernel's own business.
    """
    g, c = state.grid, state.coeffs
    k, inv_k_sq, lam = g.band_tables
    at = {name: i for i, name in enumerate(spec.fields)}
    f = projected_band(p, g, t)
    pairs = [row.products or ((name, name),) for name, row in spec.rows.items()]
    flat = tuple((at[a], at[b]) for row_pairs in pairs for a, b in row_pairs)
    if spec.linear_only:
        products = np.zeros((len(flat),) + c.shape[1:], dtype=np.complex128)
    else:
        products = bilinear(state, flat).coeffs
    terms = iter(products)
    out = []
    for (name, row), row_pairs in zip(spec.rows.items(), pairs):
        acc = -next(terms) if row.role == "derivative" else f - next(terms)
        for _ in row_pairs[1:]:
            acc = acc - next(terms)
        if row.source is not None:
            acc = acc - c[at[row.source]] * lam
        if p.mu > 0 and row.nudge_to is not None:
            diff = c[[at[row.nudge_to]]] - c[[at[name]]]
            seen = interpolate(BandStack(g, diff), p.interp).coeffs
            acc = acc + (p.mu * project_coeffs(seen, k, inv_k_sq))[0]
        out.append(acc)
    return out


@pytest.mark.parametrize("n", [24, 32])
@pytest.mark.parametrize("forcing", ["constant", "callable", "absent"])
@pytest.mark.parametrize("nudging", ["none", "box", "spectral"])
def test_explicit_rhs_bits_match_per_row_assembly(n, forcing, nudging):
    # Equal bits, signed zeros included: the one-buffer assembly must do each
    # row's operations in the per-row order (n = 24 runs the padded kernel).
    grid = GridSpec(n)
    raw = random_field(grid, seed=50, kmin=2, kmax=6)
    p = PhysicsParams(
        nu1=0.01, nu2=0.007,
        mu={"none": 0.0, "box": 1.5, "spectral": 2.0}[nudging],
        interp={"none": None, "box": BoxAverage(boxes=8),
                "spectral": SpectralProjection(modes=4)}[nudging],
        forcing={"constant": raw, "callable": lambda t: raw * (1.0 + t),
                 "absent": None}[forcing],
    )
    specs = [SystemSpec(kind, linear_only=lo) for kind in SystemKind for lo in (False, True)]
    specs.append(SystemSpec(SystemKind.DA_DQ_DIRECT, nu2s=("nu1", 0.007)))
    for spec in specs:
        state = BandStack.of([random_field(grid, seed=51 + i) for i in range(len(spec.fields))])
        got, _, _ = spec.explicit_rhs(state, p, 0.5)
        want = assembled_rows(spec, state, p, 0.5)
        assert len(got) == len(want)
        for name, row, expected in zip(spec.fields, got, want):
            assert np.array_equal(row.view(np.int64), expected.view(np.int64)), (spec, name)


# Byte size of each workspace role after one warm round, in a fresh thread
# (each thread has its own buffers, so no earlier call has grown them).
# The kernel's grid is m = `product_n`, its band K = n // 3, and F rows make
# P product planes for D pairs.  "ping" holds the padded half spectrum
# F 2 m (m / 2 + 1) complex, then the planes P m m float, then the band work
# (P + D)(2K + 1)(K + 1) complex; "pong" holds the grid values F 2 m m float,
# then the forward spectrum P m (m / 2 + 1) complex.  Each role is its largest.
# - NSE_SENS at n = 256: m = 256, K = 85, F = 2; pairs (u, u), (ut, u),
#   (u, ut) make P = 2 + 3 and D = 3.  ping = max(2,113,536, 2,621,440,
#   1,882,368) and pong = max(2,097,152, 2,641,920).
# - DA at n = 48 (box-average nudging): m = 50, K = 16, F = 2; pairs (u, u),
#   (v, v) make P = 2 + 2 and D = 2.  ping = max(83,200, 80,000, 53,856) and
#   pong = max(80,000, 83,200).
_FOOTPRINT = {
    (SystemKind.NSE_SENS, 256): {"ping": 2_621_440, "pong": 2_641_920},
    (SystemKind.DA, 48): {"ping": 83_200, "pong": 83_200},
}


@pytest.mark.parametrize("kind, n", sorted(_FOOTPRINT))
def test_workspace_footprint_after_a_warm_round(kind, n):
    import threading

    from ns2dsens import spectral

    grid = GridSpec(n)
    spec = SystemSpec(kind)
    p = PhysicsParams(nu1=0.01, nu2=0.01, mu=5.0, interp=BoxAverage(boxes=8),
                      forcing=random_field(grid, seed=70))
    state = BandStack.of([random_field(grid, seed=71 + i) for i in range(len(spec.fields))])
    sizes = {}

    def round_in_a_fresh_thread():
        for _ in range(2):
            spec.explicit_rhs(state, p, 0.0)
        sizes.update({role: buf.nbytes for role, buf in spectral._workspace.buffers.items()})

    worker = threading.Thread(target=round_in_a_fresh_thread)
    worker.start()
    worker.join()
    assert sizes == _FOOTPRINT[kind, n]
