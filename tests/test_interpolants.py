"""Interpolant operator tests: projection tails, box means, admissibility."""

import numpy as np
import pytest

from ns2dsens.interpolants import (
    BOX_AVERAGE_C0,
    PROJECTION_C0,
    BoxAverage,
    SpectralProjection,
    admissibility,
    interpolate,
    verify_bound,
)
from ns2dsens.spectral import (
    BandStack,
    GridSpec,
    SpectralField,
    band_half,
    norm,
    random_field,
)


class TestSpectralProjection:
    def test_truncation_support(self):
        g = GridSpec(32)
        f = random_field(g, seed=1)
        out = interpolate(f, SpectralProjection(modes=3))
        beyond = (np.abs(g.k[0]) > 3) | (np.abs(g.k[1]) > 3)
        assert np.abs(out.coeffs[:, beyond]).max() == 0.0
        inside = ~beyond
        assert np.array_equal(out.coeffs[:, inside], f.coeffs[:, inside])

    def test_identity_when_band_covered(self):
        g = GridSpec(32)
        f = random_field(g, seed=2)
        out = interpolate(f, SpectralProjection(modes=g.cutoff))
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_idempotent(self):
        f = random_field(GridSpec(32), seed=3)
        spec = SpectralProjection(modes=4)
        once = interpolate(f, spec)
        twice = interpolate(once, spec)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_resolution_and_constant(self):
        spec = SpectralProjection(modes=8)
        assert spec.h == pytest.approx(1.0 / 9.0)
        assert spec.default_c0 == pytest.approx(1.0 / (4 * np.pi**2))

    def test_tail_ratio_never_exceeds_constant(self):
        g = GridSpec(32)
        spec = SpectralProjection(modes=5)
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_field(g, rng)
            ratio = norm(f - interpolate(f, spec)) ** 2 / (spec.h**2 * norm(f, "h1") ** 2)
            assert ratio <= PROJECTION_C0 * (1 + 1e-12)

    def test_tail_ratio_sharp_at_first_excluded_shell(self):
        # All energy at |k| = modes + 1 attains the constant exactly.
        g = GridSpec(32)
        spec = SpectralProjection(modes=5)
        c = np.zeros((2, 32, 32), dtype=np.complex128)
        c[1, 6, 0] = 0.5
        c[1, -6 % 32, 0] = 0.5
        f = SpectralField(g, c)
        ratio = norm(f - interpolate(f, spec)) ** 2 / (spec.h**2 * norm(f, "h1") ** 2)
        assert ratio == pytest.approx(PROJECTION_C0, rel=1e-12)

    def test_invalid_modes(self):
        with pytest.raises(ValueError, match="at least one mode"):
            SpectralProjection(modes=0)

    def test_unknown_spec_rejected(self):
        f = random_field(GridSpec(16), seed=3)
        with pytest.raises(TypeError, match="unknown interpolant spec"):
            interpolate(f, "modes=4")


class TestBoxAverage:
    def test_reproduces_piecewise_constants(self):
        g = GridSpec(32)
        spec = BoxAverage(boxes=4)
        f = random_field(g, seed=4)
        once = interpolate(f, spec)
        twice = interpolate(once, spec)
        assert np.abs(once.coeffs - twice.coeffs).max() < 1e-15

    def test_box_count_must_divide_grid(self):
        f = random_field(GridSpec(32), seed=5)
        with pytest.raises(ValueError, match="does not divide"):
            interpolate(f, BoxAverage(boxes=5))

    def test_linear(self):
        g = GridSpec(32)
        spec = BoxAverage(boxes=8)
        a = random_field(g, seed=6)
        b = random_field(g, seed=7)
        lhs = interpolate(a + 2.0 * b, spec)
        rhs = interpolate(a, spec) + 2.0 * interpolate(b, spec)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-14

    def test_l2_contractive_and_mean_free(self):
        g = GridSpec(32)
        spec = BoxAverage(boxes=8)
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = random_field(g, rng)
            out = interpolate(f, spec)
            assert norm(out) <= norm(f) * (1 + 1e-12)
            assert out.coeffs[0, 0, 0] == 0.0
            assert out.coeffs[1, 0, 0] == 0.0

    def test_not_divergence_free_in_general(self):
        f = random_field(GridSpec(32), seed=9)
        out = interpolate(f, BoxAverage(boxes=8))
        assert out.divergence_max() > 1e-6

    def test_resolution_and_constant(self):
        spec = BoxAverage(boxes=8)
        assert spec.h == pytest.approx(0.125)
        assert spec.default_c0 == pytest.approx(1.0 / np.pi**2)

    def test_invalid_boxes(self):
        with pytest.raises(ValueError, match="at least one box"):
            BoxAverage(boxes=0)


# Every box-average case below must match the grid-space reference to 1e-14
# relative to the reference's largest coefficient: grid sizes with n
# divisible by 3, an odd box width (48 / 16 = 3), one point per box
# (boxes = n) and one box over the whole torus (boxes = 1).  With one box
# the reference is zero up to rounding, so the input's largest coefficient
# is the scale there.
BOX_CASES = [
    (24, 8), (24, 24), (24, 1),
    (30, 10), (30, 6), (30, 30), (30, 1),
    (36, 12), (36, 4), (36, 36), (36, 1),
    (48, 16), (48, 8), (48, 48), (48, 1),
]
BOX_TOL = 1e-14


def box_average_reference(f, boxes):
    """Box means of the grid values, constant on each box, back to a mean-free spectrum."""
    n = f.grid.n
    b = n // boxes
    vals = f.physical()
    means = vals.reshape(2, boxes, b, boxes, b).mean(axis=(2, 4))
    flat = np.repeat(np.repeat(means, b, axis=1), b, axis=2)
    half = np.fft.rfft2(flat, norm="forward")
    half[:, 0, 0] = 0.0
    return half


def rough_field(grid, seed):
    """Real field with every mode of the grid excited, not band-limited."""
    rng = np.random.default_rng(seed)
    return SpectralField.from_physical(grid, rng.standard_normal((2, grid.n, grid.n)))


class TestBoxAverageOperator:
    @pytest.mark.parametrize("n,boxes", BOX_CASES)
    @pytest.mark.parametrize("band_limited", [True, False])
    def test_matches_grid_reference(self, n, boxes, band_limited):
        g = GridSpec(n)
        f = random_field(g, seed=n + boxes) if band_limited else rough_field(g, n + boxes)
        ref = box_average_reference(f, boxes)
        out = interpolate(f, BoxAverage(boxes))
        scale = np.abs(ref if boxes > 1 else f.coeffs).max()
        assert np.abs(out.coeffs[..., : n // 2 + 1] - ref).max() <= BOX_TOL * scale
        out.validate()

    def test_one_box_is_zero_and_one_point_boxes_are_identity(self):
        g = GridSpec(24)
        f = random_field(g, seed=3)
        assert not interpolate(f, BoxAverage(1)).coeffs.any()
        assert np.array_equal(interpolate(f, BoxAverage(24)).coeffs, f.coeffs)

    @pytest.mark.parametrize("n,boxes", [c for c in BOX_CASES if c[1] > 1])
    def test_band_form_matches_full_form(self, n, boxes):
        g = GridSpec(n)
        spec = BoxAverage(boxes)
        f = random_field(g, seed=n * boxes)
        full = band_half(interpolate(f, spec).coeffs, g.cutoff)
        band = interpolate(BandStack.of([f]), spec).coeffs[0]
        assert np.abs(band - full).max() <= BOX_TOL * np.abs(full).max()

    @pytest.mark.parametrize("n", [24, 30, 48])
    @pytest.mark.parametrize(
        "spec", [BoxAverage(6), SpectralProjection(3), SpectralProjection(100)], ids=repr
    )
    def test_stacked_rows_equal_single_row_calls(self, n, spec):
        g = GridSpec(n)
        fields = [random_field(g, seed=n + i) for i in range(5)]
        stack = BandStack.of(fields)
        out = interpolate(stack, spec)
        assert isinstance(out, BandStack) and out.coeffs.shape == stack.coeffs.shape
        for i, f in enumerate(fields):
            assert np.array_equal(out.coeffs[i], interpolate(stack[i : i + 1], spec).coeffs[0])
            full = band_half(interpolate(f, spec).coeffs, g.cutoff)
            assert np.abs(out.coeffs[i] - full).max() <= BOX_TOL * np.abs(full).max()

    def test_stack_of_stacks(self):
        g = GridSpec(30)
        spec = BoxAverage(10)
        fields = [random_field(g, seed=i) for i in range(6)]
        flat = interpolate(BandStack.of(fields), spec).coeffs
        nested = BandStack(g, BandStack.of(fields).coeffs.reshape(3, 2, 2, 2 * 10 + 1, 11))
        assert np.array_equal(interpolate(nested, spec).coeffs.reshape(flat.shape), flat)


class TestAdmissibility:
    def test_reference_numbers(self):
        # c0 = 1/(4 pi^2), h = 1/9: mu c0 h^2 = 10 / (4 pi^2 81) ~ 3.13e-3.
        spec = SpectralProjection(modes=8)
        assert admissibility(nu=0.01, mu=10.0, spec=spec) is True
        assert admissibility(nu=0.01, mu=10.0, spec=spec, strict=True) is False

    def test_zero_gain_always_admissible(self):
        spec = BoxAverage(boxes=64)
        assert admissibility(nu=1e-9, mu=0.0, spec=spec) is True
        assert admissibility(nu=1e-9, mu=0.0, spec=spec, strict=True) is True

    def test_boundary_equality_admissible(self):
        spec = SpectralProjection(modes=1)
        nu = 1.0 * spec.default_c0 * spec.h**2
        assert admissibility(nu=nu, mu=1.0, spec=spec) is True

    def test_boundary_inclusive_at_representable_gain(self):
        # nu = factor mu c0 h^2 at the spec's own c0, formed in the order
        # admissibility forms it: admissible there, not one ulp below.
        spec = BoxAverage(boxes=4)
        for strict, factor in ((False, 1.0), (True, 4.0)):
            nu = factor * 16.0 * spec.default_c0 * spec.h**2
            kw = dict(mu=16.0, spec=spec, strict=strict)
            assert admissibility(nu=nu, **kw) is True
            assert admissibility(nu=float(np.nextafter(nu, 0.0)), **kw) is False

    def test_invalid_parameters(self):
        spec = BoxAverage(boxes=8)
        with pytest.raises(ValueError, match="viscosity"):
            admissibility(nu=0.0, mu=1.0, spec=spec)
        with pytest.raises(ValueError, match="nonnegative"):
            admissibility(nu=0.01, mu=-1.0, spec=spec)


class TestVerifyBound:
    def test_projection_passes_at_stated_constant(self):
        report = verify_bound(SpectralProjection(modes=8), GridSpec(32), ensemble=100, seed=0)
        assert report.passed
        assert report.max_ratio <= PROJECTION_C0 * (1 + 1e-12)

    def test_box_average_passes_at_stated_constant(self):
        report = verify_bound(BoxAverage(boxes=8), GridSpec(32), ensemble=100, seed=0)
        assert report.passed
        assert report.max_ratio <= BOX_AVERAGE_C0

    def test_fails_for_understated_constant(self, monkeypatch):
        monkeypatch.setattr(BoxAverage, "default_c0", 1e-6)
        report = verify_bound(BoxAverage(boxes=8), GridSpec(32), ensemble=20, seed=0)
        assert report.c0 == 1e-6
        assert not report.passed

    def test_deterministic(self):
        a = verify_bound(BoxAverage(boxes=8), GridSpec(32), ensemble=10, seed=5)
        b = verify_bound(BoxAverage(boxes=8), GridSpec(32), ensemble=10, seed=5)
        assert a.max_ratio == b.max_ratio

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="ensemble"):
            verify_bound(BoxAverage(boxes=8), GridSpec(32), ensemble=0)
