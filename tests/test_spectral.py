"""Spectral core tests against brute-force oracles and closed forms."""

import inspect

import numpy as np
import pytest

from ns2dsens.spectral import (
    LAMBDA_1,
    BandStack,
    GridSpec,
    SpectralField,
    band_full,
    band_half,
    bilinear,
    inner,
    leray_project,
    norm,
    norms,
    project_coeffs,
    random_field,
    row_index,
    stokes_apply,
    taylor_green,
)


def band_modes(grid):
    K = grid.cutoff
    return [(kx, ky) for kx in range(-K, K + 1) for ky in range(-K, K + 1)]


def mode_get(coeffs, n, kx, ky):
    return coeffs[:, kx % n, ky % n]


def leray_oracle(field):
    """Per-mode projection computed with plain Python loops."""
    g = field.grid
    n = g.n
    out = np.array(field.coeffs)
    for kx in range(-(n // 2), n // 2):
        for ky in range(-(n // 2), n // 2):
            if kx == 0 and ky == 0:
                out[:, 0, 0] = 0.0
                continue
            c = mode_get(field.coeffs, n, kx, ky)
            par = (kx * c[0] + ky * c[1]) / (kx * kx + ky * ky)
            out[:, kx % n, ky % n] = c - np.array([kx, ky]) * par
    return SpectralField(g, out)


def band_transfer(src, n_src, n_dst, K):
    """Copy the K-band of an FFT-ordered array onto a grid of another size."""
    dst = np.zeros(src.shape[:-2] + (n_dst, n_dst), dtype=src.dtype)
    # (source, destination) index ranges of the nonnegative and negative wavenumbers.
    halves = [
        (slice(0, K + 1), slice(0, K + 1)),
        (slice(n_src - K, n_src), slice(n_dst - K, n_dst)),
    ]
    for rows_src, rows_dst in halves:
        for cols_src, cols_dst in halves:
            dst[..., rows_dst, cols_dst] = src[..., rows_src, cols_src]
    return dst


def bilinear_reference(u, v):
    """Advective-form kernel with complex transforms: P(u . grad v) from u and grad v on the grid.

    Eight complex planes per call (u, the four components of grad v, the
    product), on the native grid when 3 * cutoff < n and zero-padded to
    2 * (3K // 2 + 1) otherwise, then truncated and Leray-projected.
    """
    g = u.grid
    n = g.n
    K = g.cutoff
    m = n if 3 * K < n else 2 * (3 * K // 2 + 1)
    cu = band_transfer(u.coeffs, n, m, K)
    cv = band_transfer(v.coeffs, n, m, K)
    freqs = np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(np.int64)
    km = np.stack(np.meshgrid(freqs, freqs, indexing="ij"))
    u_vals = m**2 * np.fft.ifft2(cu, axes=(-2, -1)).real
    # grad[i, j] holds d v_i / d x_j; derivative factor 2*pi*i*k_j.
    deriv = 2j * np.pi * km[np.newaxis, :, :, :] * cv[:, np.newaxis, :, :]
    grad = m**2 * np.fft.ifft2(deriv, axes=(-2, -1)).real
    w_vals = np.einsum("jab,ijab->iab", u_vals, grad)
    w = band_transfer(np.fft.fft2(w_vals, axes=(-2, -1)) / m**2, m, n, K)
    return leray_project(SpectralField(g, w))


def bilinear_oracle(u, v):
    """Direct convolution sum over band modes, O(K^4), then per-mode projection."""
    g = u.grid
    n = g.n
    K = g.cutoff
    cu = u.coeffs
    cv = v.coeffs
    w = np.zeros((2, n, n), dtype=np.complex128)
    for kx, ky in band_modes(g):
        acc = np.zeros(2, dtype=np.complex128)
        for px, py in band_modes(g):
            qx, qy = kx - px, ky - py
            if max(abs(qx), abs(qy)) > K:
                continue
            up = mode_get(cu, n, px, py)
            vq = mode_get(cv, n, qx, qy)
            acc += 2j * np.pi * (up[0] * qx + up[1] * qy) * vq
        w[:, kx % n, ky % n] = acc
    return leray_oracle(SpectralField(g, w))


class TestGridSpec:
    def test_cutoff_is_floor_third(self):
        assert GridSpec(8).cutoff == 2
        assert GridSpec(12).cutoff == 4
        assert GridSpec(32).cutoff == 10
        assert GridSpec(64).cutoff == 21

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError, match="even"):
            GridSpec(9)

    def test_rejects_small_size(self):
        with pytest.raises(ValueError, match="at least 8"):
            GridSpec(6)

    def test_wavenumbers_cover_fft_order(self):
        g = GridSpec(8)
        assert list(g.k[0][:, 0]) == [0, 1, 2, 3, -4, -3, -2, -1]
        assert g.k_sq[0, 0] == 0
        assert g.k_sq[1, 1] == 2

    @pytest.mark.parametrize("n", [8, 12, 18, 30, 32, 48, 64, 96])
    def test_product_grid_is_smallest_even_size_beyond_three_cutoffs(self, n):
        g = GridSpec(n)
        m = g.product_n
        assert m % 2 == 0 and m - 2 <= 3 * g.cutoff < m
        assert (m == n) == (n % 3 != 0)

    def test_eigenvalues_match_poincare_scale(self):
        g = GridSpec(8)
        assert g.eigenvalues[1, 0] == pytest.approx(LAMBDA_1)
        assert g.eigenvalues[1, 1] == pytest.approx(2 * LAMBDA_1)


class TestBandHalf:
    @pytest.mark.parametrize("n", [8, 12, 30, 48, 64, 256])
    def test_round_trip(self, n):
        # Band-limited and conjugate-symmetric, with every band mode populated.
        g = GridSpec(n)
        K = g.cutoff
        c = random_field(g, seed=n, solenoidal=False).coeffs
        b = band_half(c, K)
        assert b.shape == (2, 2 * K + 1, K + 1)
        assert np.array_equal(band_half(c[..., : n // 2 + 1], K), b)
        assert np.array_equal(band_full(b, n), c)


class TestSpectralField:
    def test_physical_round_trip(self):
        g = GridSpec(16)
        f = random_field(g, seed=7)
        back = SpectralField.from_physical(g, f.physical())
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-14

    def test_mean_mode_pinned(self):
        g = GridSpec(8)
        vals = np.ones((2, 8, 8)) + np.random.default_rng(0).standard_normal((2, 8, 8))
        f = SpectralField.from_physical(g, vals)
        assert f.coeffs[0, 0, 0] == 0.0
        assert f.coeffs[1, 0, 0] == 0.0

    def test_coeffs_are_read_only(self):
        f = random_field(GridSpec(8), seed=1)
        with pytest.raises(ValueError):
            f.coeffs[0, 1, 1] = 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SpectralField(GridSpec(8), np.zeros((2, 4, 4), dtype=np.complex128))
        with pytest.raises(ValueError, match=r"values of shape \(2, 8, 8\)"):
            SpectralField.from_physical(GridSpec(8), np.zeros((8, 8)))

    def test_grid_mismatch_rejected(self):
        a = random_field(GridSpec(8), seed=1)
        b = random_field(GridSpec(16), seed=1)
        with pytest.raises(ValueError, match="grid mismatch"):
            a + b

    def test_arithmetic(self):
        g = GridSpec(8)
        a = random_field(g, seed=1)
        b = random_field(g, seed=2)
        s = 2.0 * a + b - a / 2.0
        expect = 1.5 * a.coeffs + b.coeffs
        assert np.abs(s.coeffs - expect).max() < 1e-15

    def test_validate_flags_broken_symmetry(self):
        g = GridSpec(8)
        c = np.zeros((2, 8, 8), dtype=np.complex128)
        c[0, 1, 0] = 1.0j  # no conjugate partner at (-1, 0)
        with pytest.raises(ValueError, match="conjugate symmetry"):
            SpectralField(g, c).validate()

    def test_validate_flags_nonzero_mean(self):
        g = GridSpec(8)
        c = np.zeros((2, 8, 8), dtype=np.complex128)
        c[1, 0, 0] = 1.0  # real, so conjugate symmetric
        with pytest.raises(ValueError, match="mean mode"):
            SpectralField(g, c).validate()

    def test_validate_flags_out_of_band(self):
        g = GridSpec(8)
        c = np.zeros((2, 8, 8), dtype=np.complex128)
        c[0, 3, 0] = 1.0
        c[0, -3 % 8, 0] = 1.0
        with pytest.raises(ValueError, match="band"):
            SpectralField(g, c).validate(require_band=True)


class TestNorms:
    def test_single_mode_parseval(self):
        # u = (0, cos 2 pi x): coefficients 1/2 at k = (1, 0) and (-1, 0).
        g = GridSpec(16)
        x = g.points[0]
        vals = np.stack([np.zeros_like(x), np.cos(2 * np.pi * x)])
        f = SpectralField.from_physical(g, vals)
        assert norm(f, "l2") == pytest.approx(np.sqrt(0.5), rel=1e-14)
        assert norm(f, "h1") == pytest.approx(2 * np.pi * np.sqrt(0.5), rel=1e-14)
        assert norm(f, "h2") == pytest.approx(LAMBDA_1 * np.sqrt(0.5), rel=1e-14)

    def test_taylor_green_norms(self):
        g = GridSpec(32)
        u0 = taylor_green(g)
        l2, h1, h2 = norms(BandStack.of([u0]))[0]
        assert l2 == pytest.approx(np.sqrt(0.5), rel=1e-13)
        assert h1 == pytest.approx(2 * np.pi, rel=1e-13)
        assert h2 == pytest.approx(8 * np.pi**2 * np.sqrt(0.5), rel=1e-13)

    def test_norms_consistent_with_norm(self):
        f = random_field(GridSpec(16), seed=3)
        l2, h1, h2 = norms(BandStack.of([f]))[0]
        assert l2 == pytest.approx(norm(f, "l2"), rel=1e-14)
        assert h1 == pytest.approx(norm(f, "h1"), rel=1e-14)
        assert h2 == pytest.approx(norm(f, "h2"), rel=1e-14)

    @pytest.mark.parametrize("n", [24, 32, 256])
    def test_band_half_norms_within_rounding_budget(self, n):
        # The band-half sums hold the terms of the full-spectrum sums (ky > 0
        # doubled, which is exact) in another order.  Pairwise summation of
        # at most n**2 = 65536 nonnegative terms is off by at most about
        # log2(n**2) = 16 units of roundoff (1.8e-15) relative, and the square
        # root halves that, so 1e-14 relative is the budget.
        g = GridSpec(n)
        fields = [
            random_field(g, seed=n, l2_norm=3.0),
            random_field(g, seed=n + 1, kmin=1, kmax=4, solenoidal=False),
            random_field(g, seed=n + 2, kmin=g.cutoff - 2),
        ]
        got = norms(BandStack.of(fields))
        assert got.shape == (3, 3)
        for row, f in zip(got, fields):
            want = [norm(f, kind) for kind in ("l2", "h1", "h2")]
            assert row == pytest.approx(want, rel=1e-14, abs=0.0)

    @staticmethod
    def signed_zero_stack(n, lead):
        """Random band halves over 200 decades, with +0.0 and -0.0 parts and zero rows."""
        g = GridSpec(n)
        rng = np.random.default_rng(n + len(lead))
        shape = lead + (2, 2 * g.cutoff + 1, g.cutoff + 1)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c *= 10.0 ** rng.uniform(-100, 100, shape)
        for part in (c.real, c.imag):
            part[rng.random(shape) < 0.1] = 0.0
            part[rng.random(shape) < 0.1] = -0.0
        if lead:
            c[3] = 0.0
            c[5] = -0.0
        else:
            c[1] = -0.0
        return BandStack(g, c)

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.int64).tolist()

    @pytest.mark.parametrize("n", [24, 30, 48, 256])
    @pytest.mark.parametrize("lead", [(), (16,)])
    def test_folded_weights_give_the_bits_of_doubling_first(self, n, lead):
        # The x2 of a ky > 0 mode moved from the power into the weights is a
        # multiplication by a power of two, so exact: the bits of the
        # formula that doubles the power first, signed zeros and all.
        stack = self.signed_zero_stack(n, lead)
        power = (np.abs(stack.coeffs) ** 2).sum(axis=-3)
        power[..., 1:] *= 2.0
        lam = stack.grid.band_tables[2]
        weights = np.stack([np.ones_like(lam), lam, lam**2])
        want = np.sqrt((power[..., None, :, :] * weights).sum(axis=(-2, -1)))
        got = norms(stack)
        assert got.shape == lead + (3,)
        assert self.bits(got) == self.bits(want)

    @pytest.mark.parametrize("n", [24, 30, 48, 256])
    @pytest.mark.parametrize("lead", [(), (16,)])
    def test_l2_only_gives_the_bits_of_column_0(self, n, lead):
        stack = self.signed_zero_stack(n, lead)
        got = norms(stack, l2_only=True)
        assert got.shape == lead
        assert self.bits(got) == self.bits(norms(stack)[..., 0])
        if lead:
            assert got[3] == got[5] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="norm kind"):
            norm(random_field(GridSpec(8), seed=0), "h3")

    def test_poincare_chain(self):
        for seed in range(20):
            f = random_field(GridSpec(32), seed=seed, l2_norm=1.0 + seed)
            l2, h1, h2 = norms(BandStack.of([f]))[0]
            assert LAMBDA_1 * l2**2 <= h1**2 * (1 + 1e-12)
            assert LAMBDA_1 * h1**2 <= h2**2 * (1 + 1e-12)

    def test_inner_taylor_green_stokes(self):
        g = GridSpec(32)
        u0 = taylor_green(g)
        assert inner(u0, stokes_apply(u0), "l2") == pytest.approx(4 * np.pi**2, rel=1e-13)


class TestLeray:
    def test_matches_per_mode_oracle(self):
        g = GridSpec(8)
        rng = np.random.default_rng(42)
        for _ in range(5):
            f = random_field(g, rng, solenoidal=False)
            got = leray_project(f)
            want = leray_oracle(f)
            assert np.abs(got.coeffs - want.coeffs).max() < 1e-14

    def test_idempotent(self):
        f = random_field(GridSpec(16), seed=5, solenoidal=False)
        once = leray_project(f)
        twice = leray_project(once)
        assert np.abs(once.coeffs - twice.coeffs).max() < 1e-15

    def test_self_adjoint(self):
        g = GridSpec(16)
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = random_field(g, rng, solenoidal=False)
            b = random_field(g, rng, solenoidal=False)
            lhs = inner(leray_project(a), b)
            rhs = inner(a, leray_project(b))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("n", [24, 30, 48])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_complex_band_tables_project_the_same_bits(self, n, lead):
        # numpy multiplies complex data by the int64 k and float64 1/|k|^2
        # by casting the tables to complex128, so tables stored as complex128
        # give the same bits, signed zeros included.  The k = 0 mode and
        # components that are +0.0 or -0.0 in either part are in the stack.
        g = GridSpec(n)
        K = g.cutoff
        k, inv_k_sq, _ = g.band_tables
        rng = np.random.default_rng(n)
        shape = lead + (2, 2 * K + 1, K + 1)
        parts = rng.standard_normal((2,) + shape)
        for sign in (1.0, -1.0):
            parts[rng.random(parts.shape) < 0.1] = sign * 0.0
        c = np.empty(shape, dtype=np.complex128)
        c.real, c.imag = parts  # a complex multiply would not keep every signed zero
        c[..., 0, 0] = rng.standard_normal(c.shape[:-2])
        for part in (c.real, c.imag):
            zero = part == 0
            assert (zero & np.signbit(part)).any() and (zero & ~np.signbit(part)).any()
        want = project_coeffs(c, k, inv_k_sq)
        got = project_coeffs(c, k.astype(np.complex128), inv_k_sq.astype(np.complex128))
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_output_divergence_free(self):
        f = random_field(GridSpec(16), seed=11, solenoidal=False)
        assert leray_project(f).divergence_max() < 1e-13

    def test_annihilates_gradients(self):
        # Gradient fields have c_k parallel to k and must project to zero.
        g = GridSpec(8)
        c = np.zeros((2, 8, 8), dtype=np.complex128)
        for kx, ky in band_modes(g):
            if kx == 0 and ky == 0:
                continue
            c[:, kx % 8, ky % 8] = np.array([kx, ky]) * (0.3 + 0.1j)
        c = 0.5 * (c + np.conj(np.roll(c[..., ::-1, ::-1], (1, 1), axis=(-2, -1))))
        grad = SpectralField(g, c)
        assert norm(leray_project(grad)) < 1e-13 * norm(grad)


class TestStokes:
    def test_single_mode_eigenvalue(self):
        g = GridSpec(16)
        x = g.points[0]
        vals = np.stack([np.zeros_like(x), np.sin(2 * np.pi * x)])
        f = SpectralField.from_physical(g, vals)
        out = stokes_apply(f)
        assert np.abs(out.coeffs - LAMBDA_1 * f.coeffs).max() < 1e-13

    def test_taylor_green_eigenvalue(self):
        g = GridSpec(32)
        u0 = taylor_green(g)
        out = stokes_apply(u0)
        assert np.abs(out.coeffs - 8 * np.pi**2 * u0.coeffs).max() < 1e-13

    def test_commutes_with_leray(self):
        f = random_field(GridSpec(16), seed=13, solenoidal=False)
        a = stokes_apply(leray_project(f))
        b = leray_project(stokes_apply(f))
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-11


class TestBilinear:
    @pytest.mark.parametrize("n", [8, 12, 18])
    def test_matches_convolution_oracle(self, n):
        # n = 12 and 18 exercise the padded path where 3 * cutoff == n.
        g = GridSpec(n)
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            u = random_field(g, rng)
            v = random_field(g, rng, solenoidal=False)
            got = bilinear(u, v)
            want = bilinear_oracle(u, v)
            scale = max(np.abs(want.coeffs).max(), 1.0)
            assert np.abs(got.coeffs - want.coeffs).max() < 1e-12 * scale

    @pytest.mark.parametrize("n", [30, 32, 48, 64, 96])
    @pytest.mark.parametrize("advected", ["self", "solenoidal", "non_solenoidal"])
    def test_matches_advective_form_reference(self, n, advected):
        # 30, 48 and 96 are divisible by 3 and take the padded product grid.
        g = GridSpec(n)
        rng = np.random.default_rng(200 + n)
        u = random_field(g, rng)
        v = u if advected == "self" else random_field(g, rng, solenoidal=advected == "solenoidal")
        got = bilinear(u, v)
        want = bilinear_reference(u, v)
        assert np.abs(got.coeffs - want.coeffs).max() < 1e-12 * np.abs(want.coeffs).max()

    @pytest.mark.parametrize("n", [8, 12])
    def test_cutoff_boundary_modes(self, n):
        # All energy at the corners of the band, the worst case for aliasing.
        g = GridSpec(n)
        K = g.cutoff
        c = np.zeros((2, n, n), dtype=np.complex128)
        for sx in (1, -1):
            for sy in (1, -1):
                c[0, (sx * K) % n, (sy * K) % n] = 0.25 + 0.1j * sx * sy
        c = 0.5 * (c + np.conj(np.roll(c[..., ::-1, ::-1], (1, 1), axis=(-2, -1))))
        u = leray_project(SpectralField(g, c))
        got = bilinear(u, u)
        want = bilinear_oracle(u, u)
        scale = max(np.abs(want.coeffs).max(), 1e-30)
        assert np.abs(got.coeffs - want.coeffs).max() < 1e-12 * max(scale, 1.0)

    def test_truncates_inputs_to_band(self):
        g = GridSpec(16)
        rng = np.random.default_rng(17)
        c = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
        c = 0.5 * (c + np.conj(np.roll(c[..., ::-1, ::-1], (1, 1), axis=(-2, -1))))
        c[:, 0, 0] = 0.0
        full = leray_project(SpectralField(g, c))
        cut = full.band_limited()
        a = bilinear(full, full)
        b = bilinear(cut, cut)
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-13

    def test_output_band_limited_and_solenoidal(self):
        g = GridSpec(32)
        u = random_field(g, seed=23)
        v = random_field(g, seed=29)
        w = bilinear(u, v)
        w.validate(require_band=True)
        assert w.divergence_max() < 1e-13

    def test_taylor_green_self_advection_vanishes(self):
        g = GridSpec(32)
        u0 = taylor_green(g)
        assert norm(bilinear(u0, u0)) < 1e-13

    def test_skew_symmetry_smoke(self):
        g = GridSpec(16)
        rng = np.random.default_rng(31)
        u = random_field(g, rng)
        v = random_field(g, rng)
        w = random_field(g, rng)
        lhs = inner(bilinear(u, v), w)
        rhs = -inner(bilinear(u, w), v)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) < 1e-11 * scale


class TestRowIndex:
    @pytest.mark.parametrize("rows, want", [
        ([3], slice(3, 4, 1)),
        ([0, 1, 2], slice(0, 3, 1)),
        ([0, 2], slice(0, 3, 2)),
        ([1, 4, 7], slice(1, 8, 3)),
        ([], []),
        ([0, 1, 3, 4], [0, 1, 3, 4]),
        ([0, 2, 3], [0, 2, 3]),
        ([1, 1], [1, 1]),
        ([2, 0], [2, 0]),
    ])
    def test_evenly_spaced_ascending_rows_index_as_a_view(self, rows, want):
        got = row_index(iter(rows))
        assert got == want
        a = np.arange(20.0).reshape(10, 2)
        assert np.array_equal(a[got], a[rows])
        assert np.shares_memory(a[got], a) == isinstance(want, slice)


class TestRandomField:
    def test_seed_determinism(self):
        g = GridSpec(32)
        a = random_field(g, seed=99)
        b = random_field(g, seed=99)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_annulus_support(self):
        g = GridSpec(32)
        f = random_field(g, seed=3, kmin=2, kmax=6)
        outside = (g.k_sq < 4) | (g.k_sq > 36)
        assert np.abs(f.coeffs[:, outside]).max() == 0.0

    def test_norm_and_solenoidal(self):
        f = random_field(GridSpec(32), seed=4, kmin=2, kmax=6, l2_norm=3.5)
        assert norm(f) == pytest.approx(3.5, rel=1e-13)
        assert f.divergence_max() < 1e-13

    def test_real_valued(self):
        g = GridSpec(16)
        f = random_field(g, seed=8)
        raw = g.n**2 * np.fft.ifft2(np.asarray(f.coeffs), axes=(-2, -1))
        assert np.abs(raw.imag).max() < 1e-13

    def test_empty_annulus_rejected(self):
        with pytest.raises(ValueError, match="annulus"):
            random_field(GridSpec(8), seed=0, kmin=7)


ND_FFTS = ("fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def nd_fft_calls(monkeypatch):
    """(name, s, axes) of every call of numpy's n-D FFT entry points, which still run.

    Patched in `numpy.fft` and in its implementation module, where `rfft2`
    and `irfft2` look up `rfftn` and `irfftn`.
    """
    calls = []

    def recording(name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            calls.append((name, bound.get("s"), bound.get("axes")))
            return fn(*args, **kwargs)

        return wrapper

    for name in ND_FFTS:
        wrapper = recording(name, getattr(np.fft, name))
        for module in (np.fft, np.fft._pocketfft):
            monkeypatch.setattr(module, name, wrapper)
    return calls


class TestFastPaths:
    @pytest.mark.parametrize("n", [32, 48])
    def test_every_transform_is_given_its_lengths(self, n, nd_fft_calls):
        # Without s, numpy derives the lengths from the array's shape through
        # a slow generic path on every call; the kernel's transforms and
        # `from_physical` pass them as one Python int per transformed axis.
        g = GridSpec(n)
        stack = BandStack.of([random_field(g, seed=s) for s in (1, 2)])
        values = stack[0].physical()
        nd_fft_calls.clear()
        bilinear(stack, [(0, 0), (1, 0), (0, 1)])
        SpectralField.from_physical(g, values)
        assert {name for name, _, _ in nd_fft_calls} == set(ND_FFTS)
        for name, s, axes in nd_fft_calls:
            assert type(s) is tuple and all(type(length) is int for length in s), (name, s)
            assert len(s) == len(axes), (name, s, axes)

    @pytest.mark.parametrize("n", [24, 48])
    def test_band_projector_is_the_band_tables_cast_to_complex(self, n):
        g = GridSpec(n)
        k, inv_k_sq, _ = g.band_tables
        for got, table in zip(g.band_projector, (k, inv_k_sq), strict=True):
            assert got.dtype == np.complex128 and not got.flags.writeable
            want = table.astype(np.complex128)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
