"""Spectral representation of mean-zero velocity fields on the periodic unit torus.

Velocity fields live on [0, 1)^2 with u(x) = sum_k c_k exp(2*pi*i k.x) over
integer wavenumber pairs k, stored as FFT-ordered coefficient arrays of shape
(2, n, n) with the component axis first.  Coefficients follow the numpy layout:
c = fft2(values) / n**2 and values = n**2 * ifft2(c).  With that normalization
Parseval gives the L2 norm directly as the root sum of squared coefficient
magnitudes, the H1 norm weights each mode by 4*pi**2*|k|**2, and the H2 norm by
the square of that factor.  The mean mode k = 0 is pinned to zero everywhere;
the Poincare constant of the mean-zero space is lambda_1 = 4*pi**2.  Values
are real, so transforms to and from the grid run on the half spectrum ky >= 0
(`rfft2`/`irfft2`) and the negative-ky half follows by conjugate symmetry.
A band-limited field is therefore fixed by its band half, the ky >= 0 modes
inside the band (`band_half`, `band_full`, `BandStack`); the advective
kernel, the norms and the time stepper do their per-mode arithmetic there,
and trajectories keep their sampled states there.

Nonlinear products are evaluated pointwise on a grid where no alias reaches
the band |k_i| <= n // 3 (zero-padded when n is divisible by 3) and truncated
to that band, which makes the pseudo-spectral advective product identical to
the spectral Galerkin truncation of u . grad v.  The advective kernel works in
divergence form: for solenoidal u, u . grad v = div(v u^T), and a projected
planar field is fixed by its component along k_perp, so a product comes back
in three planes (two for a self-product).  A mirror pair shares its planes:
those of B(v, u) are those of B(u, v) with two swapped, so each distinct
product tensor is formed once.  `bilinear` forms any number of products of a
`BandStack`'s rows with one inverse transform of all rows and one forward
transform of all distinct product planes.  Each transform skips the
columns it knows to be zero: only the K + 1 band columns ky = 0..K take the
kx pass.  The grid values, product planes and spectra of these transforms
live in per-thread buffers that grow to the largest request and are reused
on every later call, so a long run does not fault grid-sized memory back in
on each round; every array the module returns is fresh.

Each transform is given its lengths `s`, which numpy would otherwise derive
through a generic `take` per call, and band-half projections and Stokes terms
multiply by the complex128 tables `GridSpec.band_projector` and `band_stokes`,
the cast numpy would make per call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

LAMBDA_1 = 4.0 * np.pi**2

NORM_KINDS = ("l2", "h1", "h2")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridSpec:
    """Uniform n x n collocation grid on the unit torus.

    The dealiased band keeps modes with max(|kx|, |ky|) <= cutoff = n // 3.
    n must be even and at least 8 so the band holds at least the first two
    shells and the Nyquist row stays empty.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError(f"grid size must be at least 8, got {self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"grid size must be even, got {self.n}")

    @property
    def cutoff(self) -> int:
        return self.n // 3

    @cached_property
    def k(self) -> np.ndarray:
        """Integer wavenumbers, shape (2, n, n): k[0] = kx, k[1] = ky."""
        freqs = np.rint(np.fft.fftfreq(self.n, d=1.0 / self.n)).astype(np.int64)
        kx, ky = np.meshgrid(freqs, freqs, indexing="ij")
        return _read_only(np.stack([kx, ky]))

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 as integers, shape (n, n)."""
        return _read_only(self.k[0] ** 2 + self.k[1] ** 2)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Stokes eigenvalues 4*pi**2*|k|**2, shape (n, n)."""
        return _read_only(LAMBDA_1 * self.k_sq.astype(np.float64))

    @cached_property
    def inv_k_sq(self) -> np.ndarray:
        """1 / |k|^2 with the k = 0 entry set to zero."""
        with np.errstate(divide="ignore"):
            inv = np.where(self.k_sq > 0, 1.0 / self.k_sq, 0.0)
        return _read_only(inv)

    @cached_property
    def band_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`k`, `inv_k_sq` and `eigenvalues` on the band half (see `band_half`)."""
        tables = (self.k, self.inv_k_sq, self.eigenvalues)
        return tuple(_read_only(band_half(t, self.cutoff)) for t in tables)

    @cached_property
    def band_projector(self) -> tuple[np.ndarray, ...]:
        """`band_tables`' k and inv_k_sq as complex128 (a complex k flips signed zeros in q)."""
        return tuple(_read_only(t.astype(np.complex128)) for t in self.band_tables[:2])

    @cached_property
    def band_stokes(self) -> np.ndarray:
        """`band_tables`' eigenvalues as complex128, the cast numpy makes per complex multiply."""
        return _read_only(self.band_tables[2].astype(np.complex128))

    @cached_property
    def band_norm_weights(self) -> np.ndarray:
        """Weights (1, lam, lam**2) of the L2, H1 and H2 norms on the band half (see `norms`)."""
        lam = self.band_tables[2]
        weights = np.stack([np.ones_like(lam), lam, lam**2])
        weights[..., 1:] *= 2.0  # ky > 0 stands for its conjugate ky < 0 too
        return _read_only(weights)

    @cached_property
    def band_mask(self) -> np.ndarray:
        """Boolean mask of the dealiased band, shape (n, n)."""
        K = self.cutoff
        mask = (np.abs(self.k[0]) <= K) & (np.abs(self.k[1]) <= K)
        return _read_only(mask)

    @cached_property
    def product_n(self) -> int:
        """Size of the grid advective products are formed on (see `bilinear`)."""
        return self.n if self.n % 3 else self.n + 2

    @cached_property
    def advective_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode factors (q, r) of `bilinear` on the band half.

        q = (kx ky, kx^2, -ky^2) weighs the products (Tyy - Txx, Tyx, Txy)
        into k_perp . w / (2 pi i); r = 2 pi i k_perp / |k|^2, zero at k = 0,
        turns that into the projected result.  Shapes (3 or 2, 2K + 1, K + 1).
        Both are complex128, so the kernel's multiplies cast neither; q's
        imaginary parts are zero, which is the cast numpy would make anyway.
        """
        (kx, ky), inv_k_sq, _ = self.band_tables
        q = np.stack([kx * ky, kx**2, -(ky**2)]).astype(np.complex128)
        r = 2j * np.pi * np.stack([-ky, kx]) * inv_k_sq
        return _read_only(q), _read_only(r)

    @cached_property
    def points(self) -> np.ndarray:
        """Grid coordinates, shape (2, n, n): points[0] = x, points[1] = y."""
        x = np.arange(self.n) / self.n
        gx, gy = np.meshgrid(x, x, indexing="ij")
        return _read_only(np.stack([gx, gy]))


@dataclass(frozen=True)
class SpectralField:
    """Immutable two-component coefficient array tied to a grid.

    Invariants: shape (2, n, n) complex, zero mean mode, and conjugate
    symmetry c(-k) = conj(c(k)) so that physical values are real.  Fields fed
    to the nonlinear term must additionally be band-limited to the dealiased
    band; `validate` checks all of these.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        n = self.grid.n
        if arr.shape != (2, n, n):
            raise ValueError(f"expected coefficients of shape (2, {n}, {n}), got {arr.shape}")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, grid: GridSpec) -> "SpectralField":
        return cls(grid, _read_only(np.zeros((2, grid.n, grid.n), dtype=np.complex128)))

    @classmethod
    def from_physical(cls, grid: GridSpec, values: np.ndarray) -> "SpectralField":
        """Transform real grid values of shape (2, n, n) to coefficients.

        The mean mode is pinned to zero: fields are represented in the
        mean-free quotient space.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (2, grid.n, grid.n):
            raise ValueError(
                f"expected values of shape (2, {grid.n}, {grid.n}), got {values.shape}"
            )
        c = _full_spectrum(np.fft.rfft2(values, s=(grid.n, grid.n), norm="forward"))
        c[:, 0, 0] = 0.0
        return cls(grid, _read_only(c))

    def physical(self) -> np.ndarray:
        """Real grid values, shape (2, n, n)."""
        n = self.grid.n
        return np.fft.irfft2(self.coeffs[..., : n // 2 + 1], s=(n, n), norm="forward")

    def band_limited(self) -> "SpectralField":
        """Truncate to the dealiased band max(|kx|, |ky|) <= n // 3."""
        return SpectralField(self.grid, _read_only(self.coeffs * self.grid.band_mask))

    def max_speed(self) -> float:
        """Largest pointwise velocity magnitude on the grid."""
        vals = self.physical()
        return float(np.sqrt(vals[0] ** 2 + vals[1] ** 2).max())

    def validate(self, tol: float = 1e-12, require_band: bool = False) -> None:
        """Raise ValueError on any invariant violation beyond tol (relative)."""
        c = self.coeffs
        scale = max(float(np.abs(c).max()), 1.0)
        if np.abs(c[:, 0, 0]).max() != 0.0:
            raise ValueError("mean mode is not zero")
        sym_err = float(np.abs(c - _conj_flip(c)).max())
        if sym_err > tol * scale:
            raise ValueError(f"conjugate symmetry violated by {sym_err:.3e}")
        if require_band:
            out = float(np.abs(c * ~self.grid.band_mask).max())
            if out > tol * scale:
                raise ValueError(f"energy outside the dealiased band: {out:.3e}")

    def divergence_max(self) -> float:
        """Largest per-mode |k . c_k|, zero for solenoidal fields."""
        k = self.grid.k
        return float(np.abs(k[0] * self.coeffs[0] + k[1] * self.coeffs[1]).max())

    def _like(self, arr: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, _read_only(arr))

    def _check_grid(self, other: "SpectralField") -> None:
        if other.grid.n != self.grid.n:
            raise ValueError(f"grid mismatch: {self.grid.n} vs {other.grid.n}")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_grid(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_grid(other)
        return self._like(self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return self._like(-self.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return self._like(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "SpectralField":
        return self._like(self.coeffs / complex(scalar))


def row_index(rows: Sequence[int]) -> slice | list[int]:
    """rows as a slice when they ascend in equal steps, so that indexing views, else as a list."""
    rows = list(rows)
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if rows and step > 0 and rows == list(range(rows[0], rows[-1] + 1, step)):
        return slice(rows[0], rows[-1] + 1, step)
    return rows


def _conj_flip(c: np.ndarray) -> np.ndarray:
    """Map c[..., i, j] to conj(c[..., -i mod n, -j mod n])."""
    return np.conj(np.roll(c[..., ::-1, ::-1], shift=(1, 1), axis=(-2, -1)))


def leray_project(field: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: c_k -> c_k - k (k . c_k) / |k|^2.

    Diagonal per mode, idempotent and self-adjoint in L2.  The 2*pi factors of
    the true gradient cancel between numerator and denominator.
    """
    g = field.grid
    return SpectralField(g, project_coeffs(field.coeffs, g.k, g.inv_k_sq))


def project_coeffs(c: np.ndarray, k: np.ndarray, inv_k_sq: np.ndarray) -> np.ndarray:
    """`leray_project` of coefficients shaped (..., 2, rows, cols), as a new read-only array.

    k (shape (2, rows, cols)) and inv_k_sq are the mode tables of the layout,
    full (`GridSpec.k`, `GridSpec.inv_k_sq`) or band half, cast once to complex128
    (`GridSpec.band_projector`) as numpy would per call; both put k = 0 at [0, 0].
    """
    parallel = (k[0] * c[..., 0, :, :] + k[1] * c[..., 1, :, :]) * inv_k_sq
    out = c - k * parallel[..., None, :, :]
    out[..., 0, 0] = 0.0
    return _read_only(out)


def stokes_apply(field: SpectralField) -> SpectralField:
    """Apply the Stokes operator: multiply mode k by 4*pi**2*|k|**2."""
    return SpectralField(field.grid, _read_only(field.coeffs * field.grid.eigenvalues))


def _full_spectrum(half: np.ndarray) -> np.ndarray:
    """Complete a half spectrum (..., n, n // 2 + 1) to (..., n, n) by c(-k) = conj(c(k))."""
    n = half.shape[-2]
    h = n // 2 + 1
    full = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    full[..., :h] = half
    # Row kx = 0 pairs with itself, rows 1..n-1 with rows n-1..1.
    np.conj(half[..., :1, h - 2 : 0 : -1], out=full[..., :1, h:])
    np.conj(half[..., :0:-1, h - 2 : 0 : -1], out=full[..., 1:, h:])
    return full


def band_half(c: np.ndarray, K: int, out: np.ndarray | None = None) -> np.ndarray:
    """Band half of an FFT-ordered full or half spectrum, shape (..., 2K + 1, K + 1).

    Rows are kx = 0..K, -K..-1 and columns ky = 0..K: all a band-limited real
    field holds, the rest being zero or, for ky < 0, fixed by conjugate
    symmetry (see `band_full`).  Written into out when given, else fresh.
    """
    return np.concatenate([c[..., : K + 1, : K + 1], c[..., -K:, : K + 1]], axis=-2, out=out)


def band_full(b: np.ndarray, n: int) -> np.ndarray:
    """FFT-ordered (..., n, n) spectrum of a band half, zero outside the band.

    A band half is FFT-ordered along its rows, so it is placed like any other
    array and the columns ky < 0 follow from c(-k) = conj(c(k)).
    """
    half = np.empty(b.shape[:-2] + (n, n // 2 + 1), dtype=np.complex128)
    return _full_spectrum(_padded_half(b, b.shape[-1] - 1, n, half))


def _padded_half(c: np.ndarray, K: int, m: int, half: np.ndarray) -> np.ndarray:
    """Half spectrum on an m-grid holding the K-band (ky >= 0) of an FFT-ordered array.

    Written into half (..., m, m // 2 + 1) over whatever it held: zeros
    outside the band, a copy of c inside it.
    """
    half[..., K + 1 :] = 0.0
    half[..., K + 1 : m - K, : K + 1] = 0.0
    half[..., : K + 1, : K + 1] = c[..., : K + 1, : K + 1]
    half[..., -K:, : K + 1] = c[..., -K:, : K + 1]
    return half


class _Workspace(threading.local):
    """This thread's scratch buffers for the transforms of the advective kernel.

    One flat buffer per role, grown to the largest request seen and reused
    otherwise, so the kernel's grid-sized transients are not handed back to
    the system and faulted in again on every round.  The kernel's stages
    alternate between two roles: the padded spectrum ("ping") transforms
    into grid values ("pong"), which multiply into product planes ("ping"),
    which transform into the forward spectrum ("pong"), whose band half is
    gathered per pair in the planes' place ("ping").  Each stage reads one
    buffer and writes the other, whose previous content is dead by then.  A
    thread has its own buffers, so concurrent kernels never share one.
    Views of them never leave this module: `band_to_grid`, `grid_to_band`
    and `bilinear` return fresh arrays.  `take` caches its views until their
    role's buffer grows; kept past that, they would hold the old buffer alive.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}
        self.views: dict[tuple, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        """An array of shape and dtype at the start of role's buffer; its contents are stale."""
        view = self.views.get((role, shape, dtype))
        if view is None:
            size = math.prod(shape) * np.dtype(dtype).itemsize
            buf = self.buffers.get(role)
            if buf is None or buf.nbytes < size:
                self.views = {key: v for key, v in self.views.items() if key[0] != role}
                buf = self.buffers[role] = np.empty(size, dtype=np.uint8)
            view = self.views[role, shape, dtype] = buf[:size].view(dtype).reshape(shape)
        return view


_workspace = _Workspace()


def band_to_grid(b: np.ndarray, m: int) -> np.ndarray:
    """Real values on the m-grid of band halves (..., 2K + 1, K + 1), m > 2K.

    `irfft2` of the zero-padded half spectrum, with the kx pass run in place
    over the K + 1 band columns only: the others are zero before and after.
    Public as the inverse of `grid_to_band`: a fresh copy of the grid values
    that the advective kernel forms in its workspace.  Both passes are given
    their length m (see the module docstring).
    """
    return _band_to_grid(b, m).copy()


def _band_to_grid(b: np.ndarray, m: int) -> np.ndarray:
    """`band_to_grid` as a view of the workspace's pong buffer, valid until the next transform."""
    K = b.shape[-1] - 1
    lead = b.shape[:-2]
    half = _workspace.take("ping", lead + (m, m // 2 + 1), np.complex128)
    vals = _workspace.take("pong", lead + (m, m), np.float64)
    _padded_half(b, K, m, half)
    band = half[..., : K + 1]
    np.fft.ifftn(band, s=(m,), axes=(-2,), norm="forward", out=band)
    return np.fft.irfftn(half, s=(m,), axes=(-1,), norm="forward", out=vals)


def grid_to_band(values: np.ndarray, K: int) -> np.ndarray:
    """Band halves (..., 2K + 1, K + 1) of real values on an m-grid.

    The band half of `rfft2`, with the kx pass run in place over the K + 1
    band columns only.  The half spectrum is formed in the workspace's pong
    buffer; the band half is a fresh array.  Both passes are given their length m.
    """
    return band_half(_grid_to_band(values, K), K)


def _grid_to_band(values: np.ndarray, K: int) -> np.ndarray:
    """Columns ky = 0..K of `rfft2`, all m rows, as a view of the workspace's pong buffer.

    Valid until the next transform; `grid_to_band` is its band half.
    """
    m = values.shape[-1]
    half = _workspace.take("pong", values.shape[:-1] + (m // 2 + 1,), np.complex128)
    np.fft.rfftn(values, s=(m,), axes=(-1,), norm="forward", out=half)
    band = half[..., : K + 1]
    np.fft.fftn(band, s=(m,), axes=(-2,), norm="forward", out=band)
    return band


@dataclass(frozen=True)
class BandStack:
    """Band halves of band-limited fields on one grid, shape (..., 2, 2K + 1, K + 1).

    The `band_half` layout of the stepper's state and tendencies, of stacked
    `bilinear` products and of a trajectory's sampled states.  A stack of
    shape (F, 2, 2K + 1, K + 1) is a read-only sequence of its F fields:
    indexing expands one row to a `SpectralField` with `band_full` on each
    read, and a slice is the `BandStack` of those rows.
    """

    grid: GridSpec
    coeffs: np.ndarray

    @classmethod
    def of(cls, fields: Sequence[SpectralField]) -> "BandStack":
        """Band halves of the given fields, stacked in order; outside the band is dropped."""
        grid = fields[0].grid
        for f in fields[1:]:
            fields[0]._check_grid(f)
        return cls(grid, _read_only(band_half(np.stack([f.coeffs for f in fields]), grid.cutoff)))

    def fields(self) -> tuple[SpectralField, ...]:
        """Read-only fields viewing the rows of the stack, expanded once to (F, 2, n, n)."""
        full = _read_only(band_full(self.coeffs, self.grid.n))
        return tuple(SpectralField(self.grid, row) for row in full)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BandStack(self.grid, self.coeffs[i])
        return SpectralField(self.grid, _read_only(band_full(self.coeffs[i], self.grid.n)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class ProductStack(BandStack):
    """The `BandStack` of stacked `bilinear` products, with operands' peak squared speeds.

    peak_sq_speed maps each row a of a self-product pair (a, a) to the
    largest ux**2 + uy**2 of that operand over the product grid, read off the
    planes Txx and Tyy the kernel forms anyway.
    """

    peak_sq_speed: Mapping[int, float]


def bilinear(u, v):
    """Galerkin-truncated advective term B(u, v) = P_sigma(u . grad v), in divergence form.

    Two forms of one kernel: on SpectralFields, bilinear(u, v) returns the
    field B(u, v); on a BandStack, bilinear(stack, pairs) returns the
    `ProductStack` of B(stack[a], stack[b]) for each row pair (a, b) in
    pairs, in order, whose peak_sq_speed holds max |stack[a]|**2 on the
    product grid for each self-product pair (a, a).

    Precondition: u is divergence-free.  The kernel evaluates
    P_sigma(div(v u^T)), which is P_sigma(u . grad v) + P_sigma(v div u).

    Both arguments are truncated to the band |k_i| <= K = cutoff, so their
    products reach |k_i| <= 2K.  On the product grid, of size
    m = `GridSpec.product_n` > 3K, no alias k - m of those modes reaches the
    band, so truncating the grid product is an exact Galerkin projection.
    m = n unless n is divisible by 3; then the operands are zero-padded.

    A divergence-free planar field w is k_perp (k_perp . w) / |k|^2 with
    k_perp = (-ky, kx).  For w = div(T), T = v u^T,
    k_perp . w = 2 pi i [kx ky (Tyy - Txx) + kx^2 Tyx - ky^2 Txy], so only
    these three products are formed; two when a = b, since then Tyx = Txy.

    Transforms per call: one inverse (`band_to_grid`) of every row of the
    stack, two planes each, and one forward (`grid_to_band`) of the planes
    of each distinct product tensor, self-products' first, each kind in
    order of first occurrence.  A pair repeated, or the mirror (b, a) of a
    pair (a, b) met before it, forms and transforms nothing: T = u v^T is
    the transpose of v u^T, so it reads the same planes with Tyx and Txy
    swapped, which IEEE multiplication makes exact.  The sensitivity rows'
    products B(ut, u) and B(u, ut) thus cost three planes, not six.  Each
    kind of tensor is formed in one block of whole-block ufunc calls, per
    element the operations of one tensor formed alone.  A self-product's
    Txx + Tyy is |u|**2, so its peak costs an add, a max and a repeated
    multiply, with no transform and no scratch plane.  The per-mode factors
    apply on the band half.

    Memory: the padded inverse spectrum, the grid values, the product planes
    and the forward spectrum are views of the two buffers of this thread's
    `_Workspace`, grown to the largest call seen and reused after; the band
    half of the forward spectrum and the planes gathered per pair then take
    the transformed planes' place.  Beyond numpy's cast buffers, a warm call
    allocates only its result, which is fresh and never changes after it is
    returned, and a block's operand rows where they are not evenly spaced
    (`row_index`), which it gathers.

    Returns:
        Band-limited, divergence-free, mean-free results on the common grid.
    """
    if isinstance(u, BandStack):
        return _advect(u, v)
    u._check_grid(v)
    rows = (u,) if v is u else (u, v)
    return _advect(BandStack.of(rows), [(0, len(rows) - 1)]).fields()[0]


@lru_cache(maxsize=64)
def _plane_plan(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple, int, np.ndarray]:
    """Which product planes `_advect` forms for pairs, and where each pair reads its own.

    Returns the distinct tensors as (a, b, i), self-products (a, a) first,
    then the others, each in order of first occurrence and formed from
    plane i on; the number of planes formed; and per pair the indices
    (d, yx, xy) of its planes Tyy - Txx, Tyx and Txy, shape (3, len(pairs)).
    A repeated pair reads the planes of its first occurrence.  A mirror
    (b, a) of a formed (a, b) reads them too, with Tyx and Txy swapped: its
    tensor u v^T is the transpose of v u^T, and IEEE multiplication
    commutes, so each of its planes is one of (a, b)'s bit for bit.
    """
    formed: dict[tuple[int, int], tuple[int, int, int]] = {}
    forms = []
    n_planes = 0
    for a, b in sorted(pairs, key=lambda ab: ab[0] != ab[1]):
        if (a, b) not in formed:
            i, xy = n_planes, n_planes + (1 if a == b else 2)
            forms.append((a, b, i))
            formed[b, a] = (i, xy, i + 1)
            formed[a, b] = (i, i + 1, xy)
            n_planes = xy + 1
    indices = np.array([formed[pair] for pair in pairs], dtype=np.intp).reshape(-1, 3)
    return tuple(forms), n_planes, _read_only(indices.T.copy())


@lru_cache(maxsize=64)
def _plane_blocks(forms: tuple) -> tuple:
    """Blocks of forms, self-products first: (`row_index` of u, of v, u's rows, planes each)."""
    kinds = ([f for f in forms if f[0] == f[1]], 2), ([f for f in forms if f[0] != f[1]], 3)
    return tuple((row_index(f[0] for f in fs), row_index(f[1] for f in fs), [f[0] for f in fs],
                  size) for fs, size in kinds if fs)


def _advect(stack: BandStack, pairs: Sequence[tuple[int, int]]) -> ProductStack:
    g = stack.grid
    m, K = g.product_n, g.cutoff
    forms, n_planes, (d, yx, xy) = _plane_plan(tuple(map(tuple, pairs)))
    # Per distinct tensor (a, b), with u = vals[a] and v = vals[b], the
    # planes Tyy - Txx, Tyx and Txy of T = v u^T; a self-product's Txy is
    # its Tyx.  Each kind of tensor is one block of whole-block ufunc calls,
    # per element the operations, in order, of a tensor formed alone.
    vals = _band_to_grid(stack.coeffs, m)
    prods = _workspace.take("ping", (n_planes, m, m), np.float64)
    peaks, at = {}, 0
    for a, b, rows, size in _plane_blocks(forms):
        planes = prods[at : at + size * len(rows)].reshape(len(rows), size, m, m)
        at += size * len(rows)
        u = vals[a]
        (ux, uy), (vx, vy) = u.swapaxes(0, 1), (u if size == 2 else vals[b]).swapaxes(0, 1)
        diff, tyx = planes[:, 0], planes[:, 1]
        np.multiply(vx, ux, out=tyx)
        np.multiply(vy, uy, out=diff)
        if size == 2:
            # |u|^2 = Txx + Tyy, summed in Txx's planes, which are then formed
            # again, so the peaks need no scratch planes.
            tyx += diff
            peaks.update(zip(rows, tyx.max(axis=(-2, -1)).tolist()))
            np.multiply(vx, ux, out=tyx)
        diff -= tyx
        np.multiply(vy, ux, out=tyx)
        if size == 3:
            np.multiply(vx, uy, out=planes[:, 2])
    # The forward spectrum takes the grid values' place, and the band half t
    # of its planes, followed by one kind of plane gathered per pair, takes
    # the transformed planes' place.  Dropping the last views of a buffer
    # lets it be freed first if it must grow.
    del vals, u, ux, uy, vx, vy
    spec = _grid_to_band(prods, K)
    del prods, planes, diff, tyx
    work = _workspace.take("ping", (n_planes + len(d), 2 * K + 1, K + 1), np.complex128)
    t, gathered = work[:n_planes], work[n_planes:]
    band_half(spec, K, out=t)
    # w = q0 t[d] + q1 t[yx] + q2 t[xy], formed in the rows of the result's
    # first component, then r w.  `take` writes straight into gathered
    # unless mode is "raise", which copies through a temporary.
    q, r = g.advective_factors
    out = np.empty((len(d), 2, 2 * K + 1, K + 1), dtype=np.complex128)
    w = out[:, 0]
    np.multiply(q[0], t.take(d, axis=0, out=gathered, mode="clip"), out=w)
    for qi, idx in ((q[1], yx), (q[2], xy)):
        np.multiply(qi, t.take(idx, axis=0, out=gathered, mode="clip"), out=gathered)
        w += gathered
    np.multiply(r[1], w, out=out[:, 1])
    np.multiply(r[0], w, out=w)
    return ProductStack(g, _read_only(out), peaks)


def inner(u: SpectralField, v: SpectralField, kind: str = "l2") -> float:
    """Inner product in L2 ('l2'), V ('h1') or D(A) ('h2')."""
    u._check_grid(v)
    w = _norm_weights(u.grid, kind)
    return float(np.sum(w * (u.coeffs * np.conj(v.coeffs)).sum(axis=0)).real)


def norm(field: SpectralField, kind: str = "l2") -> float:
    """Norm induced by `inner` of the same kind."""
    w = _norm_weights(field.grid, kind)
    power = np.abs(field.coeffs) ** 2
    return float(np.sqrt(np.sum(w * power.sum(axis=0))))


def _norm_weights(grid: GridSpec, kind: str) -> float | np.ndarray:
    if kind == "l2":
        return 1.0
    if kind == "h1":
        return grid.eigenvalues
    if kind == "h2":
        return grid.eigenvalues**2
    raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")


def norms(stack: BandStack, l2_only: bool = False) -> np.ndarray:
    """L2, H1 and H2 norms of every field of a stack, shape (..., 3), or (...) of L2 alone.

    The terms of `norm`, summed over the band half in another order: a mode
    ky > 0 counts twice, once for its conjugate ky < 0, through its weights
    (`GridSpec.band_norm_weights`).  l2_only forms column 0 alone, same bits.
    """
    power, weights = (np.abs(stack.coeffs) ** 2).sum(axis=-3), stack.grid.band_norm_weights
    terms = power * weights[0] if l2_only else power[..., None, :, :] * weights
    return np.sqrt(terms.sum(axis=(-2, -1)))


def taylor_green(grid: GridSpec) -> SpectralField:
    """Steady-shape vortex array (sin 2pi x cos 2pi y, -cos 2pi x sin 2pi y).

    Eigenfunction of the Stokes operator with eigenvalue 8*pi**2 and a fixed
    point of the advective term, so the viscous evolution from it is a pure
    exponential decay.
    """
    x, y = grid.points
    vals = np.stack([
        np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        -np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
    ])
    return leray_project(SpectralField.from_physical(grid, vals).band_limited())


def random_field(
    grid: GridSpec,
    seed: int | np.random.Generator,
    kmin: int = 1,
    kmax: int | None = None,
    l2_norm: float = 1.0,
    solenoidal: bool = True,
) -> SpectralField:
    """Seeded random real field with a flat isotropic spectrum on an annulus.

    Modes with kmin <= |k| <= kmax (Euclidean, intersected with the dealiased
    band; kmax None means the whole band) receive independent complex Gaussian
    coefficients, symmetrized so values are real, optionally Leray-projected,
    and rescaled to the requested L2 norm.  Identical seeds give bit-identical
    fields.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    mask = grid.band_mask & (grid.k_sq >= kmin**2)
    if kmax is not None:
        mask = mask & (grid.k_sq <= kmax**2)
    if not mask.any():
        raise ValueError(f"no modes in the requested annulus [{kmin}, {kmax}]")
    shape = (2, grid.n, grid.n)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= mask
    c = 0.5 * (c + _conj_flip(c))
    c[:, 0, 0] = 0.0
    field = SpectralField(grid, _read_only(c))
    if solenoidal:
        field = leray_project(field)
    size = norm(field, "l2")
    if size == 0.0:
        raise ValueError("random field vanished after projection, widen the annulus")
    return field * (l2_norm / size)
