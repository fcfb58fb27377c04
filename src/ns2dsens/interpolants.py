"""Coarse observation operators and the nudging admissibility test.

Two interpolant families approximate a field from coarse data at resolution h:
spectral projection onto modes max(|kx|, |ky|) <= K with h = 1/(K + 1), and
averaging over an M x M grid of square boxes with h = 1/M.  Both are linear,
idempotent and L2-contractive, and satisfy the approximation bound

    ||phi - I_h(phi)||_L2^2 <= c0 * h**2 * ||phi||_H1^2

with c0 = 1/(4*pi**2) for the projection (Parseval tail, sharp) and
c0 = 1/pi**2 for box means (per-box Poincare inequality).  `verify_bound`
certifies the constant empirically over a random ensemble; `admissibility`
evaluates the nudging condition mu * c0 * h**2 <= nu that the synchronization
and convergence guarantees assume (a factor-4 strict form gates the bounds on
assimilated difference quotients).

Both operators act per mode.  The projection is a mask.  The box average
with b = n / M points per box side is separable: on each axis, with
E(k) = (1/b) sum_{s<b} exp(2 pi i k s / n),

    g(q) = conj(E(q)) * sum_{k = q mod M} E(k) c(k),

a complex n x n matrix A applied as A @ c @ A.T on the two wavenumber axes,
with the mean mode pinned to zero.  This is exactly the grid field of box
means, constant on each box, as a spectrum.  A factors as
diag(conj E) J.T J diag(E), with J summing the modes of each residue class
mod M, and is applied in that form: weight, sum the classes along kx and
then ky, weight the class sums back out.  No transform or matrix product
runs.  `interpolate` has two forms of each operator: on a `SpectralField`
it returns the full spectrum; on a `spectral.BandStack` of band-limited
fields, any number at once, it returns the band halves of the results from
the band rows and columns of A alone (the ky < 0 columns follow by
conjugate symmetry).  The tables of each form are built once per grid and
box count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .spectral import (
    BandStack,
    GridSpec,
    SpectralField,
    _full_spectrum,
    _read_only,
    norm,
    random_field,
)

PROJECTION_C0 = 1.0 / (4.0 * np.pi**2)
BOX_AVERAGE_C0 = 1.0 / np.pi**2


@dataclass(frozen=True)
class SpectralProjection:
    """Keep modes with max(|kx|, |ky|) <= modes; coarse resolution 1/(modes+1)."""

    modes: int

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValueError(f"projection needs at least one mode, got {self.modes}")

    @property
    def h(self) -> float:
        return 1.0 / (self.modes + 1)

    @property
    def default_c0(self) -> float:
        return PROJECTION_C0


@dataclass(frozen=True)
class BoxAverage:
    """Average over a boxes x boxes partition of the torus; resolution 1/boxes."""

    boxes: int

    def __post_init__(self) -> None:
        if self.boxes < 1:
            raise ValueError(f"box average needs at least one box, got {self.boxes}")

    @property
    def h(self) -> float:
        return 1.0 / self.boxes

    @property
    def default_c0(self) -> float:
        return BOX_AVERAGE_C0


InterpolantSpec = Union[SpectralProjection, BoxAverage]


def interpolate(
    field: SpectralField | BandStack, spec: InterpolantSpec
) -> SpectralField | BandStack:
    """Apply the observation operator I_h, in one of two forms (see the module docstring).

    On a SpectralField, returns the SpectralField I_h(field), full spectrum.
    On a BandStack of band-limited fields, shape (..., 2, 2K + 1, K + 1),
    returns the BandStack of the band halves of I_h of every field.  The
    box average needs a box count dividing the grid size; its output is
    mean-free but generally neither divergence-free nor band-limited.
    """
    g = field.grid
    band = isinstance(field, BandStack)
    c = field.coeffs
    if isinstance(spec, SpectralProjection):
        k = g.band_tables[0] if band else g.k
        out = c * ((np.abs(k[0]) <= spec.modes) & (np.abs(k[1]) <= spec.modes))
    elif isinstance(spec, BoxAverage):
        w_in, perm, starts, neg, gather, w_out = _box_operator(g, spec.boxes, band)
        # Sum each residue class of E(kx) E(ky) c along kx, then along ky.
        z = np.add.reduceat((c * w_in)[..., perm, :], starts, axis=-2)
        if band:
            # Columns ky = -K..-1 of the kx-folded band half, by conjugate
            # symmetry: the kx class of -kx at ky is the negated class.
            K = g.cutoff
            z = np.concatenate([z, np.conj(z[..., neg, K:0:-1])], axis=-1)
        z = np.add.reduceat(z[..., perm], starts, axis=-1)
        out = w_out * np.take(z.reshape(z.shape[:-2] + (-1,)), gather, axis=-1)
        if not band:
            out = _full_spectrum(out)
        out[..., 0, 0] = 0.0
    else:
        raise TypeError(f"unknown interpolant spec {spec!r}")
    return BandStack(g, _read_only(out)) if band else SpectralField(g, _read_only(out))


@lru_cache(maxsize=None)
def _box_operator(grid: GridSpec, boxes: int, band: bool) -> tuple[np.ndarray, ...]:
    """Tables of the box average A c A.T on one layout, A as in the module docstring.

    A = diag(conj E) J.T J diag(E), where J sums the modes of each residue
    class mod M.  The layout is the band half (rows kx = 0..K, -K..-1,
    columns ky = 0..K) or the FFT-ordered full spectrum (all n columns in,
    ky = 0..n // 2 out).  Returns the input weights E(kx) E(ky); the
    permutation sorting either axis of the completed layout by class and
    the class starts in it, for `np.add.reduceat`; the class of -kx per
    class; the flat (row class, column class) index of each output mode;
    and the output weights conj(E(kx) E(ky)).
    """
    n = grid.n
    if n % boxes != 0:
        raise ValueError(f"box count {boxes} does not divide the grid size {n}")
    k = np.arange(n)
    # Integer phases mod n keep each root of unity exact to rounding; E
    # vanishes exactly at k = 0 mod M, k != 0 (a full turn per box).
    e = np.exp(2j * np.pi * (np.outer(k, np.arange(n // boxes)) % n) / n).mean(axis=1)
    e[(k % boxes == 0) & (k != 0)] = 0.0
    K = grid.cutoff
    axis = np.r_[0 : K + 1, n - K : n] if band else k
    half = axis[: K + 1] if band else k[: n // 2 + 1]
    residues, cls = np.unique(axis % boxes, return_inverse=True)
    perm = np.argsort(cls, kind="stable")
    starts = np.searchsorted(cls[perm], np.arange(len(residues)))
    neg = np.searchsorted(residues, -residues % boxes)
    w_in = e[axis][:, None] * e[half if band else axis]
    w_out = np.conj(e[axis][:, None] * e[half])
    gather = cls[:, None] * len(residues) + cls[: len(half)]
    tables = (w_in, perm, starts, neg, gather, w_out)
    return tuple(_read_only(t) for t in tables)


def admissibility(
    nu: float,
    mu: float,
    spec: InterpolantSpec,
    strict: bool = False,
    c0: float | None = None,
) -> bool:
    """Evaluate mu * c0 * h**2 <= nu (times 4 when strict), boundary inclusive.

    mu = 0 is always admissible.  The non-strict form is the synchronization
    condition; the strict form is what the assimilated difference-quotient
    bounds assume.
    """
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    if mu < 0:
        raise ValueError(f"nudging gain must be nonnegative, got {mu}")
    if mu == 0:
        return True
    c0 = spec.default_c0 if c0 is None else c0
    factor = 4.0 if strict else 1.0
    return factor * mu * c0 * spec.h**2 <= nu


@dataclass(frozen=True)
class InterpolantBoundReport:
    """Empirical certificate for the approximation bound of one interpolant."""

    spec: InterpolantSpec
    grid_n: int
    c0: float
    h: float
    ensemble: int
    max_ratio: float
    sharpness: float
    passed: bool


def verify_bound(
    spec: InterpolantSpec,
    grid: GridSpec,
    ensemble: int = 100,
    seed: int = 0,
    c0: float | None = None,
) -> InterpolantBoundReport:
    """Check ||phi - I_h(phi)||^2 <= c0 h^2 ||phi||_H1^2 over a random ensemble.

    Draws divergence-free fields alternating between the full dealiased band
    and a low-mode annulus, tracks the worst ratio, and passes when it stays
    at or below c0 (tiny rounding slack).  `sharpness` is max_ratio / c0, a
    measure of how much of the constant the ensemble exercised.
    """
    if ensemble < 1:
        raise ValueError(f"ensemble size must be positive, got {ensemble}")
    c0 = spec.default_c0 if c0 is None else c0
    rng = np.random.default_rng(seed)
    h_sq = spec.h**2
    max_ratio = 0.0
    for trial in range(ensemble):
        kmax = None if trial % 2 == 0 else 6
        phi = random_field(grid, rng, kmin=1, kmax=kmax)
        residual = norm(phi - interpolate(phi, spec)) ** 2
        ratio = residual / (h_sq * norm(phi, "h1") ** 2)
        max_ratio = max(max_ratio, ratio)
    return InterpolantBoundReport(
        spec=spec,
        grid_n=grid.n,
        c0=c0,
        h=spec.h,
        ensemble=ensemble,
        max_ratio=max_ratio,
        sharpness=max_ratio / c0,
        passed=bool(max_ratio <= c0 * (1.0 + 1e-12)),
    )
