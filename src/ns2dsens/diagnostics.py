"""Certification diagnostics: operator identities, a-priori bounds, Grashof number.

The identity suite certifies the discrete operators over random field
triples.  `_IDENTITIES` lists each identity with its tolerance on the worst
relative residual, in report order:

    advective_skew_symmetry             <B(u,v), w> = -<B(u,w), v>       1e-10
    advective_energy_orthogonality      <B(u,w), w> = 0                  1e-10
    advective_enstrophy_orthogonality   <B(w,w), Aw> = 0                 1e-10
    advective_polarized_enstrophy       <B(u,w), Aw> + <B(w,u), Aw>
                                          + <B(w,w), Au> = 0             1e-10
    projection_idempotent               P P x = P x                      1e-12
    projection_self_adjoint             <P x, y> = <x, P y>              1e-12
    poincare_l2_h1                      lambda_1 |f|^2 <= ||f||^2        1e-12
    poincare_h1_h2                      lambda_1 ||f||^2 <= |Af|^2       1e-12

Residuals are relative to the natural scale of each identity, so they certify
cancellation rather than smallness.

The a-priori validators check three bounds along the samples of a run, for
every flow and assimilated row, with g the row's source:

    h1_sup                sup_t ||u||_H1^2 <= ||u0||_H1^2 + (1/nu) int |g|^2
    l2_sup                sup_t  |u|_L2^2  <=  |u0|_L2^2  + sup_t |g|^2 / D
    dissipation_integral  c nu int |Au|^2  <= ||u0||_H1^2 + (1/nu) int |g|^2

A flow row (or an assimilated one of a run without nudging) has g = f,
D = (lambda_1 nu)^2 and c = 1, and is checked in that order.  A nudged row has
the effective source g = f + mu P_sigma(I_h u_ref), D = mu nu lambda_1 and
c = 1/2; its L2 bound is checked first and only under the admissibility
condition, its H1 and dissipation bounds only under its strict (factor 4)
form.  The source norms |g| are L2 norms of band halves for both roles, the
forcing read as its projected band half (`forcing_band`).  A flow row's |f|
is measured once for a constant forcing, and for a callable one at every
sample time through `sample_norms`; a nudged row's |g| comes from the sampled
reference states after the run, through `sample_norms`: one `interpolate`
call and one projection per block of samples.  A failed check is a result,
not an error.

`sample_norms` is the one pass that reads a per-sample norm of an expression
of a run's sampled band halves: a callable forcing and the nudged source
here, and in the experiments the quotient sweeps' errors, two-path gaps and
integrator tolerance, the synchronization gap and the Taylor-Green flow
oracle.  No runner or certificate expands a sample or a forcing value to full
spectra to take a norm.  It forms the expression `SAMPLE_BLOCK` samples at a
time into one reused block buffer, so no array of the whole run is ever
formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhysicsParams, forcing_band
from .interpolants import admissibility, interpolate
from .spectral import (
    LAMBDA_1,
    NORM_KINDS,
    BandStack,
    GridSpec,
    bilinear,
    inner,
    leray_project,
    norm,
    norms,
    project_coeffs,
    random_field,
    stokes_apply,
)

APRIORI_REL_TOL = 1e-8
# Samples per block of `sample_norms`.  Its buffer, and each temporary of a
# block, is SAMPLE_BLOCK x 2(2K + 1)(K + 1) x 16 B whatever the sample count:
# 0.29 MB at n = 48, 7.5 MB at n = 256.
SAMPLE_BLOCK = 16
IDENTITY_TOL = 1e-10
PROJECTION_TOL = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    """One certified inequality: lhs <= rhs up to a relative tolerance."""

    name: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool

    @classmethod
    def from_inequality(cls, name: str, lhs: float, rhs: float) -> "BoundCheck":
        """lhs <= rhs up to `APRIORI_REL_TOL` of the larger magnitude."""
        margin = rhs - lhs
        scale = max(abs(lhs), abs(rhs))
        return cls(
            name=name,
            lhs=float(lhs),
            rhs=float(rhs),
            margin=float(margin),
            tolerance=APRIORI_REL_TOL,
            passed=bool(margin >= -APRIORI_REL_TOL * scale),
        )

    @classmethod
    def from_residual(cls, name: str, residual: float, tol: float) -> "BoundCheck":
        """Residual already normalized; passes when it stays below tol."""
        return cls(
            name=name,
            lhs=float(residual),
            rhs=float(tol),
            margin=float(tol - residual),
            tolerance=tol,
            passed=bool(residual <= tol),
        )


def grashof(f_norm_sup: float, nu: float) -> float:
    """Grashof number sup_t |f|_L2 / (nu^2 lambda_1)."""
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    if f_norm_sup < 0:
        raise ValueError(f"forcing norm must be nonnegative, got {f_norm_sup}")
    return f_norm_sup / (nu**2 * LAMBDA_1)


def trajectory_grashof(traj) -> float:
    """Grashof number of a run at its nu1, taking sup |f| over its sample times."""
    return grashof(float(_forcing_l2(traj, traj.params).max()), traj.params.nu1)


@dataclass(frozen=True)
class IdentityReport:
    """Worst-case identity residuals over a random ensemble."""

    checks: tuple[BoundCheck, ...]
    empirical: dict
    trials: int
    grid_n: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# Each certified identity and its tolerance on the relative residual, in
# report order: the advective identities, then the projection and the
# Poincare chain.
_IDENTITIES = (
    ("advective_skew_symmetry", IDENTITY_TOL),
    ("advective_energy_orthogonality", IDENTITY_TOL),
    ("advective_enstrophy_orthogonality", IDENTITY_TOL),
    ("advective_polarized_enstrophy", IDENTITY_TOL),
    ("projection_idempotent", PROJECTION_TOL),
    ("projection_self_adjoint", PROJECTION_TOL),
    ("poincare_l2_h1", PROJECTION_TOL),
    ("poincare_h1_h2", PROJECTION_TOL),
)
_FLOOR = 1e-300


def _poincare(lower: list[float], upper: list[float]) -> float:
    """Worst relative excess of lambda_1 |f|_lower^2 over |f|_upper^2 among pairs."""
    return max(max(0.0, LAMBDA_1 * lo**2 - hi**2) / hi**2 for lo, hi in zip(lower, upper))


def _trial(grid: GridSpec, rng: np.random.Generator) -> list[float]:
    """One random triple's residuals in `_IDENTITIES` order, then its advective constant."""
    u, v, w = (random_field(grid, rng) for _ in range(3))
    x, y = (random_field(grid, rng, solenoidal=False) for _ in range(2))
    b_uw, b_ww = bilinear(u, w), bilinear(w, w)
    a_u, a_w = stokes_apply(u), stokes_apply(w)
    t1, t2 = inner(bilinear(u, v), w), inner(b_uw, v)
    s1, s2, s3 = inner(b_uw, a_w), inner(bilinear(w, u), a_w), inner(b_ww, a_u)
    px = leray_project(x)
    l2, h1, h2 = ([norm(f, kind) for f in (u, v, w)] for kind in ("l2", "h1", "h2"))
    denom = np.sqrt(l2[0] * h1[0]) * h1[1] * np.sqrt(l2[2] * h1[2])
    return [
        abs(t1 + t2) / max(abs(t1), abs(t2), _FLOOR),
        abs(inner(b_uw, w)) / max(norm(b_uw) * norm(w), _FLOOR),
        abs(inner(b_ww, a_w)) / max(norm(b_ww) * norm(a_w), _FLOOR),
        abs(s1 + s2 + s3) / max(abs(s1) + abs(s2) + abs(s3), _FLOOR),
        norm(leray_project(px) - px) / max(norm(x), _FLOOR),
        abs(inner(px, y) - inner(x, leray_project(y))) / max(norm(x) * norm(y), _FLOOR),
        _poincare(l2, h1),
        _poincare(h1, h2),
        abs(t1) / max(denom, _FLOOR),
    ]


def identity_suite(grid: GridSpec, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Certify the advective and projection identities over random triples.

    Draws solenoidal fields across the whole dealiased band (cutoff modes
    included), takes the worst relative residual of each identity over the
    trials, and reports the observed constant of the advective interpolation
    inequality |<B(u,v), w>| <= c (|u| ||u||)^(1/2) ||v|| (|w| ||w||)^(1/2),
    which is recorded but not asserted.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    *worst, constant = np.max([_trial(grid, rng) for _ in range(trials)], axis=0)
    return IdentityReport(
        checks=tuple(BoundCheck.from_residual(name, r, tol)
                     for (name, tol), r in zip(_IDENTITIES, worst)),
        empirical={"advective_inequality_constant": float(constant)},
        trials=trials,
        grid_n=grid.n,
    )


def _cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    if len(values) > 1:
        increments = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
        out[1:] = np.cumsum(increments)
    return out


def _sup_check(name: str, lhs_series: np.ndarray, rhs_series: np.ndarray) -> BoundCheck:
    """lhs <= rhs at every sample, reported where it comes closest after t = 0.

    Each sup bound holds at t = 0 by construction (h1_sup with lhs = rhs),
    so that sample cannot decide `passed` and would only hide the margin.
    A run, and a window of one, has at least two samples.
    """
    i = 1 + int(np.argmax(lhs_series[1:] - rhs_series[1:]))
    return BoundCheck.from_inequality(name, lhs_series[i], rhs_series[i])


def sample_norms(traj, form, kind: str = "l2") -> np.ndarray:
    """One norm column, L2 or H1, of a band-half expression at every sample of a run.

    form(block, out) writes the expression's band halves at the samples of
    the slice block into out, a view of one block buffer reused for every
    block of `SAMPLE_BLOCK` samples.  The L2 column is `norms(...,
    l2_only=True)`, any other the named column of `norms`.
    """
    n, K = traj.n_samples, traj.grid.cutoff
    buf = np.empty((min(n, SAMPLE_BLOCK), 2, 2 * K + 1, K + 1), dtype=np.complex128)
    out = np.empty(n)
    for i in range(0, n, SAMPLE_BLOCK):
        stack = BandStack(traj.grid, buf[: n - i])
        form(slice(i, i + len(stack)), stack.coeffs)
        out[i : i + len(stack)] = (norms(stack, l2_only=True) if kind == "l2"
                                     else norms(stack)[:, NORM_KINDS.index(kind)])
    return out


def _forcing_halves(p: PhysicsParams, grid: GridSpec, times: np.ndarray, out=None) -> np.ndarray:
    """`forcing_band` at each of times, stacked, into out when given."""
    return np.stack([forcing_band(p, grid, t) for t in times], out=out)


def _forcing_l2(traj, p: PhysicsParams) -> np.ndarray:
    """|f|_L2 of the forcing's band half at every sample of a run, a constant one measured once."""
    grid, times = traj.grid, traj.times
    if p.forcing is None:
        return np.zeros(len(times))
    if callable(p.forcing):
        return sample_norms(traj, lambda block, out: _forcing_halves(p, grid, times[block], out))
    return np.full(len(times), norms(BandStack(grid, forcing_band(p, grid, 0.0)), l2_only=True))


def effective_source_l2(traj, ref: str, p: PhysicsParams) -> np.ndarray:
    """|f + mu P_sigma(I_h u_ref)|_L2 under p at every sample of a run, u_ref the field named ref.

    A constant forcing's band half is the one p holds (`forcing_band`), a
    callable's is formed per time.
    """
    grid, times, refs = traj.grid, traj.times, traj.snapshots[ref].coeffs
    f = None if callable(p.forcing) else forcing_band(p, grid, 0.0)

    def source(block: slice, out: np.ndarray) -> None:
        seen = interpolate(BandStack(grid, refs[block]), p.interp).coeffs
        np.multiply(p.mu, project_coeffs(seen, *grid.band_projector), out=out)
        np.add(_forcing_halves(p, grid, times[block]) if f is None else f, out, out=out)

    return sample_norms(traj, source)


def check_apriori(traj, p: PhysicsParams | None = None, label: str = "") -> list[BoundCheck]:
    """A-priori bound checks for every flow and assimilated field of a run.

    Flow rows of the system table are checked against the three viscous
    bounds; assimilated rows against the nudged variants whose admissibility
    precondition holds, with the nudging source toward the row's target folded
    into the effective forcing.  Derivative rows are not checked.  `p`
    overrides the trajectory's stored parameters, which matters for windows
    of a run whose viscosity was switched mid-flight; `label` prefixes check
    names.
    """
    p = traj.params if p is None else p
    system, times = traj.system, traj.times
    f_l2 = _forcing_l2(traj, p)
    checks: list[BoundCheck] = []
    for field, row in system.rows.items():
        if row.role == "derivative":
            continue
        nu = system.viscosity(field, p)
        # The role picks the source, the L2 denominator, the dissipation
        # factor, and which bounds are checked (those whose gate holds) in
        # which order.
        if row.role == "assimilated" and p.mu > 0:
            if not admissibility(nu, p.mu, p.interp):
                continue  # strict implies non-strict: no bound is checked
            source = effective_source_l2(traj, row.nudge_to, p)
            l2_denom, dissipation = p.mu * nu * LAMBDA_1, 0.5 * nu
            strict = admissibility(nu, p.mu, p.interp, strict=True)
            gated = (("l2_sup", True), ("h1_sup", strict), ("dissipation_integral", strict))
        else:
            source, l2_denom, dissipation = f_l2, (LAMBDA_1 * nu) ** 2, nu
            gated = (("h1_sup", True), ("l2_sup", True), ("dissipation_integral", True))
        h1_sq, l2_sq, h2_sq = (traj.norm_series(field, k) ** 2 for k in ("h1", "l2", "h2"))
        source_int = _cumulative_trapezoid(source**2, times)
        name = f"{label}{field}_"
        made = {
            "h1_sup": _sup_check(name + "h1_sup", h1_sq, h1_sq[0] + source_int / nu),
            "l2_sup": _sup_check(name + "l2_sup", l2_sq, np.full_like(
                l2_sq, l2_sq[0] + source.max() ** 2 / l2_denom)),
            "dissipation_integral": BoundCheck.from_inequality(
                name + "dissipation_integral", dissipation * np.trapezoid(h2_sq, times),
                h1_sq[0] + source_int[-1] / nu),
        }
        checks += [made[bound] for bound, gate in gated if gate]
    return checks
