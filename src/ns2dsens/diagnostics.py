"""Certification diagnostics: operator identities, a-priori bounds, Grashof number.

The identity suite certifies the discrete advective term over random field
triples: skew symmetry <B(u,v), w> = -<B(u,w), v>, energy orthogonality
<B(u,w), w> = 0, the planar enstrophy orthogonality <B(w,w), Aw> = 0, and its
polarized form <B(u,w), Aw> + <B(w,u), Aw> + <B(w,w), Au> = 0, together with
projection idempotence and self-adjointness and the Poincare norm chain.
Residuals are relative to the natural scale of each identity, so they certify
cancellation rather than smallness.

The a-priori validators check along sampled trajectories that flow fields obey

    sup_t ||u||_H1^2 <= ||u0||_H1^2 + (1/nu) int |f|^2
    sup_t  |u|_L2^2  <=  |u0|_L2^2  + sup_t |f|^2 / (lambda_1 nu)^2
    nu int |Au|^2    <= ||u0||_H1^2 + (1/nu) int |f|^2

and that assimilated fields obey the analogous bounds with the effective
source g = f + mu P_sigma(I_h u_ref); the L2 variant sharpens to
|v0|^2 + sup|g|^2 / (mu nu lambda_1) under the admissibility condition, and
the H1 and dissipation variants require its strict (factor 4) form.  The
source norms |g| come from the sampled reference states after the run, on
their band halves, in stacked blocks of `SAMPLE_BLOCK` samples: one
`interpolate` call, one projection and one `norms` call per block.  Each
temporary of a block holds SAMPLE_BLOCK x 2(2K + 1)(K + 1) complex values,
16 B each, whatever the sample count.  A constant forcing is measured once;
a callable one at every sample time.  A failed check is a result, not
an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhysicsParams, forcing_at, forcing_band
from .interpolants import admissibility, interpolate
from .spectral import (
    LAMBDA_1,
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
# Samples per stacked call of the post-run checks.  Each temporary is
# SAMPLE_BLOCK x 2(2K + 1)(K + 1) x 16 B whatever the sample count: 0.29 MB
# at n = 48, 7.5 MB at n = 256.
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
    def from_inequality(
        cls, name: str, lhs: float, rhs: float, rel_tol: float = APRIORI_REL_TOL
    ) -> "BoundCheck":
        margin = rhs - lhs
        scale = max(abs(lhs), abs(rhs))
        return cls(
            name=name,
            lhs=float(lhs),
            rhs=float(rhs),
            margin=float(margin),
            tolerance=rel_tol,
            passed=bool(margin >= -rel_tol * scale),
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


def _forcing_l2(p: PhysicsParams, grid: GridSpec, times: np.ndarray) -> np.ndarray:
    """|f(t)|_L2 at each time; a constant forcing is measured once."""
    if callable(p.forcing):
        return np.asarray([norm(forcing_at(p, grid, t)) for t in times])
    return np.full(len(times), norm(forcing_at(p, grid, 0.0)))


def trajectory_grashof(traj, nu: float | None = None) -> float:
    """Grashof number of a run, taking sup |f| over its sample times."""
    p = traj.params
    sup = float(_forcing_l2(p, traj.grid, traj.times).max())
    return grashof(sup, p.nu1 if nu is None else nu)


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


def identity_suite(
    grid: GridSpec,
    trials: int = 100,
    seed: int = 0,
    tol_identity: float = IDENTITY_TOL,
    tol_projection: float = PROJECTION_TOL,
) -> IdentityReport:
    """Certify the advective and projection identities over random triples.

    Draws solenoidal fields across the whole dealiased band (cutoff modes
    included), accumulates the worst relative residual of each identity, and
    reports the observed constant of the advective interpolation inequality
    |<B(u,v), w>| <= c (|u| ||u||)^(1/2) ||v|| (|w| ||w||)^(1/2), which is
    recorded but not asserted.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    floor = 1e-300
    worst = {
        "advective_skew_symmetry": 0.0,
        "advective_energy_orthogonality": 0.0,
        "advective_enstrophy_orthogonality": 0.0,
        "advective_polarized_enstrophy": 0.0,
        "projection_idempotent": 0.0,
        "projection_self_adjoint": 0.0,
        "poincare_l2_h1": 0.0,
        "poincare_h1_h2": 0.0,
    }
    advective_constant = 0.0

    for _ in range(trials):
        u = random_field(grid, rng)
        v = random_field(grid, rng)
        w = random_field(grid, rng)

        b_uv = bilinear(u, v)
        b_uw = bilinear(u, w)
        b_wu = bilinear(w, u)
        b_ww = bilinear(w, w)
        a_u = stokes_apply(u)
        a_w = stokes_apply(w)

        t1 = inner(b_uv, w)
        t2 = inner(b_uw, v)
        worst["advective_skew_symmetry"] = max(
            worst["advective_skew_symmetry"],
            abs(t1 + t2) / max(abs(t1), abs(t2), floor),
        )
        worst["advective_energy_orthogonality"] = max(
            worst["advective_energy_orthogonality"],
            abs(inner(b_uw, w)) / max(norm(b_uw) * norm(w), floor),
        )
        worst["advective_enstrophy_orthogonality"] = max(
            worst["advective_enstrophy_orthogonality"],
            abs(inner(b_ww, a_w)) / max(norm(b_ww) * norm(a_w), floor),
        )
        s1 = inner(b_uw, a_w)
        s2 = inner(b_wu, a_w)
        s3 = inner(b_ww, a_u)
        worst["advective_polarized_enstrophy"] = max(
            worst["advective_polarized_enstrophy"],
            abs(s1 + s2 + s3) / max(abs(s1) + abs(s2) + abs(s3), floor),
        )

        x = random_field(grid, rng, solenoidal=False)
        y = random_field(grid, rng, solenoidal=False)
        px = leray_project(x)
        worst["projection_idempotent"] = max(
            worst["projection_idempotent"],
            norm(leray_project(px) - px) / max(norm(x), floor),
        )
        worst["projection_self_adjoint"] = max(
            worst["projection_self_adjoint"],
            abs(inner(px, y) - inner(x, leray_project(y))) / max(norm(x) * norm(y), floor),
        )

        for f in (u, v, w):
            l2 = norm(f)
            h1 = norm(f, "h1")
            h2 = norm(f, "h2")
            worst["poincare_l2_h1"] = max(
                worst["poincare_l2_h1"], max(0.0, LAMBDA_1 * l2**2 - h1**2) / h1**2
            )
            worst["poincare_h1_h2"] = max(
                worst["poincare_h1_h2"], max(0.0, LAMBDA_1 * h1**2 - h2**2) / h2**2
            )

        denom = (
            np.sqrt(norm(u) * norm(u, "h1"))
            * norm(v, "h1")
            * np.sqrt(norm(w) * norm(w, "h1"))
        )
        advective_constant = max(advective_constant, abs(t1) / max(denom, floor))

    tolerances = {
        "advective_skew_symmetry": tol_identity,
        "advective_energy_orthogonality": tol_identity,
        "advective_enstrophy_orthogonality": tol_identity,
        "advective_polarized_enstrophy": tol_identity,
        "projection_idempotent": tol_projection,
        "projection_self_adjoint": tol_projection,
        "poincare_l2_h1": tol_projection,
        "poincare_h1_h2": tol_projection,
    }
    checks = tuple(
        BoundCheck.from_residual(name, worst[name], tolerances[name]) for name in worst
    )
    return IdentityReport(
        checks=checks,
        empirical={"advective_inequality_constant": advective_constant},
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
    i = int(np.argmax(lhs_series - rhs_series))
    return BoundCheck.from_inequality(name, lhs_series[i], rhs_series[i])


def effective_source_l2(traj, ref: str, p: PhysicsParams | None = None) -> np.ndarray:
    """|f + mu P_sigma(I_h u_ref)|_L2 at every sample of a run, u_ref the field named ref.

    Stacked on the band halves of the samples, `SAMPLE_BLOCK` at a time.  A
    constant forcing's band half is the one p holds (`forcing_band`), a
    callable's is formed per time.
    """
    p = traj.params if p is None else p
    grid, times = traj.grid, traj.times
    refs = traj.snapshots[ref].coeffs
    constant = not callable(p.forcing)
    f = forcing_band(p, grid, 0.0) if constant else None
    out = np.empty(len(times))
    for i in range(0, len(times), SAMPLE_BLOCK):
        block = slice(i, i + SAMPLE_BLOCK)
        if not constant:
            f = np.stack([forcing_band(p, grid, t) for t in times[block]])
        seen = interpolate(BandStack(grid, refs[block]), p.interp).coeffs
        g = f + p.mu * project_coeffs(seen, *grid.band_projector)
        out[block] = norms(BandStack(grid, g), l2_only=True)
    return out


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
    system = traj.system
    grid = traj.grid
    times = traj.times
    f_l2 = _forcing_l2(p, grid, times)
    checks: list[BoundCheck] = []

    def flow_checks(field: str, nu: float, source_l2: np.ndarray) -> None:
        h1_sq = traj.norm_series(field, "h1") ** 2
        l2_sq = traj.norm_series(field, "l2") ** 2
        h2_sq = traj.norm_series(field, "h2") ** 2
        source_int = _cumulative_trapezoid(source_l2**2, times)
        checks.append(
            _sup_check(f"{label}{field}_h1_sup", h1_sq, h1_sq[0] + source_int / nu)
        )
        rhs = l2_sq[0] + source_l2.max() ** 2 / (LAMBDA_1 * nu) ** 2
        checks.append(
            _sup_check(f"{label}{field}_l2_sup", l2_sq, np.full_like(l2_sq, rhs))
        )
        checks.append(
            BoundCheck.from_inequality(
                f"{label}{field}_dissipation_integral",
                nu * np.trapezoid(h2_sq, times),
                h1_sq[0] + source_int[-1] / nu,
            )
        )

    def assimilated_checks(field: str, ref: str, nu: float) -> None:
        g_l2 = effective_source_l2(traj, ref, p)
        h1_sq = traj.norm_series(field, "h1") ** 2
        l2_sq = traj.norm_series(field, "l2") ** 2
        h2_sq = traj.norm_series(field, "h2") ** 2
        if admissibility(nu, p.mu, p.interp):
            rhs = l2_sq[0] + g_l2.max() ** 2 / (p.mu * nu * LAMBDA_1)
            checks.append(
                _sup_check(f"{label}{field}_l2_sup", l2_sq, np.full_like(l2_sq, rhs))
            )
        if admissibility(nu, p.mu, p.interp, strict=True):
            g_int = _cumulative_trapezoid(g_l2**2, times)
            checks.append(
                _sup_check(f"{label}{field}_h1_sup", h1_sq, h1_sq[0] + g_int / nu)
            )
            checks.append(
                BoundCheck.from_inequality(
                    f"{label}{field}_dissipation_integral",
                    0.5 * nu * np.trapezoid(h2_sq, times),
                    h1_sq[0] + g_int[-1] / nu,
                )
            )

    for field, row in system.rows.items():
        if row.role == "derivative":
            continue
        nu = system.viscosity(field, p)
        if row.role == "assimilated" and p.mu > 0:
            assimilated_checks(field, row.nudge_to, nu)
        else:
            flow_checks(field, nu, f_l2)
    return checks
