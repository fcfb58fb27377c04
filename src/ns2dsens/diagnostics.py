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

The a-priori validators check three bounds on a run, for every flow and
assimilated row, with g the row's source:

    h1_sup                sup_t ||u||_H1^2 <= ||u0||_H1^2 + (1/nu) int |g|^2
    l2_sup                sup_t  |u|_L2^2  <=  |u0|_L2^2  + sup_t |g|^2 / D
    dissipation_integral  c nu int |Au|^2  <= ||u0||_H1^2 + (1/nu) int |g|^2

A flow row (or an assimilated one of a run without nudging) has g = f,
D = (lambda_1 nu)^2 and c = 1, and is checked in that order.  A nudged row has
the effective source g = f + mu P_sigma(I_h u_ref), D = mu nu lambda_1 and
c = 1/2; its L2 bound is checked first and only under the admissibility
condition, its H1 and dissipation bounds only under its strict (factor 4)
form.  Every sup and integral runs over every step of the run: the checks
read the per-step reductions `integrate` keeps (`Trajectory.reductions`),
with |g| measured in each round of right-hand sides and once for the final
state, so a verdict does not depend on the sampling cadence.  No check
evaluates the forcing, interpolates or takes a norm.  A window reads its
own span and the params its steps ran with; a run or window across a
viscosity switch is refused.  A failed check is a result, not an error.

`sample_norms` is the one pass that reads a per-sample norm of an expression
of a run's sampled band halves: in the experiments the quotient sweeps'
errors, two-path gaps and integrator tolerance, the synchronization gap and
the Taylor-Green flow oracle.  No runner or certificate expands a sample to
full spectra to take a norm.  It forms the expression `SAMPLE_BLOCK` samples
at a time into one reused block buffer, so no array of the whole run is ever
formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `interpolate` and `leray_project` stay bound here by name although no check
# calls `interpolate`: bench/tracing.py wraps both at this import site.
from .interpolants import admissibility, interpolate  # noqa: F401
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
    """Grashof number of a run at its nu1, taking sup |f| over every state of it.

    Row 0 is a flow row, whose source is f (`Trajectory.reductions`).
    """
    f_sq_sup = traj.reductions[traj.system.fields[0]][1:, 3].max()
    return grashof(float(np.sqrt(f_sq_sup)), traj.params.nu1)


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


def _sup_check(name: str, lhs: np.ndarray, rhs) -> BoundCheck:
    """lhs <= rhs at every sample after the first, reported where it comes closest.

    Each sup bound holds at a run's first state by construction (h1_sup
    with lhs = rhs), so that state cannot decide `passed` and would only
    hide the margin.  A run, and a window of one, has at least two samples.
    """
    rhs = np.broadcast_to(rhs, lhs.shape)
    i = int(np.argmax(lhs - rhs))
    return BoundCheck.from_inequality(name, lhs[i], rhs[i])


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


def check_apriori(traj, label: str = "") -> list[BoundCheck]:
    """A-priori bound checks for every flow and assimilated field of a run.

    Flow rows of the system table are checked against the three viscous
    bounds; assimilated rows against the nudged variants whose admissibility
    precondition holds, with the nudging source toward the row's target folded
    into the effective forcing.  Derivative rows are not checked.  Every
    number is read off the run's reductions and its initial norms, under
    the params its steps ran with; a run or window that spans a viscosity
    switch raises ValueError.  `label` prefixes check names.
    """
    p, system, dt = traj.params, traj.system, traj.config.dt
    t_switch = traj.nu2_switch and traj.nu2_switch[0]
    if t_switch and round(traj.times[0] / dt) < round(t_switch / dt) < round(traj.times[-1] / dt):
        raise ValueError(f"the run spans the viscosity switch at t_switch = {t_switch:.6g}; "
                         "check the windows on either side of it")
    checks: list[BoundCheck] = []
    for field, row in system.rows.items():
        if row.role == "derivative":
            continue
        nu = system.viscosity(field, p)
        # The role picks the L2 denominator, the dissipation factor, and
        # which bounds are checked (those whose gate holds) in which order.
        if row.role == "assimilated" and p.mu > 0:
            if not admissibility(nu, p.mu, p.interp):
                continue  # strict implies non-strict: no bound is checked
            l2_denom, dissipation = p.mu * nu * LAMBDA_1, 0.5 * nu
            strict = admissibility(nu, p.mu, p.interp, strict=True)
            gated = (("l2_sup", True), ("h1_sup", strict), ("dissipation_integral", strict))
        else:
            l2_denom, dissipation = (LAMBDA_1 * nu) ** 2, nu
            gated = (("h1_sup", True), ("l2_sup", True), ("dissipation_integral", True))
        l2_0, h1_0, _ = traj.series[field][0] ** 2
        reduced = traj.reductions[field]
        l2_sup, h1_sup, _, source_sup = reduced[1:, :4].T
        h2_int, source_int = (reduced[1:, 4:] - reduced[0, 4:]).T
        name = f"{label}{field}_"
        made = {
            "h1_sup": _sup_check(name + "h1_sup", h1_sup, h1_0 + source_int / nu),
            "l2_sup": _sup_check(name + "l2_sup", l2_sup, l2_0 + source_sup.max() / l2_denom),
            "dissipation_integral": BoundCheck.from_inequality(
                name + "dissipation_integral", dissipation * h2_int[-1],
                h1_0 + source_int[-1] / nu),
        }
        checks += [made[bound] for bound, gate in gated if gate]
    return checks
