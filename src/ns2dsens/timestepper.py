"""Semi-implicit time integration of the coupled spectral systems.

One scheme, imex_cnab2: Crank-Nicolson on each field's own viscous term,
which is diagonal per mode, and second-order Adams-Bashforth extrapolation
of everything else (advection, forcing, nudging, coupling terms), started by
one explicit second-order Heun step.  The extrapolated part carries no
viscosity factor, so a mid-run viscosity switch only changes the implicit
denominators; a switch to the same value reproduces the unswitched run bit
for bit.

All coupled fields advance together from one time level as one read-only
band-half stack of shape (F, 2, 2K + 1, K + 1) in `system.fields` order
(see `spectral.band_half`): state, tendencies, forcing, Stokes and nudging
terms all vanish outside the dealiased band, and the ky < 0 modes are
conjugates, so nothing else is kept.  Each round of right-hand sides is one
`SystemSpec.explicit_rhs` call on the stack, with one stacked `bilinear`
call inside.  Each step is one whole-stack update with per-row viscosities,
then one divergence-free re-projection that suppresses rounding drift, and
the three norms of every field, all on the band half.  Sampled states stay
band halves too: each sample copies the state into one (S, F, 2, 2K + 1,
K + 1) numpy array, allocated once per run and read-only after it; the
`Trajectory` expands a field only when it is read.  Every per-mode
operation is the one the full stack would do on the same mode, so the
states are those of a full-stack step; the norms sum the same terms in
another order.

Guards: the nudging stability condition dt * mu <= 1 and the admissibility
condition mu * c0 * h**2 <= nu are checked before marching (the latter can be
demoted to a warning for deliberately inadmissible studies).  The advective
CFL estimate dt * n * max|u| <= 0.5, max|u| over the advecting rows, is
checked on every state from t = 0 to t_end.  The first round of each step
reads it off the self-products it forms (`SystemSpec.explicit_rhs`), with
no transform; the Heun midpoint is not a state and is not checked; the
final state, which no round sees, is checked once through
`SpectralField.max_speed`.  On padded grids (n divisible by 3) the rounds
take max|u| over the m = n + 2 product grid, the final check over the
n-grid.  The first excursion of a run warns, and `Trajectory.peak_cfl`
records the largest estimate with its time.  Blow-up (non-finite norms, or
growth beyond 1e6 times the initial scale) raises BlowupError carrying the
norm history.  Identical inputs produce bit-identical trajectories.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .dynamics import PhysicsParams, SystemSpec, with_viscosity2
from .interpolants import admissibility
from .spectral import (
    BandStack,
    GridSpec,
    SpectralField,
    leray_project,
    norm,
    norms,
    project_coeffs,
)

_BLOWUP_FACTOR = 1e6
_CFL_LIMIT = 0.5


class CFLWarning(UserWarning):
    """Advective CFL estimate exceeded, raised at the first excursion of a run."""


class AdmissibilityWarning(UserWarning):
    """Nudging admissibility deliberately not enforced for this run."""


class AdmissibilityError(ValueError):
    """Nudging gain too large for the viscosity and observation resolution."""


class BlowupError(RuntimeError):
    """A field's norm became non-finite or grew past the blow-up threshold."""

    def __init__(self, field: str, time: float, value: float, history: dict):
        super().__init__(
            f"field {field!r} blew up at t = {time:.6g} with L2 norm {value:.6e}"
        )
        self.field = field
        self.time = time
        self.value = value
        self.history = history
        self.config_digest, self.warnings = "", []  # of the run, set by experiments.reported


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon and sampling cadence.

    t_end must be an integer number of steps and sample_every must divide the
    step count so the final time is always a sample.
    """

    dt: float
    t_end: float
    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt > self.t_end:
            raise ValueError(f"dt = {self.dt} exceeds t_end = {self.t_end}")
        ratio = self.t_end / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(
                f"t_end = {self.t_end} is not an integer number of steps of dt = {self.dt}"
            )
        if int(self.sample_every) != self.sample_every or self.sample_every < 1:
            raise ValueError(f"sample_every must be a positive integer, got {self.sample_every}")
        if self.n_steps % int(self.sample_every) != 0:
            raise ValueError(
                f"sample_every = {self.sample_every} does not divide {self.n_steps} steps"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    """Sampled states and norm series of one integration.

    times starts at 0 and ends at t_end.  series maps each field name to an
    (n_samples, 3) array with columns (L2, H1, H2); snapshots maps it to the
    sampled fields, a read-only `BandStack` over that field's band halves
    in the sample array, which expands a `SpectralField` on each read.
    Norms are summed on the band half at every step.
    max_projection_drift is the largest per-step change the divergence-free
    re-projection made, a rounding-level health figure.  peak_cfl is the
    largest advective CFL estimate over every state of the run, with its
    time, as (value, t).
    """

    system: SystemSpec
    params: PhysicsParams
    config: SolverConfig
    times: np.ndarray
    snapshots: dict[str, Sequence[SpectralField]]
    series: dict[str, np.ndarray]
    nu2_switch: tuple[float, float] | None = None
    max_projection_drift: float = 0.0
    peak_cfl: tuple[float, float] = (0.0, 0.0)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def grid(self) -> GridSpec:
        """Grid of the sampled fields, read without expanding one."""
        return next(iter(self.snapshots.values())).grid

    def norm_series(self, name: str, kind: str = "l2") -> np.ndarray:
        col = {"l2": 0, "h1": 1, "h2": 2}[kind]
        return self.series[name][:, col]

    def snapshot(self, name: str, i: int) -> SpectralField:
        return self.snapshots[name][i]

    def final(self, name: str) -> SpectralField:
        return self.snapshots[name][-1]

    def index_at_time(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t = {t} is not a sample time")
        return i

    def window(self, i0: int, i1: int) -> "Trajectory":
        """Sub-trajectory over sample indices [i0, i1], keeping absolute times."""
        if not 0 <= i0 < i1 < self.n_samples:
            raise ValueError(f"bad window [{i0}, {i1}] for {self.n_samples} samples")
        return Trajectory(
            system=self.system,
            params=self.params,
            config=self.config,
            times=self.times[i0 : i1 + 1],
            snapshots={k: v[i0 : i1 + 1] for k, v in self.snapshots.items()},
            series={k: v[i0 : i1 + 1] for k, v in self.series.items()},
            nu2_switch=self.nu2_switch,
            max_projection_drift=self.max_projection_drift,
            peak_cfl=self.peak_cfl,
        )


def _cfl_guard(cfl: float, t: float, peak: tuple[float, float]) -> tuple[float, float]:
    """Warn if cfl is the run's first estimate beyond the limit; return the peak (value, t)."""
    if cfl > _CFL_LIMIT >= peak[0]:
        warnings.warn(
            f"advective CFL estimate {cfl:.3g} exceeds {_CFL_LIMIT} at t = {t:.6g}",
            CFLWarning,
        )
    return (cfl, t) if cfl > peak[0] else peak


def _prepare_state(
    system: SystemSpec, init: Mapping[str, SpectralField], grid: GridSpec
) -> np.ndarray:
    """Band-half initial state (F, 2, 2K + 1, K + 1) in `system.fields` order, read-only."""
    unknown = set(init) - set(system.fields) - {system.base(name) for name in system.fields}
    if unknown:
        raise ValueError(
            f"initial data for unknown fields {sorted(unknown)}; "
            f"system {system.kind.value} evolves {list(system.fields)}"
        )
    fields = []
    for name in system.fields:
        f = init.get(name, init.get(system.base(name)))
        if f is not None:
            if f.grid.n != grid.n:
                raise ValueError(f"field {name!r} is on grid {f.grid.n}, expected {grid.n}")
            fields.append(leray_project(f.band_limited()))
        elif name in system.zero_default_fields:
            fields.append(SpectralField.zero(grid))
        else:
            raise ValueError(f"missing initial data for field {name!r}")
    return BandStack.of(fields).coeffs


def _check_nudging_step(dt: float, mu: float) -> None:
    """Raise ValueError unless dt * mu <= 1, the nudging term's stability condition."""
    if dt * mu > 1.0 + 1e-12:
        raise ValueError(f"nudging stability requires dt * mu <= 1, got {dt * mu:.6g}")


def _check_gates(
    system: SystemSpec,
    p: PhysicsParams,
    cfg: SolverConfig,
    nu_extra: float | None,
    enforce_admissibility: bool,
) -> None:
    if not system.uses_nudging(p):
        return
    _check_nudging_step(cfg.dt, p.mu)
    nus = [system.viscosity(name, p) for name in system.nudged_fields]
    if nu_extra is not None:
        nus.append(nu_extra)
    nu_min = min(nus)
    if not admissibility(nu_min, p.mu, p.interp):
        c0 = p.interp.default_c0
        detail = (
            f"mu * c0 * h^2 = {p.mu * c0 * p.interp.h ** 2:.6g} exceeds nu = {nu_min:.6g}"
        )
        if enforce_admissibility:
            raise AdmissibilityError(f"nudging admissibility violated: {detail}")
        warnings.warn(f"running without nudging admissibility: {detail}", AdmissibilityWarning)


def integrate(
    system: SystemSpec,
    init: Mapping[str, SpectralField],
    p: PhysicsParams,
    cfg: SolverConfig,
    nu2_switch: tuple[float, float] | None = None,
    enforce_admissibility: bool = True,
) -> Trajectory:
    """March the coupled system from t = 0 to t_end and sample the result.

    Initial fields are truncated to the dealiased band and Leray-projected on
    ingestion; fields the system defines with zero initial data (quotients and
    sensitivities) may be omitted, and a `SystemSpec.nu2s` copy without its
    own entry starts from its base row's.  nu2_switch = (t_switch, nu_new) replaces
    nu2 from the step starting at t_switch on, which must be a step boundary
    strictly inside the run.

    Raises BlowupError on runaway norms and AdmissibilityError when nudging
    parameters violate the admissibility condition (unless demoted to a
    warning with enforce_admissibility=False).
    """
    if not init:
        raise ValueError("initial data must contain at least one field")
    grid = next(iter(init.values())).grid
    state = _prepare_state(system, init, grid)

    switch_step = cfg.n_steps
    p_after = p
    if nu2_switch is not None:
        t_switch, nu_new = nu2_switch
        ratio = t_switch / cfg.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"t_switch = {t_switch} is not a step boundary of dt = {cfg.dt}")
        switch_step = int(round(ratio))
        if not 1 <= switch_step <= cfg.n_steps - 1:
            raise ValueError(f"t_switch = {t_switch} must lie strictly inside (0, t_end)")
        p_after = p if nu_new == p.nu2 else with_viscosity2(p, nu_new)

    _check_gates(
        system, p, cfg,
        nu_extra=None if nu2_switch is None else p_after.nu2,
        enforce_admissibility=enforce_admissibility,
    )

    dt = cfg.dt
    lam, projector = grid.band_tables[2], grid.band_projector
    names = system.fields
    cfl_per_speed = dt * grid.n

    def phase(q: PhysicsParams) -> tuple:
        """Params and per-row factors (nu lam, 1 - a, 1 + a), a = dt nu lam / 2."""
        nu = np.array([system.viscosity(name, q) for name in names]).reshape(-1, 1, 1, 1)
        a = 0.5 * dt * nu * lam
        return q, nu * lam, 1.0 - a, 1.0 + a

    before, after = phase(p), phase(p_after)

    times = np.arange(0, cfg.n_steps + 1, cfg.sample_every) * dt
    series = np.empty((len(names), len(times), 3))
    series[:, 0] = norms(BandStack(grid, state))
    l2_0 = series[:, 0, 0]
    ref_l2 = np.where(l2_0 > 0, l2_0, max(l2_0.max(), 1.0))
    # Norms <= limit pass in one comparison; NaN and +inf fail it (the cap
    # keeps +inf failing where the limit overflows), and only then is a row blown.
    limit = np.minimum(_BLOWUP_FACTOR * ref_l2, np.finfo(np.float64).max)
    samples = np.empty((len(times),) + state.shape, state.dtype)
    samples[0] = state
    taken = 1
    drift_max = 0.0
    peak_cfl = (0.0, 0.0)

    n_prev = None
    for step in range(cfg.n_steps):
        t = step * dt
        pp, nu_lam, damp, denom = before if step < switch_step else after
        n_curr, speed = system.explicit_rhs(BandStack(grid, state), pp, t)
        peak_cfl = _cfl_guard(cfl_per_speed * speed, t, peak_cfl)

        # Whole-stack updates, in place on one fresh buffer to bound peak
        # memory.  Each keeps the per-field operation order up to swapped
        # operands of + and *, which is exact, so results are bit-identical.
        if n_prev is None:
            # Heun bootstrap: one explicit second-order step.
            f0 = n_curr - nu_lam * state
            mid = state + dt * f0
            new, _ = system.explicit_rhs(BandStack(grid, mid), pp, t + dt)
            new -= nu_lam * mid
            new += f0
            new *= 0.5 * dt
            new += state
        else:
            new = 1.5 * n_curr
            new -= 0.5 * n_prev
            new *= dt
            new += damp * state
            new /= denom
        n_prev = n_curr

        state = project_coeffs(new, *projector)
        drift_max = max(drift_max, float(np.abs(state - new).max()))

        t_next = (step + 1) * dt
        step_norms = norms(BandStack(grid, state))
        l2 = step_norms[:, 0]
        if not (l2 <= limit).all() and (blown := ~np.isfinite(l2) | (l2 > limit)).any():
            i = int(np.argmax(blown))
            history = {"times": times[:taken], "l2": dict(zip(names, series[:, :taken, 0]))}
            raise BlowupError(names[i], t_next, float(l2[i]), history)

        if (step + 1) % cfg.sample_every == 0:
            series[:, taken] = step_norms
            samples[taken] = state
            taken += 1

    final = BandStack(grid, state[system.wiring.advecting])
    speeds = [f.max_speed() for f in final.fields()]
    peak_cfl = _cfl_guard(cfl_per_speed * max(speeds, default=0.0), t_next, peak_cfl)
    samples.setflags(write=False)
    return Trajectory(
        system=system,
        params=p,
        config=cfg,
        times=times,
        snapshots={name: BandStack(grid, samples[:, i]) for i, name in enumerate(names)},
        series=dict(zip(names, series)),
        nu2_switch=nu2_switch,
        max_projection_drift=drift_max,
        peak_cfl=peak_cfl,
    )


@dataclass(frozen=True)
class ConvergenceResult:
    """Step-refinement errors and the fitted observed order."""

    dts: tuple[float, ...]
    errors: tuple[float, ...]
    order: float


def step_convergence_order(
    system: SystemSpec,
    init: Mapping[str, SpectralField],
    p: PhysicsParams,
    cfg: SolverConfig,
    exact: Callable[[float], SpectralField] | None = None,
    refinements: tuple[int, ...] = (1, 2, 4),
    reference_refinement: int = 8,
    field: str = "u",
    norm_kind: str = "l2",
) -> ConvergenceResult:
    """Measure the time-stepping order on a refinement ladder.

    Runs the system at dt / r for each refinement r and compares the final
    state of `field` against a closed-form solution (`exact`, a callable of
    time) or, when none is given, against a run refined by
    reference_refinement, which must refine at least twice beyond the ladder.
    Returns the least-squares slope of log error against log dt.
    """
    if len(refinements) < 2 or list(refinements) != sorted(set(refinements)):
        raise ValueError(f"refinements must be distinct and increasing, got {refinements}")
    if exact is None and reference_refinement < 2 * max(refinements):
        raise ValueError(
            f"degenerate refinement: reference {reference_refinement} must be at least "
            f"twice the finest ladder refinement {max(refinements)}"
        )

    def run(r: int) -> SpectralField:
        sub = replace(cfg, dt=cfg.dt / r, sample_every=cfg.n_steps * r)
        return integrate(system, init, p, sub).final(field)

    reference = exact(cfg.t_end) if exact is not None else run(reference_refinement)
    dts = []
    errors = []
    for r in refinements:
        err = norm(run(r) - reference, norm_kind)
        if err <= 0.0:
            raise ValueError(f"refinement {r} hit the rounding floor, cannot fit an order")
        dts.append(cfg.dt / r)
        errors.append(err)
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    return ConvergenceResult(dts=tuple(dts), errors=tuple(errors), order=float(slope))
