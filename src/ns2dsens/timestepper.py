"""Semi-implicit time integration of the coupled spectral systems.

One scheme: Crank-Nicolson on each field's own viscous term, which is diagonal
per mode, combined with second-order Adams-Bashforth extrapolation of
everything else (advection, forcing, nudging, coupling terms).  The first step
is bootstrapped with a single explicit Heun step, preserving second order
overall.  The extrapolated part carries no viscosity factor, so the history
stays valid across a mid-run viscosity switch; switching is a pure change of
the implicit denominators from the switch step on, and a switch to the same
value reproduces the unswitched run bit for bit.

Guards: the nudging stability condition dt * mu <= 1 and the admissibility
condition mu * c0 * h**2 <= nu are checked before marching (the latter can be
demoted to a warning for deliberately inadmissible studies); an advective CFL
estimate dt * n * max|u| <= 0.5 is checked at sample times with a warning on
violation; blow-up (non-finite norms, or growth beyond 1e6 times the initial
scale) raises BlowupError carrying the norm history.  All coupled fields
advance simultaneously from the same time level, every step re-applies the
divergence-free projection to suppress rounding drift, and identical inputs
produce bit-identical trajectories.  Each right-hand-side round (the step, and
the Heun midpoint) runs inside `shared_transforms`, so every field goes to the
product grid once per round however many advective products use it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .dynamics import PhysicsParams, SystemSpec, with_viscosity2
from .interpolants import admissibility
from .spectral import GridSpec, NormTriple, SpectralField, leray_project, norms, shared_transforms

SCHEMES = ("imex_cnab2",)

_BLOWUP_FACTOR = 1e6
_CFL_LIMIT = 0.5


class CFLWarning(UserWarning):
    """Advective CFL estimate exceeded at a sample time."""


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


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon, sampling cadence and scheme selector.

    t_end must be an integer number of steps and sample_every must divide the
    step count so the final time is always a sample.
    """

    dt: float
    t_end: float
    sample_every: int = 1
    scheme: str = "imex_cnab2"

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
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, available: {SCHEMES}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    """Sampled states and norm series of one integration.

    times starts at 0 and ends at t_end.  series maps each field name to an
    (n_samples, 3) array with columns (L2, H1, H2); snapshots holds the full
    sampled fields.  max_projection_drift is the largest per-step change the
    divergence-free re-projection made, a rounding-level health figure.
    """

    system: SystemSpec
    params: PhysicsParams
    config: SolverConfig
    times: np.ndarray
    snapshots: dict[str, tuple[SpectralField, ...]]
    series: dict[str, np.ndarray]
    nu2_switch: tuple[float, float] | None = None
    max_projection_drift: float = 0.0

    @property
    def n_samples(self) -> int:
        return len(self.times)

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
        )


def _prepare_state(
    system: SystemSpec, init: Mapping[str, SpectralField], grid: GridSpec
) -> dict[str, SpectralField]:
    unknown = set(init) - set(system.fields)
    if unknown:
        raise ValueError(
            f"initial data for unknown fields {sorted(unknown)}; "
            f"system {system.kind.value} evolves {list(system.fields)}"
        )
    state = {}
    for name in system.fields:
        if name in init:
            f = init[name]
            if f.grid.n != grid.n:
                raise ValueError(f"field {name!r} is on grid {f.grid.n}, expected {grid.n}")
            state[name] = leray_project(f.band_limited())
        elif name in system.zero_default_fields:
            state[name] = SpectralField.zero(grid)
        else:
            raise ValueError(f"missing initial data for field {name!r}")
    return state


def _check_gates(
    system: SystemSpec,
    p: PhysicsParams,
    cfg: SolverConfig,
    nu_extra: float | None,
    enforce_admissibility: bool,
) -> None:
    if not system.uses_nudging(p):
        return
    if cfg.dt * p.mu > 1.0 + 1e-12:
        raise ValueError(
            f"nudging stability requires dt * mu <= 1, got {cfg.dt * p.mu:.6g}"
        )
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
    sensitivities) may be omitted.  nu2_switch = (t_switch, nu_new) replaces
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

    switch_step = None
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
        nu_extra=p_after.nu2 if switch_step is not None else None,
        enforce_admissibility=enforce_admissibility,
    )

    dt = cfg.dt
    lam = grid.eigenvalues
    names = system.fields
    advecting = system.advecting_fields

    ref_l2 = {}
    init_norms = {name: norms(state[name]) for name in names}
    fallback = max([t.l2 for t in init_norms.values()] + [1.0])
    for name in names:
        ref_l2[name] = init_norms[name].l2 if init_norms[name].l2 > 0 else fallback

    times = [0.0]
    snaps: dict[str, list[SpectralField]] = {n: [state[n]] for n in names}
    rows: dict[str, list[NormTriple]] = {n: [init_norms[n]] for n in names}
    drift_max = 0.0

    def params_at(step: int) -> PhysicsParams:
        if switch_step is not None and step >= switch_step:
            return p_after
        return p

    def check_cfl(step_end: int) -> None:
        if system.linear_only or not advecting:
            return
        speed = max(state[n].max_speed() for n in advecting)
        cfl = dt * grid.n * speed
        if cfl > _CFL_LIMIT:
            warnings.warn(
                f"advective CFL estimate {cfl:.3g} exceeds {_CFL_LIMIT} "
                f"at t = {step_end * dt:.6g}",
                CFLWarning,
            )

    n_prev: dict[str, SpectralField] | None = None
    for step in range(cfg.n_steps):
        t = step * dt
        pp = params_at(step)
        with shared_transforms():
            n_curr = {name: system.explicit_rhs(name, state, pp, t) for name in names}

        if n_prev is None:
            # Heun bootstrap: one explicit second-order step.
            f0 = {
                name: n_curr[name].coeffs - system.viscosity(name, pp) * lam * state[name].coeffs
                for name in names
            }
            mid = {
                name: SpectralField(grid, state[name].coeffs + dt * f0[name])
                for name in names
            }
            with shared_transforms():
                n_mid = {name: system.explicit_rhs(name, mid, pp, t + dt) for name in names}
            new_coeffs = {}
            for name in names:
                f1 = n_mid[name].coeffs - system.viscosity(name, pp) * lam * mid[name].coeffs
                new_coeffs[name] = state[name].coeffs + 0.5 * dt * (f0[name] + f1)
        else:
            new_coeffs = {}
            for name in names:
                a = 0.5 * dt * system.viscosity(name, pp) * lam
                new_coeffs[name] = (
                    (1.0 - a) * state[name].coeffs
                    + dt * (1.5 * n_curr[name].coeffs - 0.5 * n_prev[name].coeffs)
                ) / (1.0 + a)

        for name in names:
            raw = SpectralField(grid, new_coeffs[name])
            projected = leray_project(raw)
            drift = float(np.abs(projected.coeffs - raw.coeffs).max())
            drift_max = max(drift_max, drift)
            state[name] = projected
        n_prev = n_curr

        t_next = (step + 1) * dt
        step_norms = {name: norms(state[name]) for name in names}
        for name in names:
            l2 = step_norms[name].l2
            if not np.isfinite(l2) or l2 > _BLOWUP_FACTOR * ref_l2[name]:
                history = {
                    "times": np.asarray(times),
                    "l2": {n: np.asarray([r.l2 for r in rows[n]]) for n in names},
                }
                raise BlowupError(name, t_next, l2, history)

        if (step + 1) % cfg.sample_every == 0:
            check_cfl(step + 1)
            times.append(t_next)
            for name in names:
                snaps[name].append(state[name])
                rows[name].append(step_norms[name])

    return Trajectory(
        system=system,
        params=p,
        config=cfg,
        times=np.asarray(times),
        snapshots={n: tuple(v) for n, v in snaps.items()},
        series={
            n: np.asarray([[r.l2, r.h1, r.h2] for r in rows[n]]) for n in names
        },
        nu2_switch=nu2_switch,
        max_projection_drift=drift_max,
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
    if len(refinements) < 2 or sorted(set(refinements)) != sorted(refinements):
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
    from .spectral import norm as _norm

    for r in refinements:
        err = _norm(run(r) - reference, norm_kind)
        if err <= 0.0:
            raise ValueError(f"refinement {r} hit the rounding floor, cannot fit an order")
        dts.append(cfg.dt / r)
        errors.append(err)
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    return ConvergenceResult(dts=tuple(dts), errors=tuple(errors), order=float(slope))
