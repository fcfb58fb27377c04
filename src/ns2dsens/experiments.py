"""Convergence, synchronization, and robustness experiments.

Each runner integrates one or more coupled stacks and condenses the outcome
into an ExperimentReport: named boolean verdicts, a per-sweep-point table,
scalar diagnostics, and the a-priori bound checks of every trajectory the
experiment accepted, each flow and assimilated row once.  The checks read
the sups and integrals the stepper keeps over every step
(`Trajectory.reductions`), so, unlike the trajectory-in-time norms below,
they do not depend on the sampling cadence; the viscosity-switch experiment
checks each side of the switch as a window that carries its own params.
The quotient sweeps certify that the algebraic difference quotient of two
flows converges, first order in the viscosity increment, to the
sensitivity field, and that the directly evolved quotient agrees with the
algebraic one to integrator accuracy (two-path consistency), from one
quotient stack batched over nu2 = nu1 (the sensitivity, on the nu1 flows)
and each nu1 + delta, and one half-step run.  Trajectory-in-time norms are trapezoid quadratures over
the sampled diagnostics; each sweep reports a cadence deviation so the
quadrature error can be seen to be negligible next to the measured errors.
Every number a runner derives from a run's samples is a norm of their band
halves: the per-sample series (each copy's error and two-path gap, the
integrator tolerance's gap to the half-step run, the synchronization gap
|u - v|, the Taylor-Green flow oracle) come from `diagnostics.sample_norms`,
which forms each expression a block of samples at a time, and the
Taylor-Green values at the final time from `norms` of the final band
halves.  No sample is expanded to a `SpectralField`.

Every report takes one path, `reported`: a runner returns the report's
parts, and the decorator times the whole call, records every warning raised
in it as a `data["warnings"]` string, and digests every argument the runner
was called with, fields by their coefficient bytes and a callable forcing at
every half step of the run.

The Taylor-Green vortex supplies closed forms used as oracles throughout:
the flow decays as exp(-8 pi^2 nu t), its viscosity sensitivity is
-8 pi^2 t times the flow, and the two-viscosity difference quotient is the
corresponding exponential quotient.  The suite reads them as band halves.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import BoundCheck, check_apriori, sample_norms
from .dynamics import (
    PhysicsParams,
    SystemKind,
    SystemSpec,
    with_viscosity2,
    without_nudging,
)
from .interpolants import BoxAverage, SpectralProjection, admissibility
from .spectral import (
    LAMBDA_1,
    BandStack,
    GridSpec,
    SpectralField,
    band_half,
    norms,
    random_field,
    taylor_green,
)
from .timestepper import (
    AdmissibilityError,
    BlowupError,
    SolverConfig,
    integrate,
)

# Trajectory-in-time norms: L2-in-time of the L2 norm, L2-in-time of the H1
# norm, and sup-in-time of the L2 norm.
TRAJECTORY_NORMS = ("l2_h", "l2_v", "linf_h")

_NORM_KIND = {"l2_h": "l2", "l2_v": "h1", "linf_h": "l2"}

_DECAY_RATE = 8.0 * np.pi**2
# The Taylor-Green suite's oracle tolerances: the flow's relative error at
# every sample, the sensitivity's at the final time.
TAYLOR_GREEN_FLOW_TOL = 1e-5
TAYLOR_GREEN_SENSITIVITY_TOL = 1e-4


def taylor_green_flow(grid: GridSpec, nu: float, t: float) -> SpectralField:
    """Closed-form decaying vortex at time t."""
    return math.exp(-_DECAY_RATE * nu * t) * taylor_green(grid)


def taylor_green_sensitivity(grid: GridSpec, nu: float, t: float) -> SpectralField:
    """Closed-form viscosity derivative of the decaying vortex."""
    return (-_DECAY_RATE * t) * taylor_green_flow(grid, nu, t)


def taylor_green_quotient(
    grid: GridSpec, nu1: float, nu2: float, t: float
) -> SpectralField:
    """Closed-form difference quotient of two vortex decays."""
    if nu1 == nu2:
        raise ValueError("viscosities must be distinct")
    scale = (
        math.exp(-_DECAY_RATE * nu1 * t) - math.exp(-_DECAY_RATE * nu2 * t)
    ) / (nu1 - nu2)
    return scale * taylor_green(grid)


def forcing_for_grashof(
    grid: GridSpec,
    nu: float,
    grashof_target: float,
    seed: int = 0,
    kmin: int = 2,
    kmax: int = 6,
) -> SpectralField:
    """Random low-mode solenoidal forcing with the requested Grashof number."""
    if grashof_target <= 0:
        raise ValueError("grashof_target must be positive")
    amplitude = grashof_target * LAMBDA_1 * nu**2
    return random_field(grid, seed=seed, kmin=kmin, kmax=kmax, l2_norm=amplitude)


def _reduce_series(
    times: np.ndarray, vals: np.ndarray, norm_key: str, idx: np.ndarray | None = None
) -> float:
    """The trajectory norm norm_key of a per-sample norm series, over the samples idx."""
    if idx is not None:
        times = times[idx]
        vals = vals[idx]
    if norm_key == "linf_h":
        return float(vals.max())
    return float(np.sqrt(np.trapezoid(vals**2, x=times)))


@dataclass(frozen=True)
class DQSweepSpec:
    """A difference-quotient sweep: nu2 = nu1 + delta for each delta.

    Deltas decrease strictly toward zero and keep nu2 inside
    [nu1/2, 3*nu1/2], the localization under which the quotient systems are
    well posed.  All runs share the initial flow state; quotient and
    sensitivity fields start from zero.
    """

    nu1: float
    deltas: tuple[float, ...]
    initial: SpectralField
    norm: str = "l2_v"

    def __post_init__(self) -> None:
        if self.nu1 <= 0:
            raise ValueError("nu1 must be positive")
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if not self.deltas:
            raise ValueError("sweep needs at least one delta")
        if any(d <= 0 for d in self.deltas):
            raise ValueError("deltas must be positive")
        if any(b >= a for a, b in zip(self.deltas, self.deltas[1:])):
            raise ValueError("deltas must be strictly decreasing")
        limit = 0.5 * self.nu1 * (1.0 + 1e-12)
        if self.deltas[0] > limit:
            raise ValueError(
                "largest delta leaves the localization interval "
                f"[nu1/2, 3*nu1/2]: {self.deltas[0]} > nu1/2 = {0.5 * self.nu1}"
            )
        if self.norm not in TRAJECTORY_NORMS:
            raise ValueError(f"norm must be one of {TRAJECTORY_NORMS}")
        if not isinstance(self.initial, SpectralField):
            raise TypeError("initial must be a SpectralField")

    @property
    def nu2_values(self) -> tuple[float, ...]:
        return tuple(self.nu1 + d for d in self.deltas)

    @classmethod
    def halving(
        cls,
        nu1: float,
        initial: SpectralField,
        levels: int = 5,
        norm: str = "l2_v",
    ) -> "DQSweepSpec":
        """The standard sweep delta_n = nu1 * 2^-n, n = 1..levels."""
        if levels < 1:
            raise ValueError("levels must be at least 1")
        deltas = tuple(nu1 * 0.5**n for n in range(1, levels + 1))
        return cls(nu1=nu1, deltas=deltas, initial=initial, norm=norm)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


@dataclass
class ExperimentReport:
    """Outcome of one experiment: verdicts, tables, diagnostics, checks.

    Verdicts are named boolean acceptance checks; the report passes when all
    verdicts hold and every a-priori bound check passed.  artifacts may hold
    in-memory trajectories for further inspection and is dropped by to_dict.
    """

    name: str
    verdicts: dict[str, bool]
    table: tuple[dict, ...] = ()
    data: dict = field(default_factory=dict)
    checks: tuple[BoundCheck, ...] = ()
    config_digest: str = ""
    runtime_seconds: float = 0.0
    artifacts: dict = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values()) and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "verdicts": dict(self.verdicts),
            "table": _jsonify(list(self.table)),
            "data": _jsonify(self.data),
            "checks": [_jsonify(dataclasses.asdict(c)) for c in self.checks],
            "config_digest": self.config_digest,
            "runtime_seconds": self.runtime_seconds,
        }

    def summary_lines(self) -> list[str]:
        lines = [f"{self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for key, ok in self.verdicts.items():
            lines.append(f"  [{'pass' if ok else 'FAIL'}] {key}")
        failed = [c for c in self.checks if not c.passed]
        if self.checks:
            lines.append(
                f"  a-priori checks: {len(self.checks) - len(failed)}"
                f"/{len(self.checks)} passed"
            )
        for c in failed:
            lines.append(f"  [FAIL] {c.name}: lhs={c.lhs:.6g} rhs={c.rhs:.6g}")
        return lines


# Inputs hashed field by field; any other type is refused rather than hashed
# through str(), which can hold a memory address.
_DATACLASS_INPUTS = (GridSpec, SolverConfig, SpectralProjection, BoxAverage, SystemSpec,
                     DQSweepSpec)


def _encode(obj, h, times: list[float] | None) -> None:
    """Feed obj into hash h by content: fields by their coefficient bytes.

    A callable forcing enters through the band half of its own field at each
    of `times`, unprojected: a run reads the band half of the projected
    band-limited field, and the projection acts mode by mode, so the rest
    cannot change a result.  An unknown type raises TypeError.
    """
    if isinstance(obj, SystemKind):
        h.update(f"{type(obj).__name__}.{obj.name};".encode())
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (np.integer, np.floating)):
        _encode(obj.item(), h, times)
    elif isinstance(obj, SpectralField):
        h.update(f"SpectralField:{obj.grid.n};".encode())
        h.update(obj.coeffs.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"seq:{len(obj)};".encode())
        for item in obj:
            _encode(item, h, times)
    elif isinstance(obj, dict):
        h.update(f"map:{len(obj)};".encode())
        for key in sorted(obj):
            _encode(key, h, times)
            _encode(obj[key], h, times)
    elif isinstance(obj, PhysicsParams):
        _encode((obj.nu1, obj.nu2, obj.mu, obj.interp), h, times)
        if not callable(obj.forcing):
            _encode(obj.forcing, h, times)
        elif times is None:
            raise TypeError("a callable forcing is hashed at a run's times: no SolverConfig given")
        else:
            for t in times:
                f = obj.forcing(t)
                h.update(f"band:{f.grid.n};".encode())
                h.update(band_half(f.coeffs, f.grid.cutoff))
    elif isinstance(obj, _DATACLASS_INPUTS):
        h.update(f"{type(obj).__name__};".encode())
        for f in dataclasses.fields(obj):
            _encode(f.name, h, times)
            _encode(getattr(obj, f.name), h, times)
    else:
        raise TypeError(f"cannot digest an input of type {type(obj).__name__}")


def _digest(runner, arguments: dict) -> str:
    """Content hash of a runner's name and arguments; timings never enter it.

    A callable forcing is evaluated at every t = k dt/2 up to t_end of the
    call's SolverConfig: each time the working run and a half-step run
    evaluate it.
    """
    cfg = next((v for v in arguments.values() if isinstance(v, SolverConfig)), None)
    times = None if cfg is None else [k * (0.5 * cfg.dt) for k in range(2 * cfg.n_steps + 1)]
    h = hashlib.sha256(f"{runner.__qualname__};".encode())
    _encode(arguments, h, times)
    return h.hexdigest()[:16]


def _noted(caught: list[warnings.WarningMessage]) -> list[str]:
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def reported(runner):
    """Make runner's returned parts into its ExperimentReport, the one report path.

    runner returns the report's fields but the digest and runtime: `name`,
    `verdicts` and `data`, and optionally `table`, `checks` and `artifacts`.
    The report adds the runtime of the whole call, every warning raised in it
    as a `data["warnings"]` entry "Category: message" in the order raised,
    and the digest of every argument the call received, defaults included.
    A call that raises has no report: its warnings are issued again, and a
    `BlowupError` carries them and the digest to the caller.
    """
    signature = inspect.signature(runner)

    @functools.wraps(runner)
    def run(*args, **kwargs) -> ExperimentReport:
        start = time.perf_counter()
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        digest = _digest(runner, bound.arguments)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                parts = runner(*bound.args, **bound.kwargs)
        except Exception as exc:
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if isinstance(exc, BlowupError):
                exc.config_digest, exc.warnings = digest, _noted(caught)
            raise
        parts["data"]["warnings"] = _noted(caught)
        return ExperimentReport(
            **parts, config_digest=digest, runtime_seconds=time.perf_counter() - start
        )

    return run


def _check_strict_gain(nu1: float, p: PhysicsParams) -> None:
    """Raise AdmissibilityError unless the assimilated sweep at nu1 is strictly admissible.

    Quotient convergence under nudging is only guaranteed with the strict
    gain condition at the smallest viscosity in the sweep; nu2 = nu1 + delta
    > nu1, so nu1 is the binding case.  mu = 0 always passes.
    """
    if not admissibility(nu1, p.mu, p.interp, strict=True):
        raise AdmissibilityError(
            f"strict admissibility fails for nu = {nu1}, mu = {p.mu}: "
            "the sweep's convergence guarantee does not apply"
        )


def _run_quotient_sweep(
    name: str,
    spec: DQSweepSpec,
    p: PhysicsParams,
    cfg: SolverConfig,
    assimilated: bool,
    v0: SpectralField | None,
    ratio_window: tuple[float, float] | None,
) -> dict:
    if not math.isclose(p.nu1, spec.nu1, rel_tol=1e-12):
        raise ValueError(
            f"sweep nu1 = {spec.nu1} disagrees with params nu1 = {p.nu1}"
        )
    grid = spec.initial.grid
    data: dict = {"norm": spec.norm, "nu1": spec.nu1, "deltas": list(spec.deltas)}

    init = {"u1": spec.initial, "u2": spec.initial}
    if assimilated:
        kind, flow, evolved = SystemKind.DA_DQ_DIRECT, ("v1", "v2"), "dp"
        if v0 is None:
            v0 = SpectralField.zero(grid)
        _check_strict_gain(spec.nu1, p)
        data["strict_admissible"] = True
        init.update(v1=v0, v2=v0)
    else:
        kind, flow, evolved = SystemKind.DQ_DIRECT, ("u1", "u2"), "d"

    # Copy 0 runs at nu2 = nu1 on the nu1 flows, so its quotient row is the sensitivity.
    batch = integrate(SystemSpec(kind, nu2s=("nu1",) + spec.nu2_values), init, p, cfg)
    checks = check_apriori(batch)
    times, snaps = batch.times, batch.snapshots

    def quotient(j: int, b: slice, out: np.ndarray) -> np.ndarray:
        """Copy j's algebraic quotient (u1 - u2_j) / (nu1 - nu2_j) at the samples b, in out."""
        np.subtract(snaps[flow[0]].coeffs[b], snaps[f"{flow[1]}_{j}"].coeffs[b], out=out)
        return np.divide(out, complex(spec.nu1 - spec.nu2_values[j - 1]), out=out)

    # Per copy j, the quotient against the sensitivity dq_0 (the error) and
    # against the evolved quotient dq_j (the two-path gap), a block at a time.
    dq = [snaps[f"{evolved}_{j}"].coeffs for j in range(len(spec.deltas) + 1)]
    js, norm_kind = range(1, len(dq)), _NORM_KIND[spec.norm]
    err_vals = [sample_norms(batch, lambda b, out, j=j: np.subtract(
        quotient(j, b, out), dq[0][b], out=out), norm_kind) for j in js]
    gap_vals = [sample_norms(batch, lambda b, out, j=j: np.subtract(
        dq[j][b], quotient(j, b, out), out=out), norm_kind) for j in js]
    half_idx = np.unique(np.r_[0 : len(times) : 2, len(times) - 1])
    errors = [_reduce_series(times, e, spec.norm) for e in err_vals]
    gaps = [_reduce_series(times, g, spec.norm) for g in gap_vals]
    cadence_devs = [
        abs(_reduce_series(times, e, spec.norm, half_idx) - e_full) / max(e_full, 1e-300)
        for e, e_full in zip(err_vals, errors)
    ]

    # Integrator tolerance: trajectory-norm distance of the evolved quotient
    # between the working step and a halved step at the finest delta.
    cfg_half = dataclasses.replace(cfg, dt=0.5 * cfg.dt, sample_every=2 * cfg.sample_every)
    p_fine = with_viscosity2(p, spec.nu2_values[-1])
    half = integrate(SystemSpec(kind), init, p_fine, cfg_half).snapshots[evolved].coeffs
    integrator_tol = _reduce_series(times, sample_norms(batch, lambda b, out: np.subtract(
        dq[-1][b], half[b], out=out), norm_kind), spec.norm)

    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    table = tuple(
        {"delta": d, "nu2": nu2, "error": e, "ratio": r, "two_path_gap": g, "cadence_dev": c}
        for d, nu2, e, r, g, c in zip(
            spec.deltas, spec.nu2_values, errors, [None] + ratios, gaps, cadence_devs
        )
    )

    verdicts = {"sufficient_for_rate": len(spec.deltas) >= 2}
    if len(spec.deltas) >= 2:
        verdicts["errors_strictly_decreasing"] = all(
            b < a for a, b in zip(errors, errors[1:])
        )
        if ratio_window is not None:
            lo, hi = ratio_window
            verdicts["ratio_in_window"] = all(lo <= r <= hi for r in ratios)
    verdicts["two_path_consistent"] = all(g <= 10.0 * integrator_tol for g in gaps)
    verdicts["quadrature_cadence_ok"] = max(cadence_devs) < 0.05
    verdicts["apriori_bounds"] = all(c.passed for c in checks)

    data.update(
        {
            "errors": errors,
            "ratios": ratios,
            "two_path_gaps": gaps,
            "integrator_tolerance": integrator_tol,
            "max_cadence_dev": max(cadence_devs),
            "mu": p.mu,
            "grid_n": grid.n,
        }
    )
    return dict(name=name, verdicts=verdicts, table=table, data=data, checks=tuple(checks),
                artifacts={"reference": batch})


@reported
def run_dq_convergence(
    spec: DQSweepSpec,
    p: PhysicsParams,
    cfg: SolverConfig,
    ratio_window: tuple[float, float] | None = None,
) -> ExperimentReport:
    """Sweep the difference quotient of two flows against the sensitivity.

    One `DQ_DIRECT` run batched over nu2 = nu1 and each nu1 + delta
    (`artifacts["reference"]`) compares, per delta j, the algebraic quotient
    (u1 - u2_j) / (nu1 - nu2_j) with the sensitivity d_0 (the error e_j) and
    with the evolved quotient d_j (the two-path gap); a half-step run gives
    the integrator tolerance; the checks cover u1 and each u2_j.  Errors must
    decrease strictly and, when a ratio window is given, consecutive error
    ratios must track the first-order prediction delta_{n+1}/delta_n.
    """
    return _run_quotient_sweep(
        "dq_convergence", spec, p, cfg, assimilated=False, v0=None,
        ratio_window=ratio_window,
    )


@reported
def run_da_dq_convergence(
    spec: DQSweepSpec,
    p: PhysicsParams,
    cfg: SolverConfig,
    v0: SpectralField | None = None,
    ratio_window: tuple[float, float] | None = None,
) -> ExperimentReport:
    """The quotient sweep for assimilated copies of the two flows.

    The batched stack is `DA_DQ_DIRECT`'s: v1 and each v2_j are nudged
    toward u1 and u2_j, each evolved quotient dp_j toward d_j, and the
    errors compare (v1 - v2_j) / (nu1 - nu2_j) with the assimilated
    sensitivity dp_0, which reads v1.  The a-priori checks cover u1, v1, u2_j
    and v2_j.  The strict gain condition is verified first when mu > 0.
    """
    return _run_quotient_sweep(
        "da_dq_convergence", spec, p, cfg, assimilated=True, v0=v0,
        ratio_window=ratio_window,
    )


def _sync_control(system, init, p, cfg) -> tuple[np.ndarray, list[BoundCheck]]:
    """The zero-gain control's gap series and checks; its samples die on return.

    The control shares p's forcing object, so its u is the nudged run's u bit for bit.
    """
    control = integrate(system, init, without_nudging(p), cfg)
    u, v = control.snapshots["u"].coeffs, control.snapshots["v"].coeffs
    gap = sample_norms(control, lambda b, out: np.subtract(u[b], v[b], out=out))
    return gap, check_apriori(control, label="control_")


@reported
def run_da_sync(
    p: PhysicsParams,
    cfg: SolverConfig,
    u0: SpectralField,
    v0: SpectralField,
    decay_threshold: float = 1e-3,
    with_control: bool = False,
    control_floor: float = 0.1,
) -> dict:
    """Synchronization of a nudged copy toward the reference flow.

    Integrates the coupled pair, reports the decay factor |u - v|(T) over
    |u - v|(0) and the least-squares slope of log|u - v|.  The gain gate is
    demoted to a recorded warning: large gains outside the proven admissible
    range are exactly what this experiment probes.  With mu = 0 the run is a
    control and carries no decay verdict.

    With `with_control` and mu > 0 the zero-gain control runs first and is
    kept only as its gap series (`data["control_difference_l2"]`), its decay
    factor and its `control_` checks, so one run's samples are alive at a
    time.  The report lists the nudged run's checks before the control's,
    and the warnings in the order they were raised, so the control's come
    first; `artifacts` holds the nudged trajectory only.
    """
    system = SystemSpec(SystemKind.DA)
    init = {"u": u0, "v": v0}
    control = _sync_control(system, init, p, cfg) if with_control and p.mu > 0 else None
    traj = integrate(system, init, p, cfg, enforce_admissibility=False)
    u, v = traj.snapshots["u"].coeffs, traj.snapshots["v"].coeffs
    diff = sample_norms(traj, lambda b, out: np.subtract(u[b], v[b], out=out))
    initial_gap = float(diff[0])
    decay_factor = float(diff[-1] / diff[0]) if initial_gap > 0 else 0.0
    mask = diff > 1e-12
    slope = None
    if int(mask.sum()) >= 2:
        slope = float(np.polyfit(traj.times[mask], np.log(diff[mask]), 1)[0])

    checks = list(check_apriori(traj))
    verdicts: dict[str, bool] = {}
    if p.mu > 0:
        verdicts["synchronization_decay"] = decay_factor <= decay_threshold
        verdicts["decay_slope_negative"] = slope is not None and slope < 0
    verdicts["apriori_bounds"] = all(c.passed for c in checks)

    data = {
        "difference_l2": diff,
        "times": traj.times,
        "initial_gap": initial_gap,
        "decay_factor": decay_factor,
        "log_slope": slope,
        "decay_threshold": decay_threshold,
        "mu": p.mu,
        "admissible": admissibility(p.nu2, p.mu, p.interp),
        "strict_admissible": admissibility(p.nu2, p.mu, p.interp, strict=True),
    }

    if control is not None:
        cdiff, control_checks = control
        control_factor = float(cdiff[-1] / cdiff[0]) if cdiff[0] > 0 else 0.0
        data["control_difference_l2"] = cdiff
        data["control_decay_factor"] = control_factor
        verdicts["control_no_comparable_decay"] = control_factor > control_floor
        checks.extend(control_checks)
        verdicts["apriori_bounds"] = all(c.passed for c in checks)

    return dict(name="da_sync", verdicts=verdicts, data=data, checks=tuple(checks),
                artifacts={"trajectory": traj})


def check_switch(cfg: SolverConfig, t_switch: float, nu_new: float) -> None:
    """Raise ValueError unless `run_reynolds_switch` can switch to nu_new at t_switch."""
    if nu_new <= 0:
        raise ValueError("nu_new must be positive")
    if not 0 < t_switch < cfg.t_end:
        raise ValueError("t_switch must lie strictly inside (0, t_end)")
    sample_dt = cfg.dt * cfg.sample_every
    if abs(t_switch / sample_dt - round(t_switch / sample_dt)) > 1e-9:
        raise ValueError(
            "t_switch must be a sample time so the bound checks can split there"
        )


@reported
def run_reynolds_switch(
    p: PhysicsParams,
    cfg: SolverConfig,
    t_switch: float,
    nu_new: float,
    u0: SpectralField,
    v0: SpectralField | None = None,
) -> dict:
    """Mid-run viscosity change of the assimilated system.

    The assimilated copy's viscosity jumps to nu_new at t_switch while its
    state carries over continuously; the reference flow is untouched.  The
    verdict is that no blow-up guard fired and that the a-priori bounds hold
    piecewise on [0, t_switch] with the original viscosity and on
    [t_switch, T] with the new one, each window read under the params its
    steps ran with.  A blow-up is reported, not raised.
    """
    check_switch(cfg, t_switch, nu_new)
    if v0 is None:
        v0 = SpectralField.zero(u0.grid)
    try:
        traj = integrate(
            SystemSpec(SystemKind.DA), {"u": u0, "v": v0}, p, cfg, nu2_switch=(t_switch, nu_new)
        )
    except BlowupError as exc:
        data = {"blowup_field": exc.field, "blowup_time": exc.time,
                "blowup_value": exc.value, "norm_history": exc.history}
        return dict(name="reynolds_switch", verdicts={"no_blowup": False}, data=data)

    i_sw = traj.index_at_time(t_switch)
    pre, post = traj.window(0, i_sw), traj.window(i_sw, traj.n_samples - 1)
    checks = check_apriori(pre, label="pre_switch_") + check_apriori(post, label="post_switch_")

    v_h1 = traj.norm_series("v", "h1")
    table = (
        {
            "window": "pre",
            "nu2": p.nu2,
            "v_h1_sup": float(v_h1[: i_sw + 1].max()),
            "strict_admissible": admissibility(p.nu2, p.mu, p.interp, strict=True),
        },
        {
            "window": "post",
            "nu2": nu_new,
            "v_h1_sup": float(v_h1[i_sw:].max()),
            "strict_admissible": admissibility(nu_new, p.mu, p.interp, strict=True),
        },
    )
    verdicts = {
        "no_blowup": True,
        "piecewise_apriori": all(c.passed for c in checks),
    }
    data = {
        "t_switch": t_switch,
        "nu2_before": p.nu2,
        "nu2_after": nu_new,
        "switch_index": i_sw,
        "v_l2_final": float(traj.norm_series("v", "l2")[-1]),
        "v_h1_max": float(v_h1.max()),
    }
    return dict(name="reynolds_switch", verdicts=verdicts, table=table, data=data,
                checks=tuple(checks), artifacts={"trajectory": traj})


@reported
def run_taylor_green_suite(
    cfg: SolverConfig | None = None,
    grid: GridSpec | None = None,
    nu: float = 0.01,
    deltas: tuple[float, ...] | None = None,
    ratio_window: tuple[float, float] = (0.4, 0.6),
) -> dict:
    """Closed-form vortex oracles for the flow, sensitivity, and quotient.

    Certifies the full assembly end to end: the integrated flow against the
    exponential decay to `TAYLOR_GREEN_FLOW_TOL` relative at every sample,
    the integrated sensitivity against its closed form at the final time to
    `TAYLOR_GREEN_SENSITIVITY_TOL`, and the final-time difference quotient
    against the sensitivity with first-order shrinkage in the viscosity
    increment.  All come from one `DQ_DIRECT` run batched over nu2 = nu and
    each nu + delta (`artifacts["sweep"]`), whose flows u1 and u2_j the
    a-priori checks cover.  The closed forms enter as band halves, the decay
    factors formed as in `taylor_green_flow` and `taylor_green_sensitivity`.
    """
    grid = GridSpec(64) if grid is None else grid
    cfg = SolverConfig(dt=1e-3, t_end=1.0, sample_every=50) if cfg is None else cfg
    deltas = (nu / 4.0, nu / 8.0) if deltas is None else tuple(deltas)
    p = PhysicsParams(nu1=nu, nu2=nu)
    u0 = taylor_green(grid)

    # Copy 0 (nu2 = nu) is the sensitivity, copy j the second flow of delta j.
    system = SystemSpec(SystemKind.DQ_DIRECT, nu2s=("nu1",) + tuple(nu + d for d in deltas))
    t0 = time.perf_counter()
    batch = integrate(system, {"u1": u0, "u2": u0}, p, cfg)
    flow_seconds = time.perf_counter() - t0
    checks = check_apriori(batch)
    times, u1 = batch.times, batch.snapshots["u1"].coeffs
    tg = band_half(u0.coeffs, grid.cutoff)
    decay = np.array([math.exp(-_DECAY_RATE * nu * t) for t in times], dtype=np.complex128)

    def exact(b: slice, out: np.ndarray) -> np.ndarray:
        return np.multiply(tg, decay[b, None, None, None], out=out)

    flow_errs = sample_norms(batch, lambda b, out: np.subtract(
        u1[b], exact(b, out), out=out)) / sample_norms(batch, exact)
    # At T: the sensitivity's error, its closed form, and each quotient's error.
    sens_exact = tg * decay[-1] * complex(-_DECAY_RATE * float(times[-1]))
    final = {k: v.coeffs[-1] for k, v in batch.snapshots.items()}
    at_T = norms(BandStack(grid, np.stack(
        [final["d_0"] - sens_exact, sens_exact]
        + [(final["u1"] - final[f"u2_{j}"]) / complex(nu - nu2) - sens_exact
           for j, nu2 in enumerate(system.nu2s[1:], start=1)])), l2_only=True)
    sens_err = at_T[0] / at_T[1]
    dq_errs = [float(e) for e in at_T[2:]]
    dq_ratios = [dq_errs[i + 1] / dq_errs[i] for i in range(len(dq_errs) - 1)]

    verdicts = {
        "flow_oracle": bool(flow_errs.max() < TAYLOR_GREEN_FLOW_TOL),
        "sensitivity_oracle": bool(sens_err < TAYLOR_GREEN_SENSITIVITY_TOL),
        "dq_limit_decreasing": all(b < a for a, b in zip(dq_errs, dq_errs[1:])),
        "dq_limit_ratio": all(
            ratio_window[0] <= r <= ratio_window[1] for r in dq_ratios
        ),
        "apriori_bounds": all(c.passed for c in checks),
    }
    table = tuple(
        {"delta": d, "dq_error_at_T": e} for d, e in zip(deltas, dq_errs)
    )
    data = {
        "flow_max_rel_error": float(flow_errs.max()),
        "sensitivity_rel_error_at_T": float(sens_err),
        "dq_errors": dq_errs,
        "dq_ratios": dq_ratios,
        "nu": nu,
        "grid_n": grid.n,
        "timings": {"flow_seconds": flow_seconds},
    }
    return dict(name="taylor_green_suite", verdicts=verdicts, table=table, data=data,
                checks=tuple(checks), artifacts={"sweep": batch})
