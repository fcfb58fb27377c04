"""Convergence, synchronization, and robustness experiments.

Each runner integrates one or more coupled stacks and condenses the outcome
into an ExperimentReport: named boolean verdicts, a per-sweep-point table,
scalar diagnostics, and the a-priori bound checks of every trajectory the
experiment accepted.  The quotient sweeps certify that the algebraic
difference quotient of two flows converges, first order in the viscosity
increment, to the integrated sensitivity field, and that the directly
evolved quotient agrees with the algebraic one to integrator accuracy
(two-path consistency).  Trajectory-in-time norms are trapezoid quadratures
over the sampled diagnostics; each sweep reports a cadence deviation so the
quadrature error can be seen to be negligible next to the measured errors.

The Taylor-Green vortex supplies closed forms used as oracles throughout:
the flow decays as exp(-8 pi^2 nu t), its viscosity sensitivity is
-8 pi^2 t times the flow, and the two-viscosity difference quotient is the
corresponding exponential quotient.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import BoundCheck, check_apriori
from .dynamics import (
    PhysicsParams,
    SystemKind,
    SystemSpec,
    dq_field,
    forcing_at,
    with_viscosity2,
)
from .interpolants import admissibility
from .spectral import (
    LAMBDA_1,
    GridSpec,
    SpectralField,
    norm,
    random_field,
    taylor_green,
)
from .timestepper import (
    AdmissibilityError,
    BlowupError,
    SolverConfig,
    Trajectory,
    integrate,
)

# Trajectory-in-time norms: L2-in-time of the L2 norm, L2-in-time of the H1
# norm, and sup-in-time of the L2 norm.
TRAJECTORY_NORMS = ("l2_h", "l2_v", "linf_h")

_NORM_KIND = {"l2_h": "l2", "l2_v": "h1", "linf_h": "l2"}

_DECAY_RATE = 8.0 * np.pi**2


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
    if norm_key not in TRAJECTORY_NORMS:
        raise ValueError(f"unknown trajectory norm {norm_key!r}")
    if idx is not None:
        times = times[idx]
        vals = vals[idx]
    if norm_key == "linf_h":
        return float(vals.max())
    return float(np.sqrt(np.trapezoid(vals**2, x=times)))


def trajectory_distance(
    times: np.ndarray,
    fields_a,
    fields_b,
    norm_key: str = "l2_v",
) -> float:
    """Trajectory-norm distance between two sampled field sequences."""
    if norm_key not in TRAJECTORY_NORMS:
        raise ValueError(f"unknown trajectory norm {norm_key!r}")
    kind = _NORM_KIND[norm_key]
    vals = np.array([norm(a - b, kind) for a, b in zip(fields_a, fields_b)])
    return _reduce_series(times, vals, norm_key)


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


def _config_digest(
    name: str,
    p: PhysicsParams,
    cfg: SolverConfig,
    fields: dict[str, SpectralField],
    **extra,
) -> str:
    """Content hash of an experiment's inputs; timings never enter it.

    Hashes the coefficient bytes of every initial field and of the forcing
    (a callable is evaluated at t = 0), the interpolant, the viscosities, the
    gain, the solver config and the runner-specific extras.
    """
    grid = next(iter(fields.values())).grid
    payload = {
        "name": name,
        "grid": grid.n,
        "nu1": p.nu1,
        "nu2": p.nu2,
        "mu": p.mu,
        "interp": repr(p.interp),
        "solver": dataclasses.asdict(cfg),
        **extra,
    }
    h = hashlib.sha256(json.dumps(_jsonify(payload), sort_keys=True).encode())
    for key in sorted(fields):
        h.update(key.encode())
        h.update(fields[key].coeffs.tobytes())
    h.update(forcing_at(p, grid, 0.0).coeffs.tobytes())
    return h.hexdigest()[:16]


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


def _integrate_noted(system, init, p, cfg, notes: list, **kwargs) -> Trajectory:
    """Integrate while recording rather than printing runtime warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = integrate(system, init, p, cfg, **kwargs)
    notes.extend(f"{w.category.__name__}: {w.message}" for w in caught)
    return traj


def _half_cadence_indices(n: int) -> np.ndarray:
    idx = list(range(0, n, 2))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return np.asarray(idx)


def _run_quotient_sweep(
    name: str,
    spec: DQSweepSpec,
    p: PhysicsParams,
    cfg: SolverConfig,
    assimilated: bool,
    v0: SpectralField | None,
    ratio_window: tuple[float, float] | None,
) -> ExperimentReport:
    start = time.perf_counter()
    if not math.isclose(p.nu1, spec.nu1, rel_tol=1e-12):
        raise ValueError(
            f"sweep nu1 = {spec.nu1} disagrees with params nu1 = {p.nu1}"
        )
    grid = spec.initial.grid
    notes: list[str] = []
    data: dict = {
        "norm": spec.norm,
        "nu1": spec.nu1,
        "deltas": list(spec.deltas),
        "warnings": notes,
    }

    if assimilated:
        ref_system = SystemSpec(SystemKind.DA_SENS)
        sweep_system = SystemSpec(SystemKind.DA_DQ_DIRECT)
        sens_name, quot_pair, evolved_name = "vt", ("v1", "v2"), "dp"
        if v0 is None:
            v0 = SpectralField.zero(grid)
        # Quotient convergence under nudging is only guaranteed with the
        # strict gain condition at the smallest viscosity in the sweep;
        # nu2 = nu1 + delta > nu1 here, so nu1 is the binding case.
        strict_ok = admissibility(spec.nu1, p.mu, p.interp, strict=True)
        data["strict_admissible"] = strict_ok
        if p.mu > 0 and not strict_ok:
            raise AdmissibilityError(
                f"strict admissibility fails for nu = {spec.nu1}, mu = {p.mu}: "
                "the sweep's convergence guarantee does not apply"
            )
        ref_init = {"u": spec.initial, "v": v0}
        sweep_init = {"u1": spec.initial, "u2": spec.initial, "v1": v0, "v2": v0}
    else:
        ref_system = SystemSpec(SystemKind.NSE_SENS)
        sweep_system = SystemSpec(SystemKind.DQ_DIRECT)
        sens_name, quot_pair, evolved_name = "ut", ("u1", "u2"), "d"
        ref_init = {"u": spec.initial}
        sweep_init = {"u1": spec.initial, "u2": spec.initial}

    ref = _integrate_noted(ref_system, ref_init, p, cfg, notes)
    checks = list(check_apriori(ref, label="ref_"))
    times = ref.times
    kind = _NORM_KIND[spec.norm]
    half_idx = _half_cadence_indices(len(times))

    errors: list[float] = []
    gaps: list[float] = []
    cadence_devs: list[float] = []
    finest_evolved: tuple[SpectralField, ...] | None = None

    for j, delta in enumerate(spec.deltas, start=1):
        nu2 = spec.nu1 + delta
        p_n = with_viscosity2(p, nu2)
        traj = _integrate_noted(sweep_system, sweep_init, p_n, cfg, notes)
        checks.extend(check_apriori(traj, label=f"n{j}_"))
        err_vals = np.empty(len(times))
        gap_vals = np.empty(len(times))
        for i in range(len(times)):
            alg = dq_field(
                traj.snapshot(quot_pair[0], i),
                traj.snapshot(quot_pair[1], i),
                spec.nu1,
                nu2,
            )
            err_vals[i] = norm(alg - ref.snapshot(sens_name, i), kind)
            gap_vals[i] = norm(traj.snapshot(evolved_name, i) - alg, kind)
        e_full = _reduce_series(times, err_vals, spec.norm)
        e_half = _reduce_series(times, err_vals, spec.norm, half_idx)
        errors.append(e_full)
        gaps.append(_reduce_series(times, gap_vals, spec.norm))
        cadence_devs.append(abs(e_half - e_full) / max(e_full, 1e-300))
        if j == len(spec.deltas):
            finest_evolved = traj.snapshots[evolved_name]

    # Integrator tolerance: trajectory-norm distance of the evolved quotient
    # between the working step and a halved step at the finest delta.
    cfg_half = SolverConfig(
        dt=0.5 * cfg.dt,
        t_end=cfg.t_end,
        sample_every=2 * cfg.sample_every,
        scheme=cfg.scheme,
    )
    p_fine = with_viscosity2(p, spec.nu1 + spec.deltas[-1])
    half_run = _integrate_noted(sweep_system, sweep_init, p_fine, cfg_half, notes)
    integrator_tol = trajectory_distance(
        times, finest_evolved, half_run.snapshots[evolved_name], spec.norm
    )

    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    table = []
    for j, delta in enumerate(spec.deltas):
        table.append(
            {
                "delta": delta,
                "nu2": spec.nu1 + delta,
                "error": errors[j],
                "ratio": ratios[j - 1] if j >= 1 else None,
                "two_path_gap": gaps[j],
                "cadence_dev": cadence_devs[j],
            }
        )

    verdicts: dict[str, bool] = {}
    if len(spec.deltas) >= 2:
        verdicts["sufficient_for_rate"] = True
        verdicts["errors_strictly_decreasing"] = all(
            b < a for a, b in zip(errors, errors[1:])
        )
        if ratio_window is not None:
            lo, hi = ratio_window
            verdicts["ratio_in_window"] = all(lo <= r <= hi for r in ratios)
    else:
        verdicts["sufficient_for_rate"] = False
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
    initial = {"initial": spec.initial}
    if assimilated:
        initial["v0"] = v0
    digest = _config_digest(
        name, p, cfg, initial,
        deltas=spec.deltas, norm=spec.norm, ratio_window=ratio_window,
    )
    return ExperimentReport(
        name=name,
        verdicts=verdicts,
        table=tuple(table),
        data=data,
        checks=tuple(checks),
        config_digest=digest,
        runtime_seconds=time.perf_counter() - start,
        artifacts={"reference": ref},
    )


def run_dq_convergence(
    spec: DQSweepSpec,
    p: PhysicsParams,
    cfg: SolverConfig,
    ratio_window: tuple[float, float] | None = None,
) -> ExperimentReport:
    """Sweep the difference quotient of two flows against the sensitivity.

    For each delta the three-field quotient stack is integrated once; the
    algebraic quotient of its two flow copies is compared with a separately
    integrated sensitivity trajectory (the error e_n) and with the directly
    evolved quotient field (the two-path gap).  Errors must decrease strictly
    and, when a ratio window is given, consecutive error ratios must track
    the first-order prediction delta_{n+1}/delta_n.
    """
    return _run_quotient_sweep(
        "dq_convergence", spec, p, cfg, assimilated=False, v0=None,
        ratio_window=ratio_window,
    )


def run_da_dq_convergence(
    spec: DQSweepSpec,
    p: PhysicsParams,
    cfg: SolverConfig,
    v0: SpectralField | None = None,
    ratio_window: tuple[float, float] | None = None,
) -> ExperimentReport:
    """The quotient sweep for assimilated copies of the two flows.

    Each sweep point integrates the six-field stack in which v1 and v2 are
    nudged toward their own-viscosity references u1 and u2, the evolved
    quotient of the assimilated pair is nudged toward the evolved flow
    quotient, and the reference is the assimilated sensitivity stack.  The
    strict gain condition is verified before any integration when mu > 0.
    """
    return _run_quotient_sweep(
        "da_dq_convergence", spec, p, cfg, assimilated=True, v0=v0,
        ratio_window=ratio_window,
    )


def run_da_sync(
    p: PhysicsParams,
    cfg: SolverConfig,
    u0: SpectralField,
    v0: SpectralField,
    decay_threshold: float = 1e-3,
    with_control: bool = False,
    control_floor: float = 0.1,
) -> ExperimentReport:
    """Synchronization of a nudged copy toward the reference flow.

    Integrates the coupled pair, reports the decay factor |u - v|(T) over
    |u - v|(0) and the least-squares slope of log|u - v|.  The gain gate is
    demoted to a recorded warning: large gains outside the proven admissible
    range are exactly what this experiment probes.  With mu = 0 the run is a
    control and carries no decay verdict.
    """
    start = time.perf_counter()
    notes: list[str] = []
    system = SystemSpec(SystemKind.DA)
    init = {"u": u0, "v": v0}
    traj = _integrate_noted(
        system, init, p, cfg, notes, enforce_admissibility=False
    )
    diff = np.array(
        [
            norm(traj.snapshot("u", i) - traj.snapshot("v", i))
            for i in range(traj.n_samples)
        ]
    )
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
        "warnings": notes,
    }
    artifacts: dict = {"trajectory": traj}

    if with_control and p.mu > 0:
        p_control = PhysicsParams(
            nu1=p.nu1, nu2=p.nu2, mu=0.0, forcing=p.forcing, interp=None
        )
        control = _integrate_noted(system, init, p_control, cfg, notes)
        cdiff = np.array(
            [
                norm(control.snapshot("u", i) - control.snapshot("v", i))
                for i in range(control.n_samples)
            ]
        )
        control_factor = float(cdiff[-1] / cdiff[0]) if cdiff[0] > 0 else 0.0
        data["control_decay_factor"] = control_factor
        verdicts["control_no_comparable_decay"] = control_factor > control_floor
        checks.extend(check_apriori(control, label="control_"))
        verdicts["apriori_bounds"] = all(c.passed for c in checks)
        artifacts["control"] = control

    digest = _config_digest(
        "da_sync", p, cfg, {"u0": u0, "v0": v0},
        decay_threshold=decay_threshold,
        with_control=with_control,
        control_floor=control_floor,
    )
    return ExperimentReport(
        name="da_sync",
        verdicts=verdicts,
        table=(),
        data=data,
        checks=tuple(checks),
        config_digest=digest,
        runtime_seconds=time.perf_counter() - start,
        artifacts=artifacts,
    )


def run_reynolds_switch(
    p: PhysicsParams,
    cfg: SolverConfig,
    t_switch: float,
    nu_new: float,
    u0: SpectralField,
    v0: SpectralField | None = None,
) -> ExperimentReport:
    """Mid-run viscosity change of the assimilated system.

    The assimilated copy's viscosity jumps to nu_new at t_switch while its
    state carries over continuously; the reference flow is untouched.  The
    verdict is that no blow-up guard fired and that the a-priori bounds hold
    piecewise on [0, t_switch] with the original viscosity and on
    [t_switch, T] with the new one.  A blow-up is reported, not raised.
    """
    start = time.perf_counter()
    if nu_new <= 0:
        raise ValueError("nu_new must be positive")
    if not 0 < t_switch < cfg.t_end:
        raise ValueError("t_switch must lie strictly inside (0, t_end)")
    sample_dt = cfg.dt * cfg.sample_every
    if abs(t_switch / sample_dt - round(t_switch / sample_dt)) > 1e-9:
        raise ValueError(
            "t_switch must be a sample time so the bound checks can split there"
        )
    grid = u0.grid
    if v0 is None:
        v0 = SpectralField.zero(grid)
    notes: list[str] = []
    system = SystemSpec(SystemKind.DA)
    digest = _config_digest(
        "reynolds_switch", p, cfg, {"u0": u0, "v0": v0}, nu_new=nu_new, t_switch=t_switch
    )
    try:
        traj = _integrate_noted(
            system,
            {"u": u0, "v": v0},
            p,
            cfg,
            notes,
            nu2_switch=(t_switch, nu_new),
        )
    except BlowupError as exc:
        return ExperimentReport(
            name="reynolds_switch",
            verdicts={"no_blowup": False},
            table=(),
            data={
                "blowup_field": exc.field,
                "blowup_time": exc.time,
                "blowup_value": exc.value,
                "norm_history": exc.history,
                "warnings": notes,
            },
            checks=(),
            config_digest=digest,
            runtime_seconds=time.perf_counter() - start,
        )

    i_sw = traj.index_at_time(t_switch)
    pre = traj.window(0, i_sw)
    post = traj.window(i_sw, traj.n_samples - 1)
    p_after = with_viscosity2(p, nu_new)
    checks = list(check_apriori(pre, label="pre_switch_"))
    checks.extend(check_apriori(post, p=p_after, label="post_switch_"))

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
        "warnings": notes,
    }
    return ExperimentReport(
        name="reynolds_switch",
        verdicts=verdicts,
        table=table,
        data=data,
        checks=tuple(checks),
        config_digest=digest,
        runtime_seconds=time.perf_counter() - start,
        artifacts={"trajectory": traj},
    )


def run_taylor_green_suite(
    cfg: SolverConfig | None = None,
    grid: GridSpec | None = None,
    nu: float = 0.01,
    deltas: tuple[float, ...] | None = None,
    flow_tol: float = 1e-5,
    sensitivity_tol: float = 1e-4,
    ratio_window: tuple[float, float] = (0.4, 0.6),
) -> ExperimentReport:
    """Closed-form vortex oracles for the flow, sensitivity, and quotient.

    Certifies the full assembly end to end: the integrated flow against the
    exponential decay, the integrated sensitivity against its closed form at
    the final time, and the final-time difference quotient against the
    sensitivity with first-order shrinkage in the viscosity increment.
    """
    start = time.perf_counter()
    grid = GridSpec(64) if grid is None else grid
    cfg = SolverConfig(dt=1e-3, t_end=1.0, sample_every=50) if cfg is None else cfg
    deltas = (nu / 4.0, nu / 8.0) if deltas is None else tuple(deltas)
    p = PhysicsParams(nu1=nu, nu2=nu)
    u0 = taylor_green(grid)
    notes: list[str] = []
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    flow = _integrate_noted(SystemSpec(SystemKind.NSE), {"u": u0}, p, cfg, notes)
    timings["flow_seconds"] = time.perf_counter() - t0
    flow_errs = np.array(
        [
            norm(flow.snapshot("u", i) - taylor_green_flow(grid, nu, t))
            / norm(taylor_green_flow(grid, nu, t))
            for i, t in enumerate(flow.times)
        ]
    )
    checks = list(check_apriori(flow))

    t0 = time.perf_counter()
    sens = _integrate_noted(
        SystemSpec(SystemKind.NSE_SENS), {"u": u0}, p, cfg, notes
    )
    timings["sensitivity_seconds"] = time.perf_counter() - t0
    t_end = float(sens.times[-1])
    sens_exact = taylor_green_sensitivity(grid, nu, t_end)
    sens_err = norm(sens.final("ut") - sens_exact) / norm(sens_exact)

    t0 = time.perf_counter()
    dq_errs = []
    for delta in deltas:
        nu2 = nu + delta
        traj = _integrate_noted(
            SystemSpec(SystemKind.DQ_DIRECT),
            {"u1": u0, "u2": u0},
            with_viscosity2(p, nu2),
            cfg,
            notes,
        )
        alg = dq_field(traj.final("u1"), traj.final("u2"), nu, nu2)
        dq_errs.append(float(norm(alg - sens_exact)))
    timings["dq_seconds"] = time.perf_counter() - t0
    dq_ratios = [dq_errs[i + 1] / dq_errs[i] for i in range(len(dq_errs) - 1)]

    verdicts = {
        "flow_oracle": bool(flow_errs.max() < flow_tol),
        "sensitivity_oracle": bool(sens_err < sensitivity_tol),
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
        "timings": timings,
        "warnings": notes,
    }
    digest = _config_digest(
        "taylor_green_suite", p, cfg, {"u0": u0},
        deltas=deltas,
        flow_tol=flow_tol,
        sensitivity_tol=sensitivity_tol,
        ratio_window=ratio_window,
    )
    return ExperimentReport(
        name="taylor_green_suite",
        verdicts=verdicts,
        table=table,
        data=data,
        checks=tuple(checks),
        config_digest=digest,
        runtime_seconds=time.perf_counter() - start,
        artifacts={"flow": flow, "sensitivity": sens},
    )
