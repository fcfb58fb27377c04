"""Strict YAML run configuration.

A config file holds nested blocks mirroring the in-memory types:

    grid:            n
    physics:         nu1, nu2 (default nu1), mu, interpolant, forcing,
                     allow_inadmissible
    solver:          dt, t_end, sample_every
    system:          kind, linear_only
    initial:         kind (taylor_green | random_solenoidal | zero),
                     seed, kmin, kmax, l2_norm
    assimilated_initial:  same keys; omitted means a zero start
    experiment:      levels or deltas (not both), norm, ratio_window,
                     decay_threshold, with_control, control_floor, t_switch,
                     nu_new, trials, ensemble
    seed:            base integer seed
    output_dir:      artifact directory

    physics.interpolant:  kind (spectral_projection | box_average),
                          modes or boxes
    physics.forcing:      kind (none | random_solenoidal | grashof),
                          seed, kmin, kmax, l2_norm, grashof

Parsing is strict: unknown keys anywhere are fatal, so a misspelled physics
parameter cannot be silently ignored.  Every invariant of the mirrored types
is re-validated on load, the quotient sweep (`sweep_spec`) and a viscosity
switch (`check_switch`) included, and a nudged run whose gain violates the
admissibility condition mu * c0 * h^2 <= nu is rejected unless
physics.allow_inadmissible is set.  Unpinned seeds derive from the top-level
seed: forcing uses it directly, the initial field uses seed + 1, and the
assimilated initial uses seed + 2, so one integer reproduces a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import PhysicsParams, SystemKind
from .experiments import TRAJECTORY_NORMS, DQSweepSpec, check_switch, forcing_for_grashof
from .interpolants import (
    BoxAverage,
    InterpolantSpec,
    SpectralProjection,
    admissibility,
)
from .spectral import GridSpec, SpectralField, random_field, taylor_green
from .timestepper import SolverConfig


class ConfigError(ValueError):
    """A configuration file failed parsing or validation."""


_TOP_KEYS = {
    "grid", "physics", "solver", "system", "initial",
    "assimilated_initial", "experiment", "seed", "output_dir",
}
_PHYSICS_KEYS = {"nu1", "nu2", "mu", "interpolant", "forcing", "allow_inadmissible"}
_SOLVER_KEYS = {"dt", "t_end", "sample_every"}
_SYSTEM_KEYS = {"kind", "linear_only"}
_FIELD_KEYS = {"kind", "seed", "kmin", "kmax", "l2_norm"}
_FORCING_KEYS = {"kind", "seed", "kmin", "kmax", "l2_norm", "grashof"}
_INTERP_KEYS = {"kind", "modes", "boxes"}
_EXPERIMENT_KEYS = {
    "levels", "deltas", "norm", "ratio_window", "decay_threshold",
    "with_control", "control_floor", "t_switch", "nu_new", "trials", "ensemble",
}

_FIELD_KINDS = ("taylor_green", "random_solenoidal", "zero")
_FORCING_KINDS = ("none", "random_solenoidal", "grashof")


def _mapping(raw, where: str, allowed: set) -> dict:
    """raw itself when it is a mapping with no key outside allowed."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key '{sorted(unknown)[0]}' in {where}; allowed keys: {sorted(allowed)}"
        )
    return raw


def _block(data: dict, name: str, allowed: set, required: bool = False) -> dict:
    raw = data.get(name)
    if raw is None:
        if required:
            raise ConfigError(f"missing required block '{name}'")
        return {}
    return _mapping(raw, f"block '{name}'", allowed)


def _as_float(value, where: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{where}: expected a number, got {value!r}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _build_interpolant(raw, grid: GridSpec) -> InterpolantSpec | None:
    if raw is None:
        return None
    _mapping(raw, "physics.interpolant", _INTERP_KEYS)
    kind = raw.get("kind")
    if kind == "spectral_projection":
        if "modes" not in raw:
            raise ConfigError("spectral_projection interpolant needs 'modes'")
        return SpectralProjection(modes=_as_int(raw["modes"], "interpolant.modes"))
    if kind == "box_average":
        if "boxes" not in raw:
            raise ConfigError("box_average interpolant needs 'boxes'")
        boxes = _as_int(raw["boxes"], "interpolant.boxes")
        if grid.n % boxes != 0:
            raise ConfigError(
                f"box_average boxes = {boxes} does not divide grid n = {grid.n}"
            )
        return BoxAverage(boxes=boxes)
    raise ConfigError(
        f"interpolant kind must be 'spectral_projection' or 'box_average', "
        f"got {kind!r}"
    )


def _build_forcing(raw, grid: GridSpec, nu1: float, default_seed: int):
    if raw is None:
        return None, {"kind": "none"}
    _mapping(raw, "physics.forcing", _FORCING_KEYS)
    kind = raw.get("kind", "none")
    if kind not in _FORCING_KINDS:
        raise ConfigError(f"forcing kind must be one of {_FORCING_KINDS}, got {kind!r}")
    if kind == "none":
        return None, {"kind": "none"}
    seed = _as_int(raw.get("seed", default_seed), "forcing.seed")
    kmin = _as_int(raw.get("kmin", 2), "forcing.kmin")
    kmax = _as_int(raw.get("kmax", 6), "forcing.kmax")
    echo = {"kind": kind, "seed": seed, "kmin": kmin, "kmax": kmax}
    if kind == "grashof":
        if "grashof" not in raw:
            raise ConfigError("grashof forcing needs a 'grashof' target value")
        target = _as_float(raw["grashof"], "forcing.grashof")
        echo["grashof"] = target
        field = forcing_for_grashof(grid, nu1, target, seed=seed, kmin=kmin, kmax=kmax)
    else:
        l2 = _as_float(raw.get("l2_norm", 1.0), "forcing.l2_norm")
        echo["l2_norm"] = l2
        field = random_field(grid, seed=seed, kmin=kmin, kmax=kmax, l2_norm=l2)
    return field, echo


def _build_field(raw, grid: GridSpec, default_seed: int, block: str,
                 default_kind: str = "taylor_green"):
    raw = {} if raw is None else _mapping(raw, f"block '{block}'", _FIELD_KEYS)
    kind = raw.get("kind", default_kind)
    if kind not in _FIELD_KINDS:
        raise ConfigError(
            f"{block}.kind must be one of {_FIELD_KINDS}, got {kind!r}"
        )
    if kind == "taylor_green":
        return taylor_green(grid), {"kind": kind}
    if kind == "zero":
        return SpectralField.zero(grid), {"kind": kind}
    seed = _as_int(raw.get("seed", default_seed), f"{block}.seed")
    kmin = _as_int(raw.get("kmin", 1), f"{block}.kmin")
    kmax = _as_int(raw.get("kmax", 6), f"{block}.kmax")
    l2 = _as_float(raw.get("l2_norm", 1.0), f"{block}.l2_norm")
    field = random_field(grid, seed=seed, kmin=kmin, kmax=kmax, l2_norm=l2)
    return field, {"kind": kind, "seed": seed, "kmin": kmin, "kmax": kmax,
                   "l2_norm": l2}


def _build_experiment(raw: dict) -> dict:
    out: dict = {}
    if {"levels", "deltas"} <= raw.keys():
        raise ConfigError("experiment takes levels or deltas, not both")
    if "levels" in raw:
        out["levels"] = _as_int(raw["levels"], "experiment.levels")
    if "deltas" in raw:
        deltas = raw["deltas"]
        if not isinstance(deltas, (list, tuple)) or not deltas:
            raise ConfigError("experiment.deltas must be a non-empty list")
        out["deltas"] = tuple(
            _as_float(d, "experiment.deltas") for d in deltas
        )
    if "norm" in raw:
        if raw["norm"] not in TRAJECTORY_NORMS:
            raise ConfigError(
                f"experiment.norm must be one of {TRAJECTORY_NORMS}, "
                f"got {raw['norm']!r}"
            )
        out["norm"] = raw["norm"]
    if "ratio_window" in raw:
        win = raw["ratio_window"]
        if not isinstance(win, (list, tuple)) or len(win) != 2:
            raise ConfigError("experiment.ratio_window must be a two-number list")
        lo = _as_float(win[0], "experiment.ratio_window")
        hi = _as_float(win[1], "experiment.ratio_window")
        if not 0 < lo < hi:
            raise ConfigError("experiment.ratio_window must be increasing positives")
        out["ratio_window"] = (lo, hi)
    for key in ("decay_threshold", "control_floor", "t_switch", "nu_new"):
        if key in raw:
            out[key] = _as_float(raw[key], f"experiment.{key}")
    if "with_control" in raw:
        out["with_control"] = _as_bool(raw["with_control"], "experiment.with_control")
    for key in ("trials", "ensemble"):
        if key in raw:
            out[key] = _as_int(raw[key], f"experiment.{key}")
    return out


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration with all defaults materialized."""

    grid: GridSpec
    physics: PhysicsParams
    solver: SolverConfig
    system_kind: SystemKind | None
    linear_only: bool
    initial: SpectralField
    assimilated_initial: SpectralField | None
    experiment: dict
    seed: int
    output_dir: str
    allow_inadmissible: bool
    effective: dict

    def echo(self) -> str:
        """`effective` as YAML, dumped by libyaml's safe dumper where PyYAML has it."""
        import yaml  # here and in load_config only, so importing the package skips PyYAML

        dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
        return yaml.dump(self.effective, Dumper=dumper, sort_keys=True)


def load_config_data(data: dict, seed_override: int | None = None) -> RunConfig:
    """Validate an already-parsed configuration mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(
            f"unknown top-level key '{sorted(unknown)[0]}'; "
            f"allowed keys: {sorted(_TOP_KEYS)}"
        )
    seed = _as_int(data.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override
    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")

    grid_raw = _block(data, "grid", {"n"}, required=True)
    if "n" not in grid_raw:
        raise ConfigError("grid block needs 'n'")
    try:
        grid = GridSpec(_as_int(grid_raw["n"], "grid.n"))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    phys_raw = _block(data, "physics", _PHYSICS_KEYS, required=True)
    if "nu1" not in phys_raw:
        raise ConfigError("physics block needs 'nu1'")
    nu1 = _as_float(phys_raw["nu1"], "physics.nu1")
    nu2 = _as_float(phys_raw.get("nu2", nu1), "physics.nu2")
    mu = _as_float(phys_raw.get("mu", 0.0), "physics.mu")
    allow_inadmissible = _as_bool(
        phys_raw.get("allow_inadmissible", False), "physics.allow_inadmissible"
    )
    interp = _build_interpolant(phys_raw.get("interpolant"), grid)
    forcing, forcing_echo = _build_forcing(phys_raw.get("forcing"), grid, nu1, seed)
    try:
        physics = PhysicsParams(nu1=nu1, nu2=nu2, mu=mu, forcing=forcing,
                                interp=interp)
    except ValueError as exc:
        raise ConfigError(f"physics: {exc}") from exc

    solver_raw = _block(data, "solver", _SOLVER_KEYS, required=True)
    for key in ("dt", "t_end"):
        if key not in solver_raw:
            raise ConfigError(f"solver block needs '{key}'")
    try:
        solver = SolverConfig(
            dt=_as_float(solver_raw["dt"], "solver.dt"),
            t_end=_as_float(solver_raw["t_end"], "solver.t_end"),
            sample_every=_as_int(solver_raw.get("sample_every", 1),
                                 "solver.sample_every"),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    system_raw = _block(data, "system", _SYSTEM_KEYS)
    system_kind = None
    if "kind" in system_raw:
        try:
            system_kind = SystemKind(system_raw["kind"])
        except ValueError as exc:
            raise ConfigError(
                f"system.kind must be one of "
                f"{[k.value for k in SystemKind]}, got {system_raw['kind']!r}"
            ) from exc
    linear_only = _as_bool(system_raw.get("linear_only", False),
                           "system.linear_only")

    initial, initial_echo = _build_field(
        data.get("initial"), grid, seed + 1, "initial"
    )
    assimilated = None
    assim_echo = None
    if data.get("assimilated_initial") is not None:
        assimilated, assim_echo = _build_field(
            data["assimilated_initial"], grid, seed + 2, "assimilated_initial",
            default_kind="zero",
        )

    experiment = _build_experiment(_block(data, "experiment", _EXPERIMENT_KEYS))

    echo_admissibility = None
    if mu > 0:
        nus = [nu1, nu2]
        if "nu_new" in experiment:
            nus.append(experiment["nu_new"])
        nu_min = min(nus)
        ok = admissibility(nu_min, mu, interp)
        echo_admissibility = {
            "nonstrict": ok,
            "strict": admissibility(nu_min, mu, interp, strict=True),
        }
        if not ok and not allow_inadmissible:
            raise ConfigError(
                f"nudging gain violates the admissibility condition "
                f"mu * c0 * h^2 <= nu at nu = {nu_min}, mu = {mu}; "
                f"set physics.allow_inadmissible to run anyway"
            )

    effective = {
        "grid": {"n": grid.n},
        "physics": {
            "nu1": nu1,
            "nu2": nu2,
            "mu": mu,
            "interpolant": None if interp is None else repr(interp),
            "forcing": forcing_echo,
            "allow_inadmissible": allow_inadmissible,
        },
        "solver": {
            "dt": solver.dt,
            "t_end": solver.t_end,
            "sample_every": solver.sample_every,
        },
        "system": {
            "kind": None if system_kind is None else system_kind.value,
            "linear_only": linear_only,
        },
        "initial": initial_echo,
        "assimilated_initial": assim_echo,
        "experiment": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in experiment.items()
        },
        "admissibility": echo_admissibility,
        "seed": seed,
        "output_dir": output_dir,
    }
    run = RunConfig(
        grid=grid,
        physics=physics,
        solver=solver,
        system_kind=system_kind,
        linear_only=linear_only,
        initial=initial,
        assimilated_initial=assimilated,
        experiment=experiment,
        seed=seed,
        output_dir=output_dir,
        allow_inadmissible=allow_inadmissible,
        effective=effective,
    )
    try:
        sweep_spec(run)
        if {"t_switch", "nu_new"} <= experiment.keys():
            check_switch(solver, experiment["t_switch"], experiment["nu_new"])
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from exc
    return run


def sweep_spec(cfg: RunConfig) -> DQSweepSpec:
    """The quotient sweep of cfg: its experiment deltas, or else halving levels (default 5)."""
    exp = cfg.experiment
    norm_key = exp.get("norm", "l2_v")
    if "deltas" in exp:
        return DQSweepSpec(cfg.physics.nu1, exp["deltas"], cfg.initial, norm=norm_key)
    return DQSweepSpec.halving(
        cfg.physics.nu1, cfg.initial, levels=exp.get("levels", 5), norm=norm_key
    )


def load_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse (with libyaml's safe loader where PyYAML has it) and validate a YAML file."""
    import yaml

    try:
        with open(path, encoding="utf-8") as handle:
            data = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"YAML parse error{where}: {exc}") from exc
    return load_config_data(data, seed_override=seed_override)
