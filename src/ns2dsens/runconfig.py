"""Strict YAML run configuration.

A config file holds nested blocks mirroring the in-memory types.  Each block
is parsed by one key table, which gives every key its converter and its
default ("required" where there is none):

    block                key                 default
    grid                 n                   required
    physics              nu1                 required
                         nu2                 nu1
                         mu                  0.0
                         interpolant         absent: no nudging
                         forcing             kind none
                         allow_inadmissible  false
    solver               dt, t_end           required
                         sample_every        1
    system               kind                absent: the command's system
                         linear_only         false
    initial              kind                taylor_green
    assimilated_initial  kind                zero; omitting the block means a zero start
    experiment           levels or deltas (not both), norm, ratio_window,
                         decay_threshold, with_control, control_floor,
                         t_switch, nu_new, trials, ensemble: each absent unless
                         set; the command's runner holds the default
    seed                                     0
    output_dir                               out

The `kind` of an initial field, forcing or interpolant picks the keys it reads:

    block                kind                 keys and defaults
    initial and          taylor_green, zero   none
    assimilated_initial  random_solenoidal    seed, kmin 1, kmax 6, l2_norm 1.0
    physics.forcing      none                 none
                         random_solenoidal    seed, kmin 2, kmax 6, l2_norm 1.0
                         grashof              seed, kmin 2, kmax 6, grashof required
    physics.interpolant  spectral_projection  modes required
                         box_average          boxes required, dividing grid n

Parsing is strict: unknown keys anywhere are fatal, a key that the chosen
kind does not read included, so a misspelled physics parameter cannot be
silently ignored, and a number must be finite (NaN, infinities and integers
beyond float range are rejected).  Every invariant of the mirrored types is
re-validated on load, the quotient sweep (`sweep_spec`) and a viscosity
switch (`check_switch`) included, and a nudged run whose gain violates the
admissibility condition mu * c0 * h^2 <= nu is rejected unless
physics.allow_inadmissible is set.  Unpinned seeds derive from the top-level
seed: forcing uses it directly, the initial field uses seed + 1, and the
assimilated initial uses seed + 2, so one integer reproduces a whole run.
The parsed blocks, defaults filled, are the echo (`RunConfig.effective`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import PhysicsParams, SystemKind
from .experiments import TRAJECTORY_NORMS, DQSweepSpec, check_switch, forcing_for_grashof
from .interpolants import BoxAverage, SpectralProjection, admissibility
from .spectral import GridSpec, SpectralField, random_field, taylor_green
from .timestepper import SolverConfig


class ConfigError(ValueError):
    """A configuration file failed parsing or validation."""


_REQUIRED = object()  # default of a key that must be given
_UNSET = object()  # default of a key left out of the parsed block when absent


def _as_is(value, where: str):
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float, str)):
        try:
            number = float(value)
        except (ValueError, OverflowError):  # OverflowError: an int beyond float range
            number = math.nan
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_count(value, where: str) -> int:
    value = _as_int(value, where)
    if value < 1:
        raise ConfigError(f"{where} must be at least 1, got {value}")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _as_path(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string path")
    return value


def _one_of(choices: tuple):
    def convert(value, where: str):
        if value not in choices:
            raise ConfigError(f"{where} must be one of {choices}, got {value!r}")
        return value

    return convert


def _as_deltas(value, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    return tuple(_as_float(d, where) for d in value)


def _as_window(value, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a two-number list")
    lo, hi = (_as_float(v, where) for v in value)
    if not 0 < lo < hi:
        raise ConfigError(f"{where} must be increasing positives")
    return lo, hi


# Each table maps a key to (converter, default).  Nested blocks pass through
# as-is and are parsed by their own tables.
_TOP = {
    "grid": (_as_is, _REQUIRED),
    "physics": (_as_is, _REQUIRED),
    "solver": (_as_is, _REQUIRED),
    "system": (_as_is, None),
    "initial": (_as_is, None),
    "assimilated_initial": (_as_is, None),
    "experiment": (_as_is, None),
    "seed": (_as_int, 0),
    "output_dir": (_as_path, "out"),
}
_GRID = {"n": (_as_int, _REQUIRED)}
_PHYSICS = {
    "nu1": (_as_float, _REQUIRED),
    "nu2": (_as_float, _UNSET),  # nu1 when absent
    "mu": (_as_float, 0.0),
    "interpolant": (_as_is, None),
    "forcing": (_as_is, None),
    "allow_inadmissible": (_as_bool, False),
}
_SOLVER = {
    "dt": (_as_float, _REQUIRED),
    "t_end": (_as_float, _REQUIRED),
    "sample_every": (_as_int, 1),
}
_SYSTEM = {
    "kind": (_one_of(tuple(k.value for k in SystemKind)), None),
    "linear_only": (_as_bool, False),
}
_EXPERIMENT = {
    "levels": (_as_int, _UNSET),
    "deltas": (_as_deltas, _UNSET),
    "norm": (_one_of(TRAJECTORY_NORMS), _UNSET),
    "ratio_window": (_as_window, _UNSET),
    "decay_threshold": (_as_float, _UNSET),
    "with_control": (_as_bool, _UNSET),
    "control_floor": (_as_float, _UNSET),
    "t_switch": (_as_float, _UNSET),
    "nu_new": (_as_float, _UNSET),
    "trials": (_as_count, _UNSET),
    "ensemble": (_as_count, _UNSET),
}

# Each kind maps to its key table and its builder, called as
# builder(grid, nu1, **parsed keys).  seed is always given: it derives from
# the base seed unless pinned.
_SPECTRUM = {"seed": (_as_int, _REQUIRED), "kmin": (_as_int, 1), "kmax": (_as_int, 6)}
_FORCING_SPECTRUM = {**_SPECTRUM, "kmin": (_as_int, 2)}


def _random(grid: GridSpec, nu: float, **spectrum) -> SpectralField:
    return random_field(grid, **spectrum)


_FIELD_KINDS = {
    "taylor_green": ({}, lambda grid, nu: taylor_green(grid)),
    "random_solenoidal": ({**_SPECTRUM, "l2_norm": (_as_float, 1.0)}, _random),
    "zero": ({}, lambda grid, nu: SpectralField.zero(grid)),
}
_FORCING_KINDS = {
    "none": ({}, lambda grid, nu: None),
    "random_solenoidal": ({**_FORCING_SPECTRUM, "l2_norm": (_as_float, 1.0)}, _random),
    "grashof": ({**_FORCING_SPECTRUM, "grashof": (_as_float, _REQUIRED)},
                lambda grid, nu, grashof, **spectrum:
                forcing_for_grashof(grid, nu, grashof, **spectrum)),
}
_INTERP_KINDS = {
    "spectral_projection": ({"modes": (_as_int, _REQUIRED)},
                            lambda grid, nu, modes: SpectralProjection(modes)),
    "box_average": ({"boxes": (_as_int, _REQUIRED)}, lambda grid, nu, boxes: BoxAverage(boxes)),
}


def _walk(raw, table: dict, name: str | None = None, *, kind: str | None = None,
          **fallback) -> dict:
    """raw parsed by table: unknown keys rejected, values converted, defaults filled.

    fallback overrides defaults with values derived from other keys.  A null
    block reads as an empty one; name None is the configuration root.
    """
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"block '{name}' must be a mapping" if name
                          else "configuration root must be a mapping")
    where = f"block '{name}'" + (f" of kind '{kind}'" if kind else "")
    unknown = sorted(set(raw) - table.keys())
    if unknown:
        what = f"key '{unknown[0]}' in {where}" if name else f"top-level key '{unknown[0]}'"
        raise ConfigError(f"unknown {what}; allowed keys: {sorted(table)}")
    parsed = {}
    for key, (convert, default) in table.items():
        if key in raw:
            parsed[key] = convert(raw[key], f"{name}.{key}" if name else key)
        elif key in fallback:
            parsed[key] = fallback[key]
        elif default is _REQUIRED:
            raise ConfigError(f"{where} needs '{key}'" if name
                              else f"missing required block '{key}'")
        elif default is not _UNSET:
            parsed[key] = default
    return parsed


def _built(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError raised as a ConfigError naming the block."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _kinded(raw, kinds: dict, name: str, default_kind, grid: GridSpec, nu1: float,
            **fallback):
    """(built object, parsed block) of a block whose kind picks its key table and builder."""
    kind = raw.get("kind", default_kind) if isinstance(raw, dict) else default_kind
    if kind not in kinds:
        raise ConfigError(f"{name}.kind must be one of {tuple(kinds)}, got {kind!r}")
    table, build = kinds[kind]
    block = _walk(raw, {"kind": (_as_is, kind), **table}, name, kind=kind, **fallback)
    params = {k: v for k, v in block.items() if k != "kind"}
    return _built(name, build, grid, nu1, **params), block


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
    top = _walk(data, _TOP)  # each block is replaced by its parsed form, the echo
    if seed_override is not None:
        top["seed"] = seed_override
    seed = top["seed"]
    top["grid"] = _walk(top["grid"], _GRID, "grid")
    grid = _built("grid", GridSpec, top["grid"]["n"])

    phys = top["physics"] = _walk(top["physics"], _PHYSICS, "physics")
    nu1 = phys["nu1"]
    phys.setdefault("nu2", nu1)
    interp = None
    if phys["interpolant"] is not None:
        interp, _ = _kinded(phys["interpolant"], _INTERP_KINDS, "physics.interpolant", None,
                            grid, nu1)
        if isinstance(interp, BoxAverage) and grid.n % interp.boxes != 0:
            raise ConfigError(
                f"box_average boxes = {interp.boxes} does not divide grid n = {grid.n}"
            )
        phys["interpolant"] = repr(interp)
    forcing, phys["forcing"] = _kinded(phys["forcing"], _FORCING_KINDS, "physics.forcing",
                                       "none", grid, nu1, seed=seed)
    physics = _built("physics", PhysicsParams, nu1=nu1, nu2=phys["nu2"], mu=phys["mu"],
                     forcing=forcing, interp=interp)

    top["solver"] = _walk(top["solver"], _SOLVER, "solver")
    solver = _built("solver", SolverConfig, **top["solver"])
    system = top["system"] = _walk(top["system"], _SYSTEM, "system")

    initial, top["initial"] = _kinded(top["initial"], _FIELD_KINDS, "initial",
                                      "taylor_green", grid, nu1, seed=seed + 1)
    assimilated = None
    if top["assimilated_initial"] is not None:
        assimilated, top["assimilated_initial"] = _kinded(
            top["assimilated_initial"], _FIELD_KINDS, "assimilated_initial", "zero",
            grid, nu1, seed=seed + 2,
        )

    experiment = _walk(top["experiment"], _EXPERIMENT, "experiment")
    if {"levels", "deltas"} <= experiment.keys():
        raise ConfigError("experiment takes levels or deltas, not both")
    top["experiment"] = {k: list(v) if isinstance(v, tuple) else v
                         for k, v in experiment.items()}

    top["admissibility"] = None
    if phys["mu"] > 0:
        nu_min = min(nu1, phys["nu2"], experiment.get("nu_new", nu1))
        ok = _built("experiment", admissibility, nu_min, phys["mu"], interp)
        top["admissibility"] = {
            "nonstrict": ok,
            "strict": admissibility(nu_min, phys["mu"], interp, strict=True),
        }
        if not ok and not phys["allow_inadmissible"]:
            raise ConfigError(
                f"nudging gain violates the admissibility condition "
                f"mu * c0 * h^2 <= nu at nu = {nu_min}, mu = {phys['mu']}; "
                f"set physics.allow_inadmissible to run anyway"
            )

    run = RunConfig(
        grid=grid,
        physics=physics,
        solver=solver,
        system_kind=None if system["kind"] is None else SystemKind(system["kind"]),
        linear_only=system["linear_only"],
        initial=initial,
        assimilated_initial=assimilated,
        experiment=experiment,
        seed=seed,
        output_dir=top["output_dir"],
        allow_inadmissible=phys["allow_inadmissible"],
        effective=top,
    )
    _built("experiment", sweep_spec, run)
    if {"t_switch", "nu_new"} <= experiment.keys():
        _built("experiment", check_switch, solver, experiment["t_switch"], experiment["nu_new"])
    return run


# The experiment keys that sweep_spec reads.
SWEEP_KEYS = ("levels", "deltas", "norm")


def sweep_spec(cfg: RunConfig) -> DQSweepSpec:
    """The quotient sweep of cfg: its experiment deltas, or else halving levels.

    Only the keys cfg sets are passed on; `DQSweepSpec.halving` and
    `DQSweepSpec` hold the defaults (5 levels, norm l2_v).
    """
    given = {k: v for k, v in cfg.experiment.items() if k in SWEEP_KEYS}
    if "deltas" in given:
        return DQSweepSpec(cfg.physics.nu1, initial=cfg.initial, **given)
    return DQSweepSpec.halving(cfg.physics.nu1, cfg.initial, **given)


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
