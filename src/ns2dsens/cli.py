"""Command-line surface: run simulations and experiments from YAML configs.

Subcommands: simulate (plain flow), assimilate (nudged pair), sensitivity
(flow plus viscosity derivative), dq-sweep and da-dq-sweep (difference
quotient convergence), sync (nudging synchronization with optional control),
switch (mid-run viscosity change), taylor-green (closed-form oracles), and
verify (operator identities, interpolant bounds, and the oracle suite).

Each command is one row of `_COMMANDS`: the system it runs, the experiment
keys its runner reads, its call of the runner and its help text.  A config
is required except for taylor-green and verify, which otherwise run on
built-in grids of n = 64 and n = 32.  Only the experiment keys the config
sets are passed on, so each default is written once: in the runner's
signature, or in `DQSweepSpec` for the sweeps' levels and norm.  The one
default set here is sync's with_control, true.  An experiment key the
command does not read, a key its runner has no default for (switch's
t_switch and nu_new) left out, and a pinned system.kind other than the
command's are configuration errors, raised before anything is written.

Exit codes: 0 all verdicts passed, 1 a verdict or bound check failed,
2 configuration problem, 3 runtime blow-up.  Artifacts land in --out (or the
config's output_dir): report.json always, config_echo.yaml whenever a config
is given, and diagnostics.csv and final-state snapshots for the commands
that return a trajectory.  Every report is built by `experiments.reported`:
it records the warnings raised, the runtime and a digest of the run's inputs.
A single run's numbers are norms of its band halves: the per-sample series
the stepper kept, and `final_difference_l2` from the final band halves of u
and v.  Only the snapshot files expand the final samples to full spectra.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagnostics import check_apriori, identity_suite, trajectory_grashof
from .dynamics import SystemKind, SystemSpec
from .experiments import (
    ExperimentReport,
    _jsonify,
    reported,
    run_da_dq_convergence,
    run_da_sync,
    run_dq_convergence,
    run_reynolds_switch,
    run_taylor_green_suite,
)
from .interpolants import BoxAverage, SpectralProjection, verify_bound
from .runconfig import SWEEP_KEYS, ConfigError, RunConfig, load_config, sweep_spec
from .spectral import BandStack, GridSpec, SpectralField, norms
from .storage import emit_diagnostics_csv, save_report, write_snapshot
from .timestepper import AdmissibilityError, BlowupError, integrate

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


def _write_run_artifacts(traj, out_dir: Path) -> None:
    emit_diagnostics_csv(traj, out_dir / "diagnostics.csv")
    t_end = float(traj.times[-1])
    for name in sorted(traj.snapshots):
        write_snapshot(traj.final(name), t_end, out_dir / f"snapshot_{name}.bin")


def _v0(cfg: RunConfig) -> SpectralField:
    """The assimilated copy's start: the config's, or a zero field."""
    if cfg.assimilated_initial is not None:
        return cfg.assimilated_initial
    return SpectralField.zero(cfg.grid)


def _single_run(cfg: RunConfig, args) -> ExperimentReport:
    """One checked integration of the command's system, named after the command."""
    system = SystemSpec(_COMMANDS[args.command][0], linear_only=cfg.linear_only)
    init = {"u": cfg.initial}
    if "v" in system.fields:
        init["v"] = _v0(cfg)
    return _checked_run(
        args.command, system, init, cfg.physics, cfg.solver, not cfg.allow_inadmissible
    )


@reported
def _checked_run(name, system, init, p, solver, enforce_admissibility) -> dict:
    """One integration of system from init and its a-priori checks."""
    traj = integrate(system, init, p, solver, enforce_admissibility=enforce_admissibility)
    checks = tuple(check_apriori(traj))
    data = {
        "final_norms": {
            f: {"l2": float(traj.norm_series(f, "l2")[-1]),
                "h1": float(traj.norm_series(f, "h1")[-1])}
            for f in sorted(traj.series)
        },
        "max_projection_drift": traj.max_projection_drift,
        "n_samples": traj.n_samples,
    }
    if p.forcing is not None:
        data["grashof"] = trajectory_grashof(traj)
    if "v" in system.fields:
        u, v = traj.snapshots["u"].coeffs[-1], traj.snapshots["v"].coeffs[-1]
        data["final_difference_l2"] = float(norms(BandStack(traj.grid, u - v), l2_only=True))
    verdicts = {"apriori_bounds": all(c.passed for c in checks)}
    return dict(name=name, verdicts=verdicts, data=data, checks=checks,
                artifacts={"trajectory": traj})


def _verify_command(cfg: RunConfig | None, args, **experiment) -> ExperimentReport:
    """_verify on cfg, or on its own defaults with --seed when no config is given."""
    if cfg is None:
        return _verify() if args.seed is None else _verify(seed=args.seed)
    return _verify(cfg.grid, seed=cfg.seed, **experiment,
                   taylor_green_args=(cfg.solver, cfg.grid, cfg.physics.nu1))


@reported
def _verify(grid=GridSpec(32), trials=100, ensemble=100, seed=0, taylor_green_args=()) -> dict:
    """Identities and interpolant bounds on grid; the oracle suite on taylor_green_args."""
    tg_report = run_taylor_green_suite(*taylor_green_args)
    identities = identity_suite(grid, trials=trials, seed=seed)
    proj = verify_bound(SpectralProjection(modes=grid.cutoff // 2), grid,
                        ensemble=ensemble, seed=seed)
    box_count = next(b for b in (8, 4, 2) if grid.n % b == 0)
    box = verify_bound(BoxAverage(boxes=box_count), grid,
                       ensemble=ensemble, seed=seed)
    verdicts = {
        "identity_suite": identities.passed,
        "interpolant_bound_spectral_projection": proj.passed,
        "interpolant_bound_box_average": box.passed,
    }
    verdicts.update(
        {f"taylor_green_{k}": v for k, v in tg_report.verdicts.items()}
    )
    data = {
        "identity_trials": identities.trials,
        "identity_empirical": identities.empirical,
        "projection_bound": {"c0": proj.c0, "max_ratio": proj.max_ratio,
                             "sharpness": proj.sharpness},
        "box_bound": {"c0": box.c0, "max_ratio": box.max_ratio,
                      "sharpness": box.sharpness},
        "taylor_green": tg_report.data,
    }
    checks = tuple(identities.checks) + tuple(tg_report.checks)
    return dict(name="verify", verdicts=verdicts, data=data, checks=checks)


# The quotient-sweep systems; their commands also read sweep_spec's keys.
_SWEEPS = (SystemKind.DQ_DIRECT, SystemKind.DA_DQ_DIRECT)

# command: (the system it runs, or None for a command that needs no config;
# the experiment keys its runner reads; its call(cfg, args, **the keys the
# config sets), so the runner's own defaults fill the rest; its help text).
# The calls look runners up as this module's globals when they run, so a
# wrapper set on this module's attribute sees every call.
_COMMANDS = {
    "simulate": (SystemKind.NSE, (), _single_run, "integrate the plain flow"),
    "assimilate": (SystemKind.DA, (), _single_run, "integrate the nudged pair"),
    "sensitivity": (SystemKind.NSE_SENS, (), _single_run,
                    "integrate the flow and its viscosity sensitivity"),
    "dq-sweep": (
        SystemKind.DQ_DIRECT, ("ratio_window",),
        lambda cfg, args, **kw: run_dq_convergence(sweep_spec(cfg), cfg.physics, cfg.solver, **kw),
        "difference-quotient convergence sweep",
    ),
    "da-dq-sweep": (
        SystemKind.DA_DQ_DIRECT, ("ratio_window",),
        lambda cfg, args, **kw: run_da_dq_convergence(
            sweep_spec(cfg), cfg.physics, cfg.solver, v0=cfg.assimilated_initial, **kw),
        "assimilated difference-quotient convergence sweep",
    ),
    # The one default the CLI sets itself: the zero-gain control runs unless
    # with_control is false.  run_da_sync's own default stays False, since
    # flipping it would change the reports of callers of the API.
    "sync": (
        SystemKind.DA, ("decay_threshold", "with_control", "control_floor"),
        lambda cfg, args, with_control=True, **kw: run_da_sync(
            cfg.physics, cfg.solver, cfg.initial, _v0(cfg), with_control=with_control, **kw),
        "nudging synchronization experiment",
    ),
    "switch": (
        SystemKind.DA, ("t_switch", "nu_new"),
        lambda cfg, args, **kw: run_reynolds_switch(
            cfg.physics, cfg.solver, u0=cfg.initial, v0=cfg.assimilated_initial, **kw),
        "mid-run viscosity switch experiment",
    ),
    "taylor-green": (
        None, ("deltas", "ratio_window"),
        lambda cfg, args, **kw: run_taylor_green_suite() if cfg is None else
        run_taylor_green_suite(cfg.solver, grid=cfg.grid, nu=cfg.physics.nu1, **kw),
        "closed-form oracle suite",
    ),
    "verify": (None, ("trials", "ensemble"), _verify_command,
               "operator identities, interpolant bounds, and oracles"),
}
# The experiment keys a command's runner has no default for.
_NEEDED = {"switch": ("t_switch", "nu_new")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ns2dsens",
        description="2D incompressible flow, nudging assimilation, and "
                    "viscosity-sensitivity experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (*_, help_text) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", metavar="PATH",
                       help="YAML run configuration")
        s.add_argument("--out", metavar="DIR",
                       help="artifact directory (default: config output_dir)")
        s.add_argument("--seed", type=int,
                       help="override the config's base seed")
        s.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    system, keys, call, _ = _COMMANDS[args.command]

    try:
        cfg, given = None, {}
        if args.config is not None:
            cfg = load_config(args.config, seed_override=args.seed)
            reads = keys + (SWEEP_KEYS if system in _SWEEPS else ())
            unread = sorted(cfg.experiment.keys() - set(reads))
            if unread:
                raise ConfigError(f"'{args.command}' does not read experiment.{unread[0]}; "
                                  f"it reads {sorted(reads)}")
            missing = [k for k in _NEEDED.get(args.command, ()) if k not in cfg.experiment]
            if missing:
                raise ConfigError(f"{args.command} needs experiment.{missing[0]}")
            if system is not None and cfg.system_kind not in (None, system):
                raise ConfigError(
                    f"this command runs the '{system.value}' system but the config "
                    f"pins system.kind = '{cfg.system_kind.value}'"
                )
            given = {k: v for k, v in cfg.experiment.items() if k in keys}
        elif system is not None:
            raise ConfigError(
                f"'{args.command}' requires --config PATH; "
                f"usage: ns2dsens {args.command} --config PATH [--out DIR] "
                f"[--seed INT] [--quiet]"
            )
        out_dir = Path(
            args.out if args.out is not None
            else (cfg.output_dir if cfg is not None else "out")
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg is not None:
            (out_dir / "config_echo.yaml").write_text(cfg.echo(), encoding="utf-8")
        report = call(cfg, args, **given)
    except (ConfigError, AdmissibilityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupError as exc:
        path = out_dir / "blowup_report.json"
        payload = _jsonify(
            {
                "field": exc.field,
                "time": exc.time,
                "value": exc.value,
                "history": exc.history,
                "config_digest": exc.config_digest,
                "warnings": exc.warnings,
            }
        )
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"blow-up: field '{exc.field}' diverged at t = {exc.time:.6g}; "
              f"report: {path}", file=sys.stderr)
        return EXIT_BLOWUP

    if "trajectory" in report.artifacts:
        _write_run_artifacts(report.artifacts["trajectory"], out_dir)
    report_path = out_dir / "report.json"
    save_report(report, report_path)
    if not args.quiet:
        print("\n".join(report.summary_lines()))
        print(f"report: {report_path}")
    if not report.verdicts.get("no_blowup", True):
        print(f"blow-up reported; see {report_path}", file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK if report.passed else EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
