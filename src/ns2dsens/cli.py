"""Command-line surface: run simulations and experiments from YAML configs.

Subcommands: simulate (plain flow), assimilate (nudged pair), sensitivity
(flow plus viscosity derivative), dq-sweep and da-dq-sweep (difference
quotient convergence), sync (nudging synchronization with optional control),
switch (mid-run viscosity change), taylor-green (closed-form oracles), and
verify (operator identities, interpolant bounds, and the oracle suite).

Exit codes: 0 all verdicts passed, 1 a verdict or bound check failed,
2 configuration problem, 3 runtime blow-up.  Artifacts land in --out (or the
config's output_dir): report.json always, plus diagnostics.csv, final-state
snapshots, and config_echo.yaml for the single-trajectory commands.  Every
report is built by `experiments.reported`: it records the warnings raised,
the runtime and a digest of the run's inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagnostics import check_apriori, identity_suite, trajectory_grashof
from .dynamics import PhysicsParams, SystemKind, SystemSpec
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
from .runconfig import ConfigError, RunConfig, load_config, sweep_spec
from .spectral import GridSpec, SpectralField, norm
from .storage import emit_diagnostics_csv, save_report, write_snapshot
from .timestepper import AdmissibilityError, BlowupError, SolverConfig, integrate

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


def _write_run_artifacts(traj, out_dir: Path) -> None:
    emit_diagnostics_csv(traj, out_dir / "diagnostics.csv")
    t_end = float(traj.times[-1])
    for name in sorted(traj.snapshots):
        write_snapshot(traj.final(name), t_end, out_dir / f"snapshot_{name}.bin")


def _require_kind(cfg: RunConfig, required: SystemKind) -> None:
    if cfg.system_kind is not None and cfg.system_kind is not required:
        raise ConfigError(
            f"this command runs the '{required.value}' system but the config "
            f"pins system.kind = '{cfg.system_kind.value}'"
        )


def _single_run(cfg: RunConfig, kind: SystemKind, name: str) -> ExperimentReport:
    _require_kind(cfg, kind)
    system = SystemSpec(kind, linear_only=cfg.linear_only)
    init = {"u": cfg.initial}
    if "v" in system.fields:
        init["v"] = (
            cfg.assimilated_initial
            if cfg.assimilated_initial is not None
            else SpectralField.zero(cfg.grid)
        )
    return _checked_run(
        name, system, init, cfg.physics, cfg.solver, not cfg.allow_inadmissible
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
        gap = norm(traj.final("u") - traj.final("v"))
        data["final_difference_l2"] = float(gap)
    verdicts = {"apriori_bounds": all(c.passed for c in checks)}
    return dict(name=name, verdicts=verdicts, data=data, checks=checks,
                artifacts={"trajectory": traj})


def _cmd_simulate(cfg, args):
    return _single_run(cfg, SystemKind.NSE, "simulate")


def _cmd_assimilate(cfg, args):
    return _single_run(cfg, SystemKind.DA, "assimilate")


def _cmd_sensitivity(cfg, args):
    return _single_run(cfg, SystemKind.NSE_SENS, "sensitivity")


def _cmd_dq_sweep(cfg, args):
    _require_kind(cfg, SystemKind.DQ_DIRECT)
    return run_dq_convergence(
        sweep_spec(cfg), cfg.physics, cfg.solver,
        ratio_window=cfg.experiment.get("ratio_window"),
    )


def _cmd_da_dq_sweep(cfg, args):
    _require_kind(cfg, SystemKind.DA_DQ_DIRECT)
    return run_da_dq_convergence(
        sweep_spec(cfg), cfg.physics, cfg.solver,
        v0=cfg.assimilated_initial,
        ratio_window=cfg.experiment.get("ratio_window"),
    )


def _cmd_sync(cfg, args):
    _require_kind(cfg, SystemKind.DA)
    exp = cfg.experiment
    v0 = (cfg.assimilated_initial if cfg.assimilated_initial is not None
          else SpectralField.zero(cfg.grid))
    return run_da_sync(
        cfg.physics, cfg.solver, cfg.initial, v0,
        decay_threshold=exp.get("decay_threshold", 1e-3),
        with_control=exp.get("with_control", True),
        control_floor=exp.get("control_floor", 0.1),
    )


def _cmd_switch(cfg, args):
    _require_kind(cfg, SystemKind.DA)
    exp = cfg.experiment
    for key in ("t_switch", "nu_new"):
        if key not in exp:
            raise ConfigError(f"switch needs experiment.{key}")
    return run_reynolds_switch(
        cfg.physics, cfg.solver, exp["t_switch"], exp["nu_new"],
        u0=cfg.initial, v0=cfg.assimilated_initial,
    )


def _cmd_taylor_green(cfg, args):
    if cfg is None:
        return run_taylor_green_suite()
    return run_taylor_green_suite(
        cfg.solver, grid=cfg.grid, nu=cfg.physics.nu1,
        deltas=cfg.experiment.get("deltas"),
        ratio_window=cfg.experiment.get("ratio_window", (0.4, 0.6)),
    )


def _cmd_verify(cfg, args):
    if cfg is None:
        return _verify(GridSpec(32), 100, 100, args.seed if args.seed is not None else 0)
    return _verify(
        cfg.grid,
        cfg.experiment.get("trials", 100),
        cfg.experiment.get("ensemble", 100),
        cfg.seed,
        taylor_green_args=(cfg.solver, cfg.grid, cfg.physics.nu1),
    )


@reported
def _verify(grid, trials, ensemble, seed, taylor_green_args=()) -> dict:
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


_COMMANDS = {
    "simulate": (_cmd_simulate, True, "integrate the plain flow"),
    "assimilate": (_cmd_assimilate, True, "integrate the nudged pair"),
    "sensitivity": (_cmd_sensitivity, True,
                    "integrate the flow and its viscosity sensitivity"),
    "dq-sweep": (_cmd_dq_sweep, True,
                 "difference-quotient convergence sweep"),
    "da-dq-sweep": (_cmd_da_dq_sweep, True,
                    "assimilated difference-quotient convergence sweep"),
    "sync": (_cmd_sync, True, "nudging synchronization experiment"),
    "switch": (_cmd_switch, True, "mid-run viscosity switch experiment"),
    "taylor-green": (_cmd_taylor_green, False, "closed-form oracle suite"),
    "verify": (_cmd_verify, False,
               "operator identities, interpolant bounds, and oracles"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ns2dsens",
        description="2D incompressible flow, nudging assimilation, and "
                    "viscosity-sensitivity experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
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
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, needs_config, _ = _COMMANDS[args.command]

    try:
        if args.config is None and needs_config:
            raise ConfigError(
                f"'{args.command}' requires --config PATH; "
                f"usage: ns2dsens {args.command} --config PATH [--out DIR] "
                f"[--seed INT] [--quiet]"
            )
        cfg = None
        if args.config is not None:
            cfg = load_config(args.config, seed_override=args.seed)
        out_dir = Path(
            args.out if args.out is not None
            else (cfg.output_dir if cfg is not None else "out")
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg is not None:
            (out_dir / "config_echo.yaml").write_text(cfg.echo(), encoding="utf-8")
    except (ConfigError, AdmissibilityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = handler(cfg, args)
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
