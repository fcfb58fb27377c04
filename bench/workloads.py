"""The three benchmark workloads: inputs from a seed, one op, its checks.

Every workload is a closed loop with one caller in one thread: the next op
starts when the previous one returns.  All ops of a run get identical inputs,
so their outputs must be bit-identical; a fingerprint of each op's outputs is
compared across the run.  The program receives only the generated inputs
(fields, forcing, a YAML file); it never sees the seed.

Counts labelled "computed" are derived here from the workload's configs and
the systems' field lists, not measured, and are bit-stable across runs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ns2dsens
from ns2dsens import cli, experiments, timestepper
from ns2dsens.dynamics import SystemKind, SystemSpec

NU = 0.01
DT = 1e-3
GRASHOF = 1.0e3
COEFF_BYTES = 16  # complex128


@dataclass(frozen=True)
class Integration:
    """One integrate() call of an op, as configured by the workload."""

    fields: int
    steps: int
    sample_every: int
    n: int
    unique_fields: int  # fields whose trajectory no other call of the op repeats

    @property
    def samples(self) -> int:
        return self.steps // self.sample_every + 1

    @property
    def snapshot_bytes(self) -> int:
        return self.fields * self.samples * 2 * self.n * self.n * COEFF_BYTES


def computed_counts(calls: list[Integration]) -> dict[str, float]:
    field_steps = sum(c.fields * c.steps for c in calls)
    unique = sum(c.unique_fields * c.steps for c in calls)
    return {
        "timestepper.field_steps": field_steps,
        "timestepper.snapshot_bytes_computed": sum(c.snapshot_bytes for c in calls),
        "experiments.unique_field_steps_ratio": unique / field_steps,
    }


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _warm_up(field) -> None:
    """Fill the grid's cached wavenumber tables and the FFT plan cache."""
    ns2dsens.spectral.bilinear(field, field)


class DaSweep:
    """Assimilated difference-quotient sweep at n = 32.

    Why: the costliest acceptance-fixture shape, six coupled fields at small
    n, where per-call numpy and Python overhead dominates and the nu1 flow is
    re-integrated L + 2 times per op.  Stresses SpectralField construction,
    Leray projection, norms, the explicit right-hand sides and the sweep runner's
    post-processing, which is where a stacked state or a batched sweep would
    show.  Bypasses the padded product path (32 % 3 != 0), physical-space
    interpolation and storage.
    """

    name = "da_sweep_n32"
    n = 32
    levels = 3
    t_end = 0.1
    sample_every = 5
    expected = frozenset({
        "spectral.bilinear", "spectral.fft", "spectral.field_new",
        "spectral.leray_project", "spectral.norms", "spectral.physical",
        "dynamics.explicit_rhs", "interpolants.interpolate",
        "timestepper.integrate", "diagnostics.check_apriori", "experiments",
    })

    def __init__(self, seed: int, workdir: Path) -> None:
        grid = ns2dsens.GridSpec(self.n)
        forcing = experiments.forcing_for_grashof(grid, NU, GRASHOF, seed=seed)
        u0 = ns2dsens.random_field(grid, seed=seed + 1, kmin=1, kmax=6, l2_norm=0.5)
        self.spec = ns2dsens.DQSweepSpec.halving(NU, u0, levels=self.levels)
        self.params = ns2dsens.PhysicsParams(
            nu1=NU, nu2=NU, mu=1.0, forcing=forcing,
            interp=ns2dsens.SpectralProjection(modes=8),
        )
        self.cfg = ns2dsens.SolverConfig(
            dt=DT, t_end=self.t_end, sample_every=self.sample_every
        )
        _warm_up(u0)

    def op(self):
        return experiments.run_da_dq_convergence(self.spec, self.params, self.cfg)

    def check(self, report) -> tuple[bool, str]:
        ref = report.artifacts["reference"]
        table = np.asarray(
            [[row["error"], row["two_path_gap"], row["cadence_dev"]] for row in report.table]
        )
        digest = _digest(
            table.tobytes(),
            np.float64(report.data["integrator_tolerance"]).tobytes(),
            *(ref.final(name).coeffs.tobytes() for name in sorted(ref.snapshots)),
        )
        return report.passed, digest

    def integrations(self) -> list[Integration]:
        steps = self.cfg.n_steps
        se = self.sample_every
        # The reference da_sens run, one da_dq_direct run per delta, and one
        # at dt / 2 for the integrator tolerance.  u1 and v1 of every
        # per-delta run repeat the reference's u and v.
        return (
            [Integration(4, steps, se, self.n, 4)]
            + [Integration(6, steps, se, self.n, 4)] * self.levels
            + [Integration(6, 2 * steps, 2 * se, self.n, 6)]
        )


class SensFlow:
    """Flow plus viscosity sensitivity at n = 256, sparsely sampled.

    Why: FFT-bound, three advective products over two fields on the native
    product grid (256 % 3 != 0), so changes to the advective kernel and to
    transform sharing show here while per-call overhead does not.  Stresses
    bilinear and the FFTs; bypasses nudging, interpolation, the experiment
    runners, the a-priori checks inside the op, and storage.
    """

    name = "sens_flow_n256"
    n = 256
    t_end = 0.01
    sample_every = 5
    identity_trials = 3
    expected = frozenset({
        "spectral.bilinear", "spectral.fft", "spectral.field_new",
        "spectral.leray_project", "spectral.norms", "spectral.physical",
        "dynamics.explicit_rhs", "timestepper.integrate",
    })

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.grid = ns2dsens.GridSpec(self.n)
        forcing = experiments.forcing_for_grashof(self.grid, NU, GRASHOF, seed=seed)
        self.u0 = ns2dsens.random_field(
            self.grid, seed=seed + 1, kmin=1, kmax=8, l2_norm=0.25
        )
        self.system = SystemSpec(SystemKind.NSE_SENS)
        self.params = ns2dsens.PhysicsParams(nu1=NU, nu2=NU, forcing=forcing)
        self.cfg = ns2dsens.SolverConfig(
            dt=DT, t_end=self.t_end, sample_every=self.sample_every
        )
        _warm_up(self.u0)

    def op(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = timestepper.integrate(self.system, {"u": self.u0}, self.params, self.cfg)
        return traj, caught

    def check(self, out) -> tuple[bool, str]:
        traj, caught = out
        cfl = [w for w in caught if issubclass(w.category, ns2dsens.CFLWarning)]
        checks = ns2dsens.check_apriori(traj)
        ok = not cfl and bool(checks) and all(c.passed for c in checks)
        digest = _digest(
            *(traj.final(name).coeffs.tobytes() for name in sorted(traj.snapshots)),
            *(traj.series[name].tobytes() for name in sorted(traj.series)),
        )
        return ok, digest

    def final_check(self) -> bool:
        """Operator identities at this grid size, at their unchanged tolerance."""
        report = ns2dsens.identity_suite(self.grid, trials=self.identity_trials, seed=self.seed)
        return report.passed

    def integrations(self) -> list[Integration]:
        return [Integration(2, self.cfg.n_steps, self.sample_every, self.n, 2)]


_SYNC_YAML = """\
grid: {{n: {n}}}
physics:
  nu1: {nu}
  mu: 5.0
  interpolant: {{kind: box_average, boxes: 8}}
  forcing: {{kind: grashof, grashof: {grashof}}}
solver: {{dt: {dt}, t_end: {t_end}, sample_every: 1}}
system: {{kind: da}}
initial: {{kind: random_solenoidal, kmin: 1, kmax: 6, l2_norm: 1.0}}
assimilated_initial: {{kind: random_solenoidal, kmin: 1, kmax: 6, l2_norm: 1.0}}
experiment: {{with_control: true, decay_threshold: {threshold}}}
seed: {seed}
"""


class CliSync:
    """`ns2dsens sync` at n = 48 with box-average nudging and a zero-gain control.

    Why: the same layers used differently.  48 % 3 == 0 sends bilinear down
    the padded product path, the box average round-trips through physical
    space, and sampling every step makes CFL checks, norms, snapshot
    retention, the a-priori checks and storage hot and memory large, so a
    per-step optimisation that adds per-sample cost shows here.  Also the
    only workload that loads a config and writes artifacts.  Bypasses the
    quotient and sensitivity systems.
    """

    name = "cli_sync_box_n48"
    n = 48
    t_end = 0.3
    # Synchronization decays |u - v| by about 0.15 over t = 0.3 on this
    # setup; the zero-gain control keeps it above 0.3.
    decay_threshold = 0.25
    expected = frozenset({
        "spectral.bilinear", "spectral.fft", "spectral.field_new",
        "spectral.leray_project", "spectral.norms", "spectral.physical",
        "dynamics.explicit_rhs", "interpolants.interpolate",
        "timestepper.integrate", "diagnostics.check_apriori", "experiments",
        "storage", "runconfig.load_config", "cli.main",
    })

    def __init__(self, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "sync.yaml"
        self.out = workdir / "out"
        self.config.write_text(
            _SYNC_YAML.format(
                n=self.n, nu=NU, grashof=GRASHOF, dt=DT, t_end=self.t_end,
                threshold=self.decay_threshold, seed=seed,
            ),
            encoding="utf-8",
        )
        run = ns2dsens.load_config(self.config)
        self.steps = run.solver.n_steps
        _warm_up(run.initial)

    def op(self) -> int:
        return cli.main(
            ["sync", "--config", str(self.config), "--out", str(self.out), "--quiet"]
        )

    def check(self, code: int) -> tuple[bool, str]:
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        artifacts = sorted(self.out.glob("snapshot_*.bin"))
        digest = _digest(
            (self.out / "diagnostics.csv").read_bytes(),
            *(path.read_bytes() for path in artifacts),
        )
        shutil.rmtree(self.out)
        return code == 0 and report["passed"] is True and len(artifacts) == 2, digest

    def integrations(self) -> list[Integration]:
        # The nudged pair and the zero-gain control; the control's u repeats
        # the nudged run's reference flow.
        return [Integration(2, self.steps, 1, self.n, 2), Integration(2, self.steps, 1, self.n, 1)]


WORKLOADS = {w.name: w for w in (DaSweep, SensFlow, CliSync)}
