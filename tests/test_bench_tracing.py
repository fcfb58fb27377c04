"""Contract between the package and the benchmark's span tracer in bench/.

The tracer wraps package functions by name at their import sites.  These
tests install it as the benchmark does, on a small flow-plus-sensitivity run,
on a small box-nudged run with its a-priori checks, on a small assimilated
quotient sweep and on one op of two unmodified benchmark workloads, so that a
rename, a removed call site or a changed integration fails here rather than
in a benchmark run.  One op of each of the three workloads is also digested
and compared with committed values, so a change that moves any bit of their
outputs fails here.  They only read bench/.
"""

import importlib.util
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from ns2dsens import experiments, timestepper
from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec
from ns2dsens.experiments import DQSweepSpec
from ns2dsens.interpolants import BoxAverage, SpectralProjection
from ns2dsens.spectral import GridSpec, random_field
from ns2dsens.timestepper import SolverConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


def resolve(modname, path):
    owner = importlib.import_module(modname)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


@pytest.fixture(scope="module")
def bench():
    return load_bench_module("tracing"), load_bench_module("workloads")


def traced_op(tracing, op):
    """Per-op trace row of one call of op, with the tracer installed around it."""
    sites = [(modname, path) for _, modname, path in tracing.SITES]
    originals = [resolve(*site) for site in sites]
    tracer = tracing.Tracer()
    tracer.install()  # raises TraceIntegrityError when a wrapped name is gone
    try:
        for site, original in zip(sites, originals):
            assert resolve(*site).__wrapped__ is original, f"{site} is not wrapped"
        tracer.op_begin()
        op()
        tracer.op_end()
    finally:
        tracer.uninstall()

    assert [resolve(*site) for site in sites] == originals
    (row,) = tracer.per_op()
    return row


def test_sens_flow_layers_record_spans(bench):
    tracing, workloads = bench
    grid = GridSpec(32)
    u0 = random_field(grid, seed=3, kmin=1, kmax=6, l2_norm=0.25)
    p = PhysicsParams(nu1=0.01, nu2=0.01)
    steps, sample_every = 4, 2
    cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3, sample_every=sample_every)

    row = traced_op(
        tracing, lambda: timestepper.integrate(SystemSpec(SystemKind.NSE_SENS), {"u": u0}, p, cfg)
    )
    tracing.check_expected([row], workloads.SensFlow.expected)

    # Each right-hand-side round (every step plus the Heun midpoint) is one
    # stacked bilinear call making three products over u and ut.  A plane is
    # one line of a single-axis transform.  The inverse takes the 2 fields x
    # 2 components = 4 planes through the kx pass on the K + 1 band columns
    # and the ky pass on all m rows; the product planes take the ky pass on
    # m rows and the kx pass on K + 1 columns.  B(u, u) forms 2 planes,
    # B(ut, u) forms 3, and its mirror B(u, ut) reads those 3 with Tyx and
    # Txy swapped, so a round transforms 2 + 3 = 5 product planes and counts
    # (4 + 5) (m + K + 1) lines, with m = n = 32 and K = 10.  The first
    # round of each step reads the CFL estimate of the state it advances off
    # B(u, u)'s planes, with no transform; only the final state, which no
    # round sees, is checked through `physical`: the two planes of u's
    # `irfft2`, once per run.
    rounds = steps + 1
    m, K = grid.product_n, grid.cutoff
    assert row["spectral.bilinear"]["calls"] == rounds
    assert row["counts"]["spectral.fft.planes"] == 9 * (m + K + 1) * rounds + 2
    # The final check expands the advecting rows only: u, not its
    # sensitivity ut.  Reading the trajectory calls `physical` never.
    assert row["spectral.physical"]["calls"] == 1



@pytest.mark.parametrize("n", [24, 32])
def test_assimilated_sensitivity_round_counts(bench, n):
    tracing, _ = bench
    grid = GridSpec(n)
    init = {
        "u": random_field(grid, seed=7, kmin=1, kmax=6, l2_norm=0.25),
        "v": random_field(grid, seed=8, kmin=1, kmax=6, l2_norm=0.25),
    }
    p = PhysicsParams(nu1=0.01, nu2=0.01, mu=1.0, interp=SpectralProjection(modes=4))
    steps = 4
    cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3, sample_every=2)

    row = traced_op(
        tracing, lambda: timestepper.integrate(SystemSpec(SystemKind.DA_SENS), init, p, cfg)
    )
    # Per round, the inverse takes 4 fields x 2 components = 8 planes.  The
    # forward takes 2 planes for each of B(u, u) and B(v, v) and 3 for each
    # of B(ut, u) and B(vt, v); their mirrors B(u, ut) and B(v, vt) read
    # those planes and transform none: 8 + 10 = 18 planes, each through
    # (m + K + 1) single-axis lines.  The final check adds the two planes of
    # each advecting row's `irfft2`, u and v.
    rounds = steps + 1
    m, K = grid.product_n, grid.cutoff
    assert row["spectral.bilinear"]["calls"] == rounds
    assert row["spectral.physical"]["calls"] == 2
    assert row["counts"]["spectral.fft.planes"] == 18 * (m + K + 1) * rounds + 4

def test_box_nudged_round_and_checks_counts(bench):
    tracing, _ = bench
    grid = GridSpec(24)  # divisible by 3: the padded product grid, m = 26
    init = {
        "u": random_field(grid, seed=4, kmin=1, kmax=6, l2_norm=0.25),
        "v": random_field(grid, seed=5, kmin=1, kmax=6, l2_norm=0.25),
    }
    p = PhysicsParams(nu1=0.01, nu2=0.01, mu=1.0, interp=BoxAverage(boxes=8))
    steps = 70
    cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3, sample_every=1)

    def op():
        traj = timestepper.integrate(SystemSpec(SystemKind.DA), init, p, cfg)
        experiments.check_apriori(traj)

    row = traced_op(tracing, op)
    # Each round (every step plus the Heun midpoint) makes one `interpolate`
    # call on the band halves of the difference u - v, which nudges v, and
    # of u, which gives v's source |f + mu P I_h(u)|; it runs no transform.
    # The final state, which no round sees, gets its source from one more
    # such call.  The a-priori checks read the run's reductions and make
    # none: rounds + 1 calls, whatever the sample count.
    rounds = steps + 1
    m, K = grid.product_n, grid.cutoff
    assert row["spectral.bilinear"]["calls"] == rounds
    assert row["interpolants.interpolate"]["calls"] == rounds + 1
    # The rounds read the CFL estimate off B(u, u) and B(v, v); the final
    # state alone is checked by expanding both advecting rows, u and v, once
    # each.  Nothing else, interpolation included, reaches `physical`.
    assert row["spectral.physical"]["calls"] == 2
    # Per round, the stacked bilinear's inverse takes 2 fields x 2
    # components = 4 planes and its forward the 2 + 2 planes of B(u, u) and
    # B(v, v), each through (m + K + 1) single-axis lines; the final check
    # adds the two planes of each advecting row's `irfft2`.
    assert row["counts"]["spectral.fft.planes"] == 8 * (m + K + 1) * rounds + 4


@pytest.mark.parametrize("n", [16, 24])
def test_da_sweep_runs_two_integrations(bench, n):
    tracing, workloads = bench
    grid = GridSpec(n)
    levels = 3
    spec = DQSweepSpec.halving(0.01, random_field(grid, seed=6, kmin=1, kmax=4), levels=levels)
    p = PhysicsParams(nu1=0.01, nu2=0.01, mu=1.0, interp=SpectralProjection(modes=4))
    steps = 4
    cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3, sample_every=2)

    row = traced_op(tracing, lambda: experiments.run_da_dq_convergence(spec, p, cfg))
    tracing.check_expected([row], workloads.DaSweep.expected)
    # Whatever the number of deltas, the sweep is one batched integration of
    # N steps at dt, the nu1 rows once and one copy of the quotient rows per
    # viscosity, and the half-step tolerance run of 2N steps at dt / 2.  Each
    # makes one stacked bilinear call per round, every step plus the Heun
    # midpoint: (N + 1) + (2N + 1) rounds.
    assert row["timestepper.integrate"]["calls"] == 2
    assert row["spectral.bilinear"]["calls"] == (steps + 1) + (2 * steps + 1)
    # The batched stack has 4 + 4L rows: u1 and v1, copy 0's d_0 and dp_0
    # (its flows are u1 and v1 themselves), and u2_j, d_j, v2_j, dp_j for
    # each of the L deltas.  Per round its inverse takes 2 planes a row,
    # 8 + 8L.  Its forward takes 2 planes for each of the 2 + 2L
    # self-products; 3 for each of d_0 and dp_0, whose pairs are a mirror
    # pair; and 6 for each of d_j and dp_j: 10 + 16L.  The unbatched
    # half-step stack (u1, u2, d, v1, v2, dp) takes 12 inverse and
    # 8 + 12 forward planes.  Every plane runs through (m + K + 1)
    # single-axis lines.  The final-state CFL checks expand every advecting
    # row with one `physical` call of 2 planes: 2(L + 1) rows, then 4.
    rounds, half_rounds = steps + 1, 2 * steps + 1
    m, K = grid.product_n, grid.cutoff
    planes = ((18 + 24 * levels) * rounds + 32 * half_rounds) * (m + K + 1)
    assert row["counts"]["spectral.fft.planes"] == planes + 4 * (levels + 1) + 8
    assert row["spectral.physical"]["calls"] == 2 * (levels + 1) + 4
    # Each run makes one `interpolate` call per round, which nudges its
    # nudged rows and observes its assimilated rows' references for their
    # sources, and one more for its final state's sources: (N + 1) + 1 for
    # the batched run and (2N + 1) + 1 for the half-step run.  The a-priori
    # checks of the batched run read its reductions and make none.
    assert row["interpolants.interpolate"]["calls"] == (rounds + 1) + (half_rounds + 1)


# da_sweep_n32 is left out: its `integrations()` still describes the L + 2
# runs of the unbatched sweep, not the two the sweep now makes, so the
# field-steps cross-check fails on it until the harness describes them.
@pytest.mark.parametrize("name", ["sens_flow_n256", "cli_sync_box_n48"])
def test_workload_op_meets_traced_run_contract(bench, monkeypatch, tmp_path, name):
    # One traced op of the workload, checked as a traced benchmark run checks
    # its ops: every expected layer records a span, and `layer_metrics`
    # raises unless the traced field steps and snapshot bytes equal the
    # counts computed from the workload's integrations (their rows, steps
    # and samples).
    tracing, workloads = bench
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    worker = load_bench_module("worker")
    workload = workloads.WORKLOADS[name](901, tmp_path / "work")
    outputs = []
    row = traced_op(tracing, lambda: outputs.append(workload.op()))
    tracing.check_expected([row], workload.expected)
    worker.layer_metrics([row], workloads.computed_counts(workload.integrations()))
    ok, _ = workload.check(outputs[0])
    assert ok


@pytest.mark.parametrize("name", ["sens_flow_n256", "cli_sync_box_n48"])
def test_workload_op_repeats_bit_for_bit(bench, tmp_path, name):
    # Two untraced ops of one workload instance, as a benchmark run makes
    # them: sens_flow_n256 reuses its PhysicsParams, and with it the forcing
    # band half the first op formed; cli_sync_box_n48 loads its config anew.
    _, workloads = bench
    workload = workloads.WORKLOADS[name](901, tmp_path / "work")
    (ok, first), (again, second) = (workload.check(workload.op()) for _ in range(2))
    assert ok and again
    assert first == second


# First 16 hex digits of each workload's op digest (its `check`) at seed 901,
# and the numpy version and machine they were computed under: pocketfft and
# numpy's SIMD loops may change bits across numpy versions or CPUs.  A change
# that moves bits on purpose updates these values and states the move.
GOLDEN_ENV = {"numpy": "2.4.6", "machine": "x86_64"}
GOLDEN_DIGESTS = {
    "sens_flow_n256": "d52b25062ea21ad7",
    "cli_sync_box_n48": "914560add66e71fe",
    "da_sweep_n32": "f3231fc37b6feeee",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_workload_op_digest_is_golden(bench, tmp_path, name):
    here = {"numpy": np.__version__, "machine": platform.machine()}
    if here != GOLDEN_ENV:
        pytest.skip(f"golden digests were computed under numpy {GOLDEN_ENV['numpy']} on "
                    f"{GOLDEN_ENV['machine']}, not numpy {here['numpy']} on {here['machine']}")
    _, workloads = bench
    workload = workloads.WORKLOADS[name](901, tmp_path / "work")
    ok, digest = workload.check(workload.op())
    assert ok
    assert digest[:16] == GOLDEN_DIGESTS[name]
