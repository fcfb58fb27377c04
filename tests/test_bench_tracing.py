"""Contract between the package and the benchmark's span tracer in bench/.

The tracer wraps package functions by name at their import sites.  This test
installs it as the benchmark does, on a small flow-plus-sensitivity run, so
that a rename or a removed call site fails here rather than in a benchmark
run.  It only reads bench/.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ns2dsens import timestepper
from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec
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


def test_sens_flow_layers_record_spans(bench):
    tracing, workloads = bench
    grid = GridSpec(32)
    u0 = random_field(grid, seed=3, kmin=1, kmax=6, l2_norm=0.25)
    p = PhysicsParams(nu1=0.01, nu2=0.01)
    steps, sample_every = 4, 2
    cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3, sample_every=sample_every)

    sites = [(modname, path) for _, modname, path in tracing.SITES]
    originals = [resolve(*site) for site in sites]
    tracer = tracing.Tracer()
    tracer.install()  # raises TraceIntegrityError when a wrapped name is gone
    try:
        for site, original in zip(sites, originals):
            assert resolve(*site).__wrapped__ is original, f"{site} is not wrapped"
        tracer.op_begin()
        timestepper.integrate(SystemSpec(SystemKind.NSE_SENS), {"u": u0}, p, cfg)
        tracer.op_end()
    finally:
        tracer.uninstall()

    assert [resolve(*site) for site in sites] == originals
    (row,) = tracer.per_op()
    tracing.check_expected([row], workloads.SensFlow.expected)

    # Each right-hand-side round (every step plus the Heun midpoint) makes
    # three products over u and ut: each field goes to the grid once (two
    # planes), B(u, u) comes back in two planes and the two cross products in
    # three each.  Each CFL check adds the two planes of u's speed.
    rounds = steps + 1
    samples = steps // sample_every
    assert row["spectral.bilinear"]["calls"] == 3 * rounds
    assert row["counts"]["spectral.fft.planes"] == 12 * rounds + 2 * samples
