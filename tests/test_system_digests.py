"""Golden digests of a short run of every system, bit for bit.

Every `SystemKind`, with and without linear_only, at n = 24 (padded
products) and n = 32, and with box and with spectral nudging where the kind
nudges, is integrated over a few steps under a constant forcing.  The sample
arrays and norm series of each field, read as int64 so that every bit counts
(signed zeros included), are hashed and compared with
`tests/system_digests.json`.  pocketfft and numpy's SIMD loops may change
bits across numpy versions or CPUs, so the digests are compared only under
the numpy version and machine they were made with.  A change that moves
bits on purpose regenerates them with
`PYTHONPATH=src python tests/test_system_digests.py` and states the move.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec
from ns2dsens.interpolants import BoxAverage, SpectralProjection
from ns2dsens.spectral import GridSpec, random_field
from ns2dsens.timestepper import SolverConfig, integrate

DIGESTS = Path(__file__).resolve().parent / "system_digests.json"

# (mu, interpolant) of each nudging; both are admissible at nu2 = 0.04.
NUDGINGS = {"box": (5.0, BoxAverage(4)), "spectral": (20.0, SpectralProjection(3))}
NUDGED = {SystemKind.DA, SystemKind.DA_SENS, SystemKind.DA_DQ_DIRECT}
CASES = [(kind, linear_only, n, nudging)
         for kind in SystemKind for linear_only in (False, True) for n in (24, 32)
         for nudging in (NUDGINGS if kind in NUDGED else ["none"])]


def _case_id(kind, linear_only, n, nudging) -> str:
    return f"{kind.value}{' linear' if linear_only else ''} n={n} {nudging}"


def _digest(kind, linear_only, n, nudging) -> str:
    grid = GridSpec(n)
    mu, interp = NUDGINGS.get(nudging, (0.0, None))
    forcing = random_field(grid, seed=3, kmin=1, kmax=4, l2_norm=2.0)
    p = PhysicsParams(nu1=0.05, nu2=0.04, mu=mu, forcing=forcing, interp=interp)
    u0 = random_field(grid, seed=1, kmin=1, kmax=8, l2_norm=1.0)
    v0 = random_field(grid, seed=2, kmin=1, kmax=8, l2_norm=0.2)
    system = SystemSpec(kind, linear_only=linear_only)
    init = {name: u0 if row.role == "flow" else v0
            for name, row in system.rows.items() if row.role != "derivative"}
    traj = integrate(system, init, p, SolverConfig(dt=2e-3, t_end=8e-3, sample_every=2))
    h = hashlib.sha256()
    for name in system.fields:
        for values in (traj.snapshots[name].coeffs, traj.series[name]):
            h.update(np.ascontiguousarray(values).view(np.int64).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def golden():
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = {"numpy": np.__version__, "machine": platform.machine()}
    if here != {"numpy": golden["numpy"], "machine": golden["machine"]}:
        pytest.skip(f"digests were made under numpy {golden['numpy']} on {golden['machine']}, "
                    f"not numpy {here['numpy']} on {here['machine']}")
    return golden["digests"]


@pytest.mark.parametrize("case", CASES, ids=lambda case: _case_id(*case))
def test_run_digest_is_golden(golden, case):
    assert _digest(*case) == golden[_case_id(*case)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "machine": platform.machine(),
                                   "digests": {_case_id(*c): _digest(*c) for c in CASES}},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
