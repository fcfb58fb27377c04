"""Pinned certificate records: identity suites and a-priori checks, bit for bit.

Every record (name, lhs, rhs and margin as `float.hex`, tolerance, passed) of
three identity suites with their advective constants, and of `check_apriori`
on every `SystemKind` with no nudging, box nudging and spectral nudging at
n = 24 (padded products) and n = 32, plain and with overriding parameters and
a label, is hashed and compared with `tests/certificate_pins.json`.  The
values come from numpy's generator and FFT, so they are compared only under
the numpy version and machine the pins were made with.  After a deliberate
change, regenerate the pins with `PYTHONPATH=src python tests/test_certificates.py`
and state which records moved.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from ns2dsens.diagnostics import check_apriori, identity_suite
from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec
from ns2dsens.interpolants import BoxAverage, SpectralProjection
from ns2dsens.spectral import GridSpec, random_field
from ns2dsens.timestepper import SolverConfig, integrate

PINS = Path(__file__).resolve().parent / "certificate_pins.json"

IDENTITY_CASES = [(24, 7, 1), (32, 10, 2026), (48, 3, 5)]  # (n, trials, seed)
# name: (mu, interpolant) of the run and of the overriding parameters.
NUDGINGS = {"none": (0.0, None), "box": (5.0, BoxAverage(4)),
            "spectral": (50.0, SpectralProjection(3))}
# nu1, nu2 of the run keep every nudged row admissible, and some strictly;
# the overriding pair makes some rows inadmissible and others strict.
RUN_NU, OVERRIDE_NU = (0.5, 0.1), (0.02, 0.3)
APRIORI_CASES = [(kind, nudging, n) for kind in SystemKind for nudging in NUDGINGS
                 for n in (24, 32)]


def _records(checks) -> list:
    return [[c.name, c.lhs.hex(), c.rhs.hex(), c.margin.hex(), c.tolerance, c.passed]
            for c in checks]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _identity_pin(n, trials, seed) -> str:
    report = identity_suite(GridSpec(n), trials=trials, seed=seed)
    constant = report.empirical["advective_inequality_constant"]
    return _digest([_records(report.checks), constant.hex()])


def _apriori_pins(kind, nudging, n) -> dict:
    """Digests of the plain checks and of the checks under overriding parameters."""
    grid = GridSpec(n)
    mu, interp = NUDGINGS[nudging]
    forcing = random_field(grid, seed=3, kmin=1, kmax=4, l2_norm=1.0)
    p = PhysicsParams(*RUN_NU, mu=mu, forcing=forcing, interp=interp)
    u0 = random_field(grid, seed=1, kmin=1, kmax=6, l2_norm=0.5)
    v0 = random_field(grid, seed=2, kmin=1, kmax=6, l2_norm=0.1)
    system = SystemSpec(kind)
    init = {name: u0 if row.role == "flow" else v0
            for name, row in system.rows.items() if row.role != "derivative"}
    traj = integrate(system, init, p, SolverConfig(dt=1e-3, t_end=0.05, sample_every=5))
    q = PhysicsParams(*OVERRIDE_NU, mu=mu, forcing=forcing, interp=interp)
    return {"plain": _digest(_records(check_apriori(traj))),
            "override": _digest(_records(check_apriori(traj, q, label="w_")))}


def _pins() -> dict:
    pins = {f"identity n={n} trials={t} seed={s}": _identity_pin(n, t, s)
            for n, t, s in IDENTITY_CASES}
    for kind, nudging, n in APRIORI_CASES:
        for role, digest in _apriori_pins(kind, nudging, n).items():
            pins[f"apriori {kind.value} {nudging} n={n} {role}"] = digest
    return pins


@pytest.fixture(scope="module")
def pins():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    here = {"numpy": np.__version__, "machine": platform.machine()}
    if here != {"numpy": pins["numpy"], "machine": pins["machine"]}:
        pytest.skip(f"certificates pinned under numpy {pins['numpy']} on {pins['machine']}, "
                    f"not numpy {here['numpy']} on {here['machine']}")
    return pins["records"]


@pytest.mark.parametrize("n, trials, seed", IDENTITY_CASES)
def test_identity_suite_records_match_pins(pins, n, trials, seed):
    assert _identity_pin(n, trials, seed) == pins[f"identity n={n} trials={trials} seed={seed}"]


@pytest.mark.parametrize("kind, nudging, n", APRIORI_CASES)
def test_apriori_records_match_pins(pins, kind, nudging, n):
    got = _apriori_pins(kind, nudging, n)
    for role in ("plain", "override"):
        assert got[role] == pins[f"apriori {kind.value} {nudging} n={n} {role}"], role


if __name__ == "__main__":
    from pin_files import rewrite

    rewrite(PINS, "records", _pins())
