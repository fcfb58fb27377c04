"""Acceptance gate: eleven numbered end-to-end criteria, one test line each.

Run with `pytest -v tests/test_acceptance.py` to see a pass/fail line per
criterion.  Expensive trajectories are shared between criteria through
module-scoped fixtures, so the whole gate runs in a couple of minutes on a
laptop while still exercising the stated resolutions and horizons.
"""

import dataclasses
import time

import numpy as np
import pytest
import yaml

from ns2dsens import (
    BoxAverage,
    DQSweepSpec,
    GridSpec,
    PhysicsParams,
    SolverConfig,
    SpectralProjection,
    admissibility,
    check_apriori,
    forcing_for_grashof,
    identity_suite,
    integrate,
    random_field,
    read_snapshot,
    run_da_dq_convergence,
    run_da_sync,
    run_dq_convergence,
    run_reynolds_switch,
    run_taylor_green_suite,
    step_convergence_order,
    taylor_green,
    taylor_green_flow,
    verify_bound,
    write_snapshot,
)
from ns2dsens.cli import main
from ns2dsens.dynamics import SystemKind, SystemSpec

NU = 0.01
GRID = GridSpec(32)
INTERP_K8 = SpectralProjection(modes=8)
SWEEP_CFG = SolverConfig(dt=1e-3, t_end=1.0, sample_every=25)


@pytest.fixture(scope="module")
def forcing():
    return forcing_for_grashof(GRID, NU, 1.0e3, seed=7)


@pytest.fixture(scope="module")
def tg_suite():
    return run_taylor_green_suite()


@pytest.fixture(scope="module")
def tg_sweep():
    spec = DQSweepSpec.halving(NU, taylor_green(GRID), levels=5)
    return run_dq_convergence(
        spec, PhysicsParams(nu1=NU, nu2=NU), SWEEP_CFG, ratio_window=(0.4, 0.6)
    )


@pytest.fixture(scope="module")
def forced_sweep(forcing):
    spec = DQSweepSpec.halving(
        NU, random_field(GRID, seed=11, kmin=1, kmax=6, l2_norm=0.5), levels=5
    )
    cfg = SolverConfig(dt=1e-3, t_end=0.5, sample_every=25)
    return run_dq_convergence(spec, PhysicsParams(nu1=NU, nu2=NU, forcing=forcing), cfg)


@pytest.fixture(scope="module")
def da_sweep():
    spec = DQSweepSpec.halving(NU, taylor_green(GRID), levels=5)
    p = PhysicsParams(nu1=NU, nu2=NU, mu=1.0, interp=INTERP_K8)
    return run_da_dq_convergence(spec, p, SWEEP_CFG)


@pytest.fixture(scope="module")
def sync_report(forcing):
    p = PhysicsParams(nu1=NU, nu2=NU, mu=50.0, interp=INTERP_K8, forcing=forcing)
    cfg = SolverConfig(dt=1e-3, t_end=2.0, sample_every=50)
    u0 = random_field(GRID, seed=2, kmin=1, kmax=6, l2_norm=1.0)
    v0 = random_field(GRID, seed=3, kmin=1, kmax=6, l2_norm=1.0)
    return run_da_sync(p, cfg, u0, v0, decay_threshold=1e-3, with_control=True)


@pytest.fixture(scope="module")
def switch_report(forcing):
    p = PhysicsParams(nu1=NU, nu2=NU, mu=2.0, interp=INTERP_K8, forcing=forcing)
    cfg = SolverConfig(dt=1e-3, t_end=4.0, sample_every=50)
    u0 = random_field(GRID, seed=2, kmin=1, kmax=6, l2_norm=1.0)
    v0 = random_field(GRID, seed=3, kmin=1, kmax=6, l2_norm=1.0)
    return run_reynolds_switch(p, cfg, t_switch=1.0, nu_new=0.005, u0=u0, v0=v0)


def test_01_operator_identity_suite():
    """Advective and projection identities hold to 1e-10 relative on 100
    seeded band-limited triples at n = 32 in under ten seconds."""
    start = time.perf_counter()
    report = identity_suite(GridSpec(32), trials=100, seed=2026)
    elapsed = time.perf_counter() - start
    assert report.trials >= 100
    assert report.passed
    assert elapsed < 10.0


def test_02_taylor_green_flow_oracle(tg_suite):
    """The integrated vortex matches its exponential decay to better than
    1e-5 relative at n = 64, dt = 1e-3 over a unit horizon, within 30 s."""
    assert tg_suite.data["grid_n"] == 64
    assert tg_suite.verdicts["flow_oracle"]
    assert tg_suite.data["flow_max_rel_error"] < 1e-5
    assert tg_suite.data["timings"]["flow_seconds"] < 30.0


def test_03_taylor_green_sensitivity_oracle(tg_suite):
    """The integrated sensitivity matches its closed form -8 pi^2 t u(t) to
    better than 1e-4 relative at the final time."""
    assert tg_suite.verdicts["sensitivity_oracle"]
    assert tg_suite.data["sensitivity_rel_error_at_T"] < 1e-4


def test_04_quotient_convergence_sweeps(tg_sweep, forced_sweep):
    """Halving the viscosity increment five times shrinks the quotient error
    strictly on both the vortex and a strongly forced flow; on the vortex the
    shrink ratio stays in [0.4, 0.6]; both sweeps finish within five minutes."""
    for report in (tg_sweep, forced_sweep):
        assert report.verdicts["sufficient_for_rate"]
        assert report.verdicts["errors_strictly_decreasing"]
        assert report.verdicts["quadrature_cadence_ok"]
    assert tg_sweep.verdicts["ratio_in_window"]
    assert all(0.4 <= r <= 0.6 for r in tg_sweep.data["ratios"])
    assert tg_sweep.runtime_seconds + forced_sweep.runtime_seconds < 300.0


def test_05_assimilated_quotient_convergence(da_sweep):
    """The same sweep through nudged copies observed on eight modes with unit
    gain converges as well, with the gain certified admissible up front and
    the whole sweep inside ten minutes."""
    assert admissibility(NU, 1.0, INTERP_K8, strict=True)
    assert da_sweep.verdicts["sufficient_for_rate"]
    assert da_sweep.verdicts["errors_strictly_decreasing"]
    assert da_sweep.data["mu"] == 1.0
    assert da_sweep.runtime_seconds < 600.0


def test_06_synchronization_decay(sync_report):
    """With gain 50 on eight observed modes the nudged copy closes a random
    initial gap by at least a factor of 1e3 over two time units with a
    negative fitted log-slope, while the zero-gain control does not."""
    assert sync_report.verdicts["synchronization_decay"]
    assert sync_report.data["decay_factor"] <= 1e-3
    assert sync_report.verdicts["decay_slope_negative"]
    assert sync_report.data["log_slope"] < 0.0
    assert sync_report.verdicts["control_no_comparable_decay"]
    assert sync_report.data["control_decay_factor"] > 0.1
    # gain 50 on eight modes exceeds the admissibility budget; the run is
    # demoted to a recorded warning rather than silently accepted
    assert any("Admissibility" in w for w in sync_report.data["warnings"])


def test_07_two_path_consistency(tg_sweep, forced_sweep, da_sweep):
    """At every sweep point the directly evolved quotient and the algebraic
    quotient of two runs agree within ten times the integrator tolerance."""
    for report in (tg_sweep, forced_sweep, da_sweep):
        assert report.verdicts["two_path_consistent"]
        tol = report.data["integrator_tolerance"]
        assert max(report.data["two_path_gaps"]) <= 10.0 * tol


def test_08_apriori_validators_and_corruption(
    tg_suite, tg_sweep, forced_sweep, da_sweep, sync_report, switch_report
):
    """Every accepted trajectory passes the energy, enstrophy, and dissipation
    validators, and an injected corruption makes them fail."""
    all_checks = []
    for report in (tg_suite, tg_sweep, forced_sweep, da_sweep, sync_report,
                   switch_report):
        assert report.verdicts.get("apriori_bounds", True)
        all_checks.extend(report.checks)
    assert len(all_checks) > 100
    assert all(c.passed for c in all_checks)

    cfg = SolverConfig(dt=2e-3, t_end=0.25, sample_every=5)
    traj = integrate(
        SystemSpec(SystemKind.NSE),
        {"u": taylor_green(GRID)},
        PhysicsParams(nu1=NU, nu2=NU),
        cfg,
    )
    # The validators read the run's per-step reductions: norms four times
    # larger from the middle on are squared sups and a dissipation integral
    # 16 times larger there.
    reductions = {k: v.copy() for k, v in traj.reductions.items()}
    half = reductions["u"][reductions["u"].shape[0] // 2 :]
    half[:, :3] *= 16.0
    half[:, 4] *= 16.0
    corrupted = dataclasses.replace(traj, reductions=reductions)
    assert any(not c.passed for c in check_apriori(corrupted))


def test_09_reynolds_switch_robustness(switch_report, forcing):
    """Halving the assimilated viscosity mid-run neither blows up nor breaks
    the piecewise bounds, and a no-op switch is bit-identical to not
    switching at all."""
    assert switch_report.verdicts["no_blowup"]
    assert switch_report.verdicts["piecewise_apriori"]
    names = {c.name for c in switch_report.checks}
    assert "pre_switch_v_h1_sup" in names
    assert "post_switch_v_h1_sup" in names
    assert all(row["strict_admissible"] for row in switch_report.table)

    p = PhysicsParams(nu1=NU, nu2=NU, mu=2.0, interp=INTERP_K8, forcing=forcing)
    cfg = SolverConfig(dt=1e-3, t_end=4.0, sample_every=50)
    u0 = random_field(GRID, seed=2, kmin=1, kmax=6, l2_norm=1.0)
    v0 = random_field(GRID, seed=3, kmin=1, kmax=6, l2_norm=1.0)
    noop = run_reynolds_switch(p, cfg, t_switch=1.0, nu_new=NU, u0=u0, v0=v0)
    plain = integrate(SystemSpec(SystemKind.DA), {"u": u0, "v": v0}, p, cfg)
    traj = noop.artifacts["trajectory"]
    assert traj.n_samples == plain.n_samples
    for name in ("u", "v"):
        for i in range(plain.n_samples):
            assert np.array_equal(
                traj.snapshot(name, i).coeffs, plain.snapshot(name, i).coeffs
            )


def test_10_interpolant_bound_certificates():
    """The coarse-observation error bound holds over 100-field ensembles for
    the spectral projection with c0 = 1/(4 pi^2) and the box average with
    c0 = 1/pi^2."""
    spectral = verify_bound(SpectralProjection(modes=16), GridSpec(64),
                            ensemble=100, seed=5)
    box = verify_bound(BoxAverage(boxes=8), GridSpec(64), ensemble=100, seed=6)
    assert spectral.ensemble == 100 and box.ensemble == 100
    assert spectral.passed
    assert spectral.c0 == pytest.approx(1.0 / (4.0 * np.pi**2))
    assert box.passed
    assert box.c0 == pytest.approx(1.0 / np.pi**2)


def test_11_infrastructure_determinism_and_order(tmp_path):
    """Snapshots round-trip bit-exactly, one config and seed reproduce
    byte-identical CSV output, and the measured stepping order on the vortex
    lies in [1.8, 2.2]."""
    field = random_field(GRID, seed=9, l2_norm=2.0)
    path = tmp_path / "state.bin"
    write_snapshot(field, 0.625, path)
    loaded, t = read_snapshot(path, grid=GRID)
    assert t == 0.625
    assert np.array_equal(loaded.coeffs, field.coeffs)
    twin = tmp_path / "state_twin.bin"
    write_snapshot(loaded, t, twin)
    assert twin.read_bytes() == path.read_bytes()

    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({
        "grid": {"n": 32},
        "physics": {"nu1": NU,
                    "forcing": {"kind": "grashof", "grashof": 1000.0}},
        "solver": {"dt": 2e-3, "t_end": 0.2, "sample_every": 10},
        "initial": {"kind": "random_solenoidal", "l2_norm": 0.5,
                    "kmin": 1, "kmax": 6},
        "seed": 12,
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(config), "--out", str(out1),
                 "--quiet"]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2),
                 "--quiet"]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == \
        (out2 / "diagnostics.csv").read_bytes()

    result = step_convergence_order(
        SystemSpec(SystemKind.NSE),
        {"u": taylor_green(GRID)},
        PhysicsParams(nu1=NU, nu2=NU),
        SolverConfig(dt=4e-3, t_end=0.5, sample_every=125),
        exact=lambda t: taylor_green_flow(GRID, NU, t),
    )
    assert 1.8 <= result.order <= 2.2
