"""Property tests of the band-limited transforms and of one short integration.

The transforms that skip the known zeros of a band half must give the bytes
of the plain two-dimensional real transforms.  The integration runs over
grids, systems and interpolants.  Grids include multiples of 3 (the
zero-padded product path) and box averages whose box count divides the grid.
From full-spectrum initial data, every sampled field (the ingested state and
the state after each step) must be conjugate-symmetric, mean-free,
band-limited and divergence-free, and a repeated run must reproduce the
first bit for bit.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec  # noqa: E402
from ns2dsens.interpolants import BoxAverage, SpectralProjection  # noqa: E402
from ns2dsens.spectral import (  # noqa: E402
    GridSpec,
    SpectralField,
    band_half,
    band_to_grid,
    grid_to_band,
    random_field,
)
from ns2dsens.timestepper import AdmissibilityWarning, SolverConfig, integrate  # noqa: E402


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(4, 48).map(lambda h: 2 * h),
    lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    seed=st.integers(0, 2**16),
)
def test_band_limited_transforms_match_plain_real_transforms(n, lead, seed):
    grid = GridSpec(n)
    K, m = grid.cutoff, grid.product_n
    rng = np.random.default_rng(seed)
    shape = lead + (2, 2 * K + 1, K + 1)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    half = np.zeros(lead + (2, m, m // 2 + 1), dtype=np.complex128)
    half[..., : K + 1, : K + 1] = b[..., : K + 1, :]
    half[..., -K:, : K + 1] = b[..., K + 1 :, :]
    want = np.fft.irfft2(half, s=(m, m), norm="forward")
    assert band_to_grid(b, m).tobytes() == want.tobytes()

    values = rng.standard_normal(lead + (3, m, m))
    want = band_half(np.fft.rfft2(values, norm="forward"), K)
    assert grid_to_band(values, K).tobytes() == want.tobytes()


@st.composite
def setups(draw):
    n = 2 * draw(st.integers(6, 24))
    kind = draw(st.sampled_from(list(SystemKind)))
    if draw(st.booleans()):
        interp = SpectralProjection(modes=draw(st.integers(1, n // 3)))
    else:
        divisors = [b for b in range(1, n + 1) if n % b == 0]
        interp = BoxAverage(boxes=draw(st.sampled_from(divisors)))
    return n, kind, interp, draw(st.integers(0, 2**16))


@settings(derandomize=True, deadline=None, database=None)
@given(setups())
def test_short_run_keeps_field_invariants_and_repeats(setup):
    n, kind, interp, seed = setup
    grid = GridSpec(n)
    system = SystemSpec(kind)
    p = PhysicsParams(
        nu1=0.01, nu2=0.007, mu=5.0, interp=interp,
        forcing=random_field(grid, seed=seed, kmin=1, kmax=4),
    )
    cfg = SolverConfig(dt=1e-3, t_end=3e-3, sample_every=1)
    # White-noise grid values: full-spectrum, compressible initial data that
    # ingestion must truncate to the band and project.
    rng = np.random.default_rng(seed)
    init = {
        name: SpectralField.from_physical(grid, 0.5 * rng.standard_normal((2, n, n)))
        for name in system.fields
        if name not in system.zero_default_fields
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibilityWarning)
        first = integrate(system, init, p, cfg, enforce_admissibility=False)
        again = integrate(system, init, p, cfg, enforce_admissibility=False)
    for name in system.fields:
        assert np.array_equal(first.series[name], again.series[name])
        for f, g in zip(first.snapshots[name], again.snapshots[name], strict=True):
            assert np.array_equal(f.coeffs, g.coeffs)
            f.validate(tol=1e-12, require_band=True)
            scale = max(float(np.abs(f.coeffs).max()), 1.0)
            assert f.divergence_max() <= 1e-12 * scale
