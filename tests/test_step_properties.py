"""Property tests of the band-limited transforms, the kernel's workspace and a short run.

The transforms that skip the known zeros of a band half must give the bytes
of the plain two-dimensional real transforms.  The kernel forms its grid
values, product planes and spectra in per-thread buffers that it reuses
across calls and grids; what it returns must never change afterwards, must
not depend on which grids the buffers served before or on a kernel running
in another thread, and a warm call must allocate less than its own product
planes.  The integration runs over grids, systems and interpolants.  Grids
include multiples of 3 (the zero-padded product path) and box averages
whose box count divides the grid.  From full-spectrum initial data, every
sampled field (the ingested state and the state after each step) must be
conjugate-symmetric, mean-free, band-limited and divergence-free, and a
repeated run must reproduce the first bit for bit.
"""

import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec  # noqa: E402
from ns2dsens.interpolants import BoxAverage, SpectralProjection  # noqa: E402
from ns2dsens.spectral import (  # noqa: E402
    BandStack,
    GridSpec,
    SpectralField,
    _workspace,
    band_half,
    band_to_grid,
    bilinear,
    grid_to_band,
    random_field,
)
from ns2dsens.timestepper import AdmissibilityWarning, SolverConfig, integrate  # noqa: E402

# The products of the flow-sensitivity system: u . grad u, ut . grad u and
# u . grad ut.  B(u, u) forms two product planes and B(ut, u) three; its
# mirror B(u, ut) reads those three, so the kernel forms five in all.
SENS_PAIRS = [(0, 0), (1, 0), (0, 1)]
SENS_PLANES = 5


def transforms_against_plain(n, lead, seed):
    """band_to_grid and grid_to_band of random input, checked against irfft2 and rfft2."""
    grid = GridSpec(n)
    K, m = grid.cutoff, grid.product_n
    rng = np.random.default_rng(seed)
    shape = lead + (2, 2 * K + 1, K + 1)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    half = np.zeros(lead + (2, m, m // 2 + 1), dtype=np.complex128)
    half[..., : K + 1, : K + 1] = b[..., : K + 1, :]
    half[..., -K:, : K + 1] = b[..., K + 1 :, :]
    vals = band_to_grid(b, m)
    assert vals.tobytes() == np.fft.irfft2(half, s=(m, m), norm="forward").tobytes()
    values = rng.standard_normal(lead + (3, m, m))
    band = grid_to_band(values, K)
    assert band.tobytes() == band_half(np.fft.rfft2(values, norm="forward"), K).tobytes()
    return vals, band


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(4, 48).map(lambda h: 2 * h),
    lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    seed=st.integers(0, 2**16),
)
def test_band_limited_transforms_match_plain_real_transforms(n, lead, seed):
    transforms_against_plain(n, lead, seed)


def test_transforms_match_after_the_workspace_grows_and_shrinks():
    transforms_against_plain(256, (2,), 0)
    kept = [(r, r.copy()) for r in transforms_against_plain(24, (2,), 1)]
    for i, n in enumerate((24, 30, 96, 256, 32)):
        transforms_against_plain(n, (1 + i % 3,), i + 2)
    for result, copy in kept:
        assert result.tobytes() == copy.tobytes()
    # Views cached before a buffer grew are dropped with it, not kept alive.
    for (role, _, _), view in _workspace.views.items():
        assert np.shares_memory(view, _workspace.buffers[role])


def sens_stack(n, seed, rows=2):
    grid = GridSpec(n)
    return BandStack.of([random_field(grid, seed=seed + i, kmin=1, kmax=8) for i in range(rows)])


def written_out_products(stack, pairs):
    """The kernel's arithmetic per pair, all three planes formed anew for every pair."""
    grid = stack.grid
    K = grid.cutoff
    vals = band_to_grid(stack.coeffs, grid.product_n)
    planes = []
    for a, b in pairs:
        (ux, uy), (vx, vy) = vals[a], vals[b]
        planes += [vy * uy - vx * ux, vy * ux, vx * uy]
    t = grid_to_band(np.stack(planes), K).reshape(len(pairs), 3, 2 * K + 1, K + 1)
    q, r = grid.advective_factors
    w = q[0] * t[:, 0] + q[1] * t[:, 1] + q[2] * t[:, 2]
    return r * w[:, None]


@pytest.mark.parametrize("n", [24, 30, 32, 48])
@pytest.mark.parametrize("pairs", [
    SENS_PAIRS,
    [(0, 1), (1, 0)],
    [(1, 0), (0, 0), (2, 2), (0, 1)],
    [(2, 1), (1, 1), (1, 2), (2, 1), (0, 0), (1, 2), (0, 0)],
    # Operand rows read as views or gathered: self rows (1, 0) gathered with
    # cross rows u = 0..1, v = 1..2 as views; self rows 0..1 as a view with
    # cross rows u = (2, 1), v = (0, 2) gathered.
    [(0, 1), (1, 1), (0, 0), (1, 2)],
    [(2, 0), (0, 0), (1, 2), (1, 1)],
    # Evenly spaced rows read as strided views: self rows 0 and 2 with cross
    # rows u = (0, 2), v = (1, 3), as in a da_sens round; self rows 1 and 4
    # and cross rows u = (0, 2, 4) as views, with v = (3, 3, 0) gathered.
    [(0, 1), (0, 0), (2, 3), (2, 2), (3, 2)],
    [(1, 1), (0, 3), (4, 4), (2, 3), (4, 0)],
])
def test_mirror_and_repeated_pairs_match_pairs_formed_alone(n, pairs):
    # A mirror (b, a) or a repeat of a pair reads the planes the kernel
    # formed for the first of them.  Each product must be the bits of its
    # pair formed alone and of the same arithmetic written out with no
    # reuse, and each self-product's peak that of its own call.
    stack = sens_stack(n, n, rows=max(3, 1 + max(map(max, pairs))))
    out = bilinear(stack, pairs)
    bits = out.coeffs.view(np.int64)
    assert np.array_equal(bits, written_out_products(stack, pairs).view(np.int64))
    for got, pair in zip(bits, pairs, strict=True):
        assert np.array_equal(got, bilinear(stack, [pair]).coeffs[0].view(np.int64))
    alone = {a: bilinear(stack, [(a, a)]).peak_sq_speed[a] for a, b in pairs if a == b}
    assert out.peak_sq_speed == alone


def test_kept_products_survive_later_kernels_on_other_grids():
    stack = sens_stack(32, 1)
    kept = bilinear(stack, SENS_PAIRS)
    coeffs, peaks = kept.coeffs.copy(), dict(kept.peak_sq_speed)
    for n in (24, 32, 256, 32, 24):
        bilinear(sens_stack(n, n), SENS_PAIRS)
    assert kept.coeffs.tobytes() == coeffs.tobytes()
    assert kept.peak_sq_speed == peaks
    assert bilinear(stack, SENS_PAIRS).coeffs.tobytes() == coeffs.tobytes()


def test_concurrent_kernels_on_two_grids_match_serial_calls():
    stacks = [sens_stack(48, 2), sens_stack(64, 3)]
    want = [bilinear(s, SENS_PAIRS) for s in stacks]
    start = threading.Barrier(2, timeout=30)

    def run(i):
        start.wait()
        return [bilinear(stacks[i], SENS_PAIRS) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(run, range(2), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for serial, results in zip(want, got, strict=True):
        for res in results:
            assert res.coeffs.tobytes() == serial.coeffs.tobytes()
            assert res.peak_sq_speed == serial.peak_sq_speed


def test_warm_sensitivity_kernel_allocates_less_than_its_product_planes():
    grid = GridSpec(256)
    stack = sens_stack(grid.n, 4)
    bilinear(stack, SENS_PAIRS)
    tracemalloc.start()
    try:
        out = bilinear(stack, SENS_PAIRS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = grid.product_n
    assert peak < SENS_PLANES * m * m * 8 + out.coeffs.nbytes


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
            f.validate(require_band=True)
            scale = max(float(np.abs(f.coeffs).max()), 1.0)
            assert f.divergence_max() <= 1e-12 * scale
