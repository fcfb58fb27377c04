"""Snapshot round-trip, corruption detection, and CSV determinism tests."""

import json
import struct
import zlib

import numpy as np
import pytest

from ns2dsens.dynamics import PhysicsParams, SystemKind, SystemSpec
from ns2dsens.experiments import ExperimentReport
from ns2dsens.spectral import GridSpec, SpectralField, random_field, taylor_green
from ns2dsens.storage import (
    SNAPSHOT_MAGIC,
    SnapshotFormatError,
    emit_diagnostics_csv,
    read_snapshot,
    save_report,
    write_snapshot,
)
from ns2dsens.timestepper import SolverConfig, Trajectory, integrate


class TestSnapshotRoundTrip:
    def test_bit_exact_over_random_fields(self, tmp_path):
        rng = np.random.default_rng(0)
        for n in (8, 16, 32):
            grid = GridSpec(n)
            for _ in range(5):
                field = random_field(grid, seed=int(rng.integers(2**31)),
                                     kmin=1, kmax=grid.cutoff)
                t = float(rng.uniform(0, 10))
                path = tmp_path / f"snap_{n}.bin"
                write_snapshot(field, t, path)
                back, t_back = read_snapshot(path)
                assert t_back == t
                assert back.grid.n == n
                assert np.array_equal(back.coeffs, field.coeffs)

    def test_expected_grid_accepted(self, tmp_path):
        grid = GridSpec(16)
        path = tmp_path / "s.bin"
        write_snapshot(taylor_green(grid), 0.5, path)
        back, _ = read_snapshot(path, grid=grid)
        assert back.grid is grid

    def test_header_layout(self, tmp_path):
        grid = GridSpec(8)
        path = tmp_path / "s.bin"
        write_snapshot(SpectralField.zero(grid), 2.0, path)
        raw = path.read_bytes()
        assert raw[:8] == SNAPSHOT_MAGIC
        assert len(raw) == 8 + 16 + 2 * 8 * 8 * 16 + 4


class TestSnapshotErrors:
    def _write(self, tmp_path):
        grid = GridSpec(8)
        path = tmp_path / "s.bin"
        write_snapshot(taylor_green(grid), 1.0, path)
        return path

    def test_corrupted_byte_fails_crc(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="CRC"):
            read_snapshot(path)

    def test_truncated_tail_fails_crc(self, tmp_path):
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        with pytest.raises(SnapshotFormatError, match="CRC"):
            read_snapshot(path)

    def test_truncated_header(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            read_snapshot(path)

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord(b"X")
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_dimension_mismatch_reports_both(self, tmp_path):
        path = self._write(tmp_path)
        with pytest.raises(SnapshotFormatError, match=r"N = 8.*N = 16"):
            read_snapshot(path, grid=GridSpec(16))

    @pytest.mark.parametrize("n", [0, 6, 7])
    def test_impossible_grid_size_is_a_format_error(self, tmp_path, n):
        # CRC-valid files whose payload length matches N: only N itself is bad.
        payload = struct.pack("<IId", 1, n, 0.0) + bytes(2 * n * n * 16)
        crc = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path = tmp_path / "s.bin"
        path.write_bytes(SNAPSHOT_MAGIC + payload + crc)
        with pytest.raises(SnapshotFormatError, match=rf"N = {n}\b"):
            read_snapshot(path)


def _small_run():
    grid = GridSpec(16)
    p = PhysicsParams(nu1=0.01, nu2=0.01)
    cfg = SolverConfig(dt=2e-3, t_end=0.1, sample_every=10)
    return integrate(SystemSpec(SystemKind.NSE), {"u": taylor_green(grid)}, p, cfg)


class TestDiagnosticsCsv:
    def test_header_and_shape(self, tmp_path):
        traj = _small_run()
        path = tmp_path / "d.csv"
        emit_diagnostics_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,field,l2,h1,h2"
        assert len(lines) == 1 + traj.n_samples

    def test_taylor_green_l2_column(self, tmp_path):
        traj = _small_run()
        path = tmp_path / "d.csv"
        emit_diagnostics_csv(traj, path)
        for line in path.read_text().splitlines()[1:]:
            t, name, l2, _, _ = line.split(",")
            assert name == "u"
            expect = np.exp(-8 * np.pi**2 * 0.01 * float(t)) / np.sqrt(2)
            assert float(l2) == pytest.approx(expect, rel=1e-6)

    def test_reemission_is_byte_identical(self, tmp_path):
        traj = _small_run()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_diagnostics_csv(traj, a)
        emit_diagnostics_csv(traj, b)
        assert a.read_bytes() == b.read_bytes()

    def test_time_major_field_secondary(self, tmp_path):
        grid = GridSpec(16)
        p = PhysicsParams(nu1=0.01, nu2=0.008)
        cfg = SolverConfig(dt=2e-3, t_end=0.02, sample_every=10)
        u0 = taylor_green(grid)
        traj = integrate(
            SystemSpec(SystemKind.DQ_DIRECT), {"u1": u0, "u2": u0}, p, cfg
        )
        path = tmp_path / "d.csv"
        emit_diagnostics_csv(traj, path)
        body = [line.split(",") for line in path.read_text().splitlines()[1:]]
        names = [row[1] for row in body]
        assert names[:3] == ["d", "u1", "u2"]
        times = [float(row[0]) for row in body]
        assert times == sorted(times)

    def test_empty_trajectory_header_only(self, tmp_path):
        traj = Trajectory(
            system=SystemSpec(SystemKind.NSE),
            params=PhysicsParams(nu1=0.01, nu2=0.01),
            config=SolverConfig(dt=1e-2, t_end=1e-2),
            times=np.zeros(0),
            snapshots={"u": ()},
            series={"u": np.zeros((0, 3))},
        )
        path = tmp_path / "d.csv"
        emit_diagnostics_csv(traj, path)
        assert path.read_text() == "t,field,l2,h1,h2\n"


class TestSaveReport:
    def test_json_round_trip(self, tmp_path):
        rep = ExperimentReport(
            "demo", {"ok": True}, data={"value": np.float64(1.5)}
        )
        path = tmp_path / "r.json"
        save_report(rep, path)
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "demo"
        assert loaded["passed"] is True
        assert loaded["data"]["value"] == 1.5
