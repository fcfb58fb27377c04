"""Bit-exact snapshot files, diagnostics CSV, and JSON report persistence.

Snapshot layout, all little-endian:

    bytes 0..7    magic "NS2DSENS"
    bytes 8..11   format version, u32
    bytes 12..15  grid size N, u32
    bytes 16..23  sample time, f64
    then          2 * N * N complex coefficients, x component first then y,
                  each component in row-major FFT index order, every
                  coefficient an (f64 real, f64 imaginary) pair
    last 4 bytes  CRC32 (zlib) of everything between the magic and the CRC

Round trips are bit-exact: the coefficient bytes are written and read
verbatim.  The diagnostics CSV is deterministic text, time-major with field
names as the secondary sort key and 17 significant digits per float, so
re-emitting the same trajectory reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .spectral import GridSpec, SpectralField

SNAPSHOT_MAGIC = b"NS2DSENS"
SNAPSHOT_VERSION = 1

_HEADER = struct.Struct("<IId")
_CRC = struct.Struct("<I")


class SnapshotFormatError(ValueError):
    """A snapshot file failed structural validation."""


def write_snapshot(field: SpectralField, t: float, path) -> None:
    """Write one spectral field and its sample time to a snapshot file."""
    coeffs = np.ascontiguousarray(field.coeffs, dtype="<c16")
    payload = _HEADER.pack(SNAPSHOT_VERSION, field.grid.n, float(t))
    payload += coeffs.tobytes()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    Path(path).write_bytes(SNAPSHOT_MAGIC + payload + _CRC.pack(crc))


def read_snapshot(path, grid: GridSpec | None = None) -> tuple[SpectralField, float]:
    """Read a snapshot back; `grid`, when given, pins the expected size."""
    data = Path(path).read_bytes()
    floor = len(SNAPSHOT_MAGIC) + _HEADER.size + _CRC.size
    if len(data) < floor:
        raise SnapshotFormatError(
            f"truncated snapshot: {len(data)} bytes, header needs {floor}"
        )
    if data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"bad magic {data[:len(SNAPSHOT_MAGIC)]!r}, expected {SNAPSHOT_MAGIC!r}"
        )
    payload = data[len(SNAPSHOT_MAGIC) : -_CRC.size]
    (crc_stored,) = _CRC.unpack(data[-_CRC.size :])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise SnapshotFormatError("CRC mismatch: snapshot is corrupt or truncated")
    version, n, t = _HEADER.unpack_from(payload)
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version}, expected {SNAPSHOT_VERSION}"
        )
    try:
        file_grid = GridSpec(n)
    except ValueError as exc:
        raise SnapshotFormatError(f"impossible grid size N = {n}: {exc}") from exc
    if grid is not None and grid.n != n:
        raise SnapshotFormatError(
            f"dimension mismatch: snapshot has N = {n}, expected N = {grid.n}"
        )
    expected = _HEADER.size + 2 * n * n * 16
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"payload is {len(payload)} bytes, N = {n} requires {expected}"
        )
    coeffs = np.frombuffer(payload, dtype="<c16", offset=_HEADER.size)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(2, n, n)
    return SpectralField(grid if grid is not None else file_grid, coeffs), t


def emit_diagnostics_csv(traj, path) -> None:
    """Write the per-sample norm table of a trajectory as deterministic CSV."""
    rows = ["t,field,l2,h1,h2"]
    names = sorted(traj.series)
    times = np.asarray(traj.times)
    for i in range(len(times)):
        t = times[i]
        for name in names:
            l2, h1, h2 = traj.series[name][i]
            rows.append(f"{t:.17g},{name},{l2:.17g},{h1:.17g},{h2:.17g}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def save_report(report, path) -> None:
    """Persist an experiment report as pretty-printed JSON."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")
