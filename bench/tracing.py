"""In-memory span tracer that wraps ns2dsens functions at their import sites.

The benchmark measures the package from outside, so spans are recorded by
replacing module attributes and class attributes with timing wrappers; the
package itself is not edited.  A span is (layer, start, end, parent, op id);
spans are appended to flat arrays while an op is active and are written out
once, when the run ends.  Each layer's self time is its spans' durations
minus the part covered by their direct children.

Integrity rules: installing fails when a wrapped name no longer exists, and
`check_expected` fails when a layer expected on a workload recorded no span,
so a refactor shows up as a broken trace instead of a silent zero.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Two-dimensional and n-dimensional transforms; the one-dimensional ones are
# called internally by these and would be double counted.
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

# (layer, module, attribute path) for every import site that is wrapped.
SITES = (
    ("spectral.bilinear", "ns2dsens.dynamics", "bilinear"),
    ("spectral.leray_project", "ns2dsens.spectral", "leray_project"),
    ("spectral.leray_project", "ns2dsens.dynamics", "leray_project"),
    ("spectral.leray_project", "ns2dsens.timestepper", "leray_project"),
    ("spectral.leray_project", "ns2dsens.diagnostics", "leray_project"),
    ("spectral.norms", "ns2dsens.timestepper", "norms"),
    ("spectral.field_new", "ns2dsens.spectral", "SpectralField.__post_init__"),
    ("spectral.physical", "ns2dsens.spectral", "SpectralField.physical"),
    ("dynamics.explicit_rhs", "ns2dsens.dynamics", "SystemSpec.explicit_rhs"),
    ("interpolants.interpolate", "ns2dsens.dynamics", "interpolate"),
    ("interpolants.interpolate", "ns2dsens.diagnostics", "interpolate"),
    ("timestepper.integrate", "ns2dsens.timestepper", "integrate"),
    ("timestepper.integrate", "ns2dsens.experiments", "integrate"),
    ("timestepper.integrate", "ns2dsens.cli", "integrate"),
    ("diagnostics.check_apriori", "ns2dsens.experiments", "check_apriori"),
    ("diagnostics.check_apriori", "ns2dsens.cli", "check_apriori"),
    ("storage", "ns2dsens.cli", "emit_diagnostics_csv"),
    ("storage", "ns2dsens.cli", "write_snapshot"),
    ("storage", "ns2dsens.cli", "save_report"),
    ("experiments", "ns2dsens.experiments", "run_da_dq_convergence"),
    ("experiments", "ns2dsens.cli", "run_da_sync"),
    ("runconfig.load_config", "ns2dsens.cli", "load_config"),
    ("cli.main", "ns2dsens.cli", "main"),
)

LAYERS = tuple(sorted({layer for layer, _, _ in SITES} | {"spectral.fft"}))

# Root span of one workload operation; its self time is benchmark overhead.
OP_LAYER = "bench.op"


class TraceIntegrityError(RuntimeError):
    """The trace no longer matches the package it is meant to observe."""


def _fft_counts(args, kwargs, result, default_axes) -> tuple[int, int, int]:
    """(planes, points, bytes) of one multi-dimensional transform call.

    A plane is one transform over the transformed axes; points is the
    logical transform size, which for real transforms is the real side.
    Bytes are computed from array sizes: input plus output.
    """
    a = np.asarray(args[0])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else default_axes)
    logical = a if a.dtype.kind == "f" else result
    ndim = logical.ndim
    axes = range(ndim) if axes is None else [ax % ndim for ax in axes]
    per_plane = int(np.prod([logical.shape[ax] for ax in axes]))
    planes = logical.size // per_plane
    return planes, planes * per_plane, a.nbytes + result.nbytes


class Tracer:
    """Span recorder; `op_begin`/`op_end` bracket each traced workload op."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self._op = -1
        self.op_counts: list[Counter] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, layer: str) -> int:
        if layer not in self._layer_id:
            self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_id[layer]

    def _open(self, lid: int) -> int:
        i = len(self.end)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.op_counts[self._op][name] += amount

    def op_begin(self) -> None:
        self._op = len(self.op_counts)
        self.op_counts.append(Counter())
        self._open(self._id(OP_LAYER))

    def op_end(self) -> None:
        # An op that raised can leave spans open; close them at the op's end.
        while self._stack:
            self._close(self._stack[-1])
        self._op = -1

    def wrap(self, layer: str, fn, after=None):
        # The hot path is inlined with prebound methods: da_sweep_n32 records
        # tens of thousands of spans per op.
        tracer = self
        lid = self._id(layer)
        stack = self._stack
        end = self.end
        push_layer, push_parent = self.layer.append, self.parent.append
        push_op, push_end, push_start = self.op.append, self.end.append, self.start.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            op = tracer._op
            if op < 0:
                return fn(*args, **kwargs)
            i = len(end)
            push_layer(lid)
            push_parent(stack[-1] if stack else -1)
            push_op(op)
            push_end(0.0)
            stack.append(i)
            push_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, layer: str, after=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(layer, original, after))
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every site in SITES and every FFT entry point in use."""
        for layer, modname, path in SITES:
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            try:
                for name in parents:
                    owner = getattr(owner, name)
                getattr(owner, attr)
            except AttributeError as exc:
                raise TraceIntegrityError(
                    f"wrapped name {modname}.{path} no longer exists"
                ) from exc
            self._replace(owner, attr, layer, _AFTER.get(layer))

        fft_modules = [importlib.import_module("numpy.fft")]
        if "scipy.fft" in sys.modules:
            fft_modules.append(sys.modules["scipy.fft"])
        counters = {}
        for mod in fft_modules:
            for name in FFT_NAMES:
                if not hasattr(mod, name):
                    raise TraceIntegrityError(f"{mod.__name__}.{name} no longer exists")
                counters[id(getattr(mod, name))] = counter = _fft_counter(name)
                self._replace(mod, name, "spectral.fft", counter)
        # Names bound by `from numpy.fft import rfft2` inside the package.
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("ns2dsens") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in counters:
                    self._replace(mod, attr, "spectral.fft", counters[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- analysis --------------------------------------------------------

    def per_op(self) -> list[dict[str, dict[str, float]]]:
        """For each op: layer -> {'calls', 'self_s'}, plus its counters."""
        n = len(self.start)
        if n == 0:
            return []
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        n_ops = len(self.op_counts)
        n_layers = len(self.layers)
        key = op * n_layers + layer
        calls = np.bincount(key, minlength=n_ops * n_layers).reshape(n_ops, n_layers)
        selfs = np.bincount(key, weights=self_time, minlength=n_ops * n_layers)
        selfs = selfs.reshape(n_ops, n_layers)
        out = []
        for j in range(n_ops):
            row = {
                name: {"calls": int(calls[j, k]), "self_s": float(selfs[j, k])}
                for k, name in enumerate(self.layers)
            }
            row["counts"] = dict(self.op_counts[j])
            out.append(row)
        return out

    def write(self, path) -> None:
        """Write the recorded spans as one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            layers=np.asarray(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def check_expected(per_op: list[dict], expected: frozenset[str]) -> None:
    """Fail when an expected layer recorded no span in some traced op."""
    for j, row in enumerate(per_op):
        missing = sorted(x for x in expected if row.get(x, {}).get("calls", 0) == 0)
        if missing:
            raise TraceIntegrityError(
                f"traced op {j} recorded no span for expected layers {missing}"
            )


def _fft_counter(name: str):
    default_axes = (-2, -1) if name.endswith("2") else None

    def after(tracer: Tracer, args, kwargs, result) -> None:
        planes, points, nbytes = _fft_counts(args, kwargs, result, default_axes)
        tracer.count("spectral.fft.planes", planes)
        tracer.count("spectral.fft.points", points)
        tracer.count("spectral.fft.bytes_computed", nbytes)

    return after


def _count_bilinear(tracer: Tracer, args, kwargs, result) -> None:
    if result.grid.n % 3 == 0:
        tracer.count("spectral.bilinear.padded_calls", 1)


def _count_integrate(tracer: Tracer, args, kwargs, result) -> None:
    system, cfg = args[0], args[3]
    fields = len(system.fields)
    tracer.count("timestepper.field_steps", fields * cfg.n_steps)
    tracer.count("timestepper.samples", result.n_samples)
    tracer.count(
        "timestepper.snapshot_bytes",
        sum(f.coeffs.nbytes for snaps in result.snapshots.values() for f in snaps),
    )


def _count_storage(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("storage.bytes_written", os.path.getsize(args[-1]))


_AFTER = {
    "spectral.bilinear": _count_bilinear,
    "timestepper.integrate": _count_integrate,
    "storage": _count_storage,
}
