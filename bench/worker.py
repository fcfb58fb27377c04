"""One benchmark process: set up one workload, run its closed loop, report.

Started by run.py, never by hand.  `--spawned-at` is the parent's monotonic
clock just before it started this process, so the reported set-up time runs
from process start to the first timed op and covers interpreter start,
imports, input generation, grid caches and one warm-up advective product.
With `--setup-only` the process stops there.  The result is one JSON line on
standard output.
"""

from __future__ import annotations

import time

_T_IMPORT = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Exact counts: every traced op does the same work, so these must agree
# between ops, and between runs.
EXACT_COUNTS = (
    "spectral.fft.planes",
    "spectral.fft.points",
    "spectral.fft.bytes_computed",
    "spectral.bilinear.padded_calls",
    "timestepper.field_steps",
    "timestepper.samples",
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_package():
    """Import ns2dsens from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ns2dsens

    if Path(ns2dsens.__file__).resolve().parent != (src / "ns2dsens").resolve():
        raise ImportError(f"ns2dsens imported from {ns2dsens.__file__}, not {src}")


def run_loop(workload, seconds: float, tracer=None) -> list[dict]:
    """Closed loop: run ops back to back until `seconds` have passed.

    With a tracer, ops alternate between untraced and traced, so that drift
    in machine speed affects both halves alike; the wrappers are installed
    only around traced ops.
    """
    records = []
    start = monotonic()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.install()
            tracer.op_begin()
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = None
        try:
            out = workload.op()
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            if traced:
                tracer.op_end()
                tracer.uninstall()
        ok, digest = False, None
        if out is not None:
            try:
                ok, digest = workload.check(out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        records.append(
            {"wall_s": wall, "cpu_s": cpu, "ok": ok, "digest": digest, "traced": traced}
        )
        if monotonic() - start >= seconds and (tracer is None or len(records) >= 4):
            return records


def count_failures(records: list[dict]) -> int:
    """Ops that failed their check or differ from the run's common output."""
    digests = Counter(r["digest"] for r in records if r["ok"])
    common = digests.most_common(1)[0][0] if digests else None
    return sum(1 for r in records if not r["ok"] or r["digest"] != common)


def layer_metrics(per_op: list[dict], computed: dict) -> dict:
    """Per-op layer figures from the traced ops; exact counts must agree."""
    import tracing

    def same(values, what):
        if len(set(values)) != 1:
            raise tracing.TraceIntegrityError(f"{what} differs between traced ops: {values}")
        return values[0]

    out = {}
    for layer in tracing.LAYERS:
        calls = same([row.get(layer, {}).get("calls", 0) for row in per_op], f"{layer} calls")
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = statistics.median(
            row.get(layer, {}).get("self_s", 0.0) for row in per_op
        )
    for name in EXACT_COUNTS:
        out[name] = same([row["counts"].get(name, 0) for row in per_op], name)
    out["storage.bytes_written"] = statistics.median(
        row["counts"].get("storage.bytes_written", 0) for row in per_op
    )
    if out["timestepper.field_steps"] != computed["timestepper.field_steps"]:
        raise tracing.TraceIntegrityError(
            f"traced field steps {out['timestepper.field_steps']} != computed "
            f"{computed['timestepper.field_steps']}"
        )
    snapshot_bytes = same(
        [row["counts"].get("timestepper.snapshot_bytes", 0) for row in per_op],
        "timestepper.snapshot_bytes",
    )
    if snapshot_bytes != computed["timestepper.snapshot_bytes_computed"]:
        raise tracing.TraceIntegrityError(
            f"traced snapshot bytes {snapshot_bytes} != computed "
            f"{computed['timestepper.snapshot_bytes_computed']}"
        )
    out.update(computed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # numpy seeds must be non-negative; any integer maps to one.
    args.seed %= 2**31

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workloads.WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload) -> int:
    import tracing
    import workloads

    setup_s = monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "import_s": _T_IMPORT - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    records = run_loop(workload, args.seconds, tracer)
    plain = [r for r in records if not r["traced"]]
    result.update({
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        per_op = tracer.per_op()
        tracing.check_expected(per_op, workload.expected)
        computed = workloads.computed_counts(workload.integrations())
        result["layers"] = layer_metrics(per_op, computed)
        result["computed"] = sorted(computed)
        result["traced_wall_s"] = [r["wall_s"] for r in records if r["traced"]]
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")

    final_ok = getattr(workload, "final_check", lambda: True)()
    result.update({
        "attempted": len(records),
        "failed": count_failures(records),
        "final_check": final_ok,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
