"""Benchmark of the ns2dsens solver: one workload per call, one JSON result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli_sync_box_n48 --seed 1 --seconds 55 --trace 0

Workloads (see workloads.py for why each was chosen): sens_flow_n256 and
cli_sync_box_n48, listed in BENCHMARK.json, and da_sweep_n32, which runs the
same way but is left out of BENCHMARK.json: its Python-bound op had the
widest run-to-run spread of median wall time on a shared two-core machine.
Each workload runs in its own process as a closed loop with one caller in one
thread, through the package's public entry points only, between a few
set-up-only processes that time set-up alone.

With --trace 0 the result holds the end-to-end metrics: the median wall time
of one op (wall_s), the median set-up time (setup_s), the peak resident
memory of the workload process (peak_rss_mb) and the share of ops that passed
every check (pass_frac).  With --trace 1 the process alternates untraced ops
with ops whose spans are recorded at every layer boundary, and the result
holds per-op layer metrics, the tracing overhead and the computed counts.

The last line of standard output is the result; the full record, with the
per-op samples and the provenance (machine, versions, revision, seed), is
also written to .bench_out/.  Exit code 0 means the run completed, whether
or not its checks passed; anything else means no result was produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
# Set-up-only processes before and after the measured one, so that set-up
# time is sampled at both ends of the run.
SETUP_ONLY_RUNS = 2
TIME_LIMIT_S = 175.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker process to completion and parse its JSON line."""
    cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50, statistics.median(ordered)
    return int(100 * (n - 10) / n), ordered[n - 11]


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """Digest of the package sources, a revision stand-in outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def with_units(values: dict[str, float], section: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(values) != set(units):
        raise ValueError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()

    if not (ROOT / "src" / "ns2dsens" / "__init__.py").is_file():
        print(f"no ns2dsens package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_only() -> float:
        return spawn(common + ["--setup-only"], timeout=60.0)["setup_s"]

    try:
        setups = [setup_only() for _ in range(SETUP_ONLY_RUNS)]
        run = spawn(
            common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
            timeout=TIME_LIMIT_S - 30.0 - (monotonic() - started),
        )
        setups.append(run["setup_s"])
        setups += [setup_only() for _ in range(SETUP_ONLY_RUNS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    correct = failed == 0 and run["final_check"]
    if args.trace:
        values = dict(run["layers"])
        untraced = statistics.median(run["wall_s"])
        values["proc.cpu_s"] = statistics.median(run["cpu_s"])
        values["trace.overhead_frac"] = statistics.median(run["traced_wall_s"]) / untraced - 1
        values["fail_frac"] = failed / attempted
        metrics = with_units(values, "per_layer")
    else:
        metrics = with_units({
            "wall_s": statistics.median(run["wall_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "pass_frac": (attempted - failed) / attempted,
        }, "end_to_end")

    p, tail = tail_percentile(run["wall_s"])
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall_samples": len(run["wall_s"]),
        f"wall_s_p{p}": tail,
        "setup_samples_s": setups,
        "provenance": provenance(args.seed),
        "run": run,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}: {len(run['wall_s'])} timed ops, "
          f"wall p{p} {tail:.4f} s; provenance {json.dumps(record['provenance'])}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
