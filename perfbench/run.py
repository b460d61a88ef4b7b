#!/usr/bin/env python3
"""Build and run the cachelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --update-digests

Run from the root of a source tree.  The first call configures and
builds the library and the driver (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later calls only check that the build is up to
date.  Each run is one driver process, so its peak memory is its own.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).  Seed 1 is checked against
the digests pinned in perfbench/digests.tsv.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "cachelab_perfbench"
DIGESTS = BENCH_DIR / "digests.tsv"
WORKLOADS = ("corpus_sweep", "stream_curve", "kv_campaign")
PINNED_SEED = 1
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; exit non-zero on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                      "--target", "cachelab_perfbench"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("perfbench: build failed:", " ".join(cmd))
                sys.exit(2)


def run_driver(workload, seed, seconds, trace, extra=(), pinned=True):
    """Run one driver process; return (stdout lines, parsed result)."""
    work = ROOT / ".bench_build" / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), *extra]
    if pinned:
        cmd += ["--digests", str(DIGESTS)]
    if trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-seed{seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in time")
        sys.exit(1)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log(f"perfbench: driver exited with code {done.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed driver result")
        sys.exit(1)
    return lines, result


def self_test():
    """Perturb one point per workload by one count; the gate must catch
    exactly that point."""
    ok = True
    for workload in WORKLOADS:
        _, result = run_driver(workload, PINNED_SEED, 0.01, 0, ["--perturb"])
        caught = result["failed"] == 1 and not result["correct"]
        ok = ok and caught
        print(f"self-test {workload}: failed={result['failed']} "
              f"of {result['attempted']} -> {'caught' if caught else 'MISSED'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def update_digests():
    """Re-pin every workload's digests at the pinned seed."""
    rows = []
    for workload in WORKLOADS:
        out = ROOT / ".bench_build" / f"digests-{workload}.tsv"
        run_driver(workload, PINNED_SEED, 0.01, 0,
                   ["--write-digests", str(out)], pinned=False)
        rows.append(out.read_text())
    DIGESTS.write_text(
        "# cachelab benchmark results digests: workload seed point "
        "fnv1a64(CacheStats).\n# Regenerate only with "
        "`python3 perfbench/run.py --update-digests`.\n" + "".join(rows))
    print(f"wrote {DIGESTS}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args()

    start = time.monotonic()
    build()
    log(f"perfbench: build checked in {time.monotonic() - start:.1f} s")
    if args.self_test:
        return self_test()
    if args.update_digests:
        return update_digests()
    if args.workload is None:
        parser.error("--workload is required")

    lines, result = run_driver(args.workload, args.seed, args.seconds,
                               args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
