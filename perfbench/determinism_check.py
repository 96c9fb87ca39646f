#!/usr/bin/env python3
"""Checks that the benchmark's per-layer counts are deterministic.

For each workload, runs the fixed-length count phase (no timed phase)
twice with one seed and once with another:

  * the two same-seed runs must report identical per-layer counts;
  * the other seed must change the op sequence (its digest differs).

Run from the root of a source checkout:

    python3 perfbench/determinism_check.py [--seeds 3 4] [workload ...]

Exits 0 when every workload passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build/run helpers)

TIME_UNITS = {"us", "ns", "s"}


def counts(binary, workload, seed):
    run_dir = run.ROOT / ".bench_run" / f"determinism-{workload}-{os.getpid()}"
    try:
        done = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "1", "--counts-only",
             "--dir", str(run_dir)],
            cwd=run.ROOT, capture_output=True, text=True,
            timeout=run.RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: a check failed\n"
                           f"{done.stdout}")
    # Waits (lock, commit) are times read from counters; only the
    # counts and ratios of counts must repeat.
    values = {k: v["value"] for k, v in result["metrics"].items()
              if v["unit"] not in TIME_UNITS}
    return values, result["op_digest"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    parser.add_argument("--seeds", nargs=2, type=int, default=(3, 4))
    args = parser.parse_args()
    binary = run.build()
    seed, other = args.seeds
    ok = True
    for workload in args.workloads:
        first, digest = counts(binary, workload, seed)
        second, digest_again = counts(binary, workload, seed)
        _, other_digest = counts(binary, workload, other)
        differing = sorted(k for k in first if first[k] != second.get(k))
        if differing or digest != digest_again:
            ok = False
            print(f"FAIL {workload}: same seed, different counts: "
                  + ", ".join(f"{k} {first[k]} vs {second.get(k)}"
                              for k in differing))
        elif other_digest == digest:
            ok = False
            print(f"FAIL {workload}: seed {other} ran the same op sequence "
                  f"as seed {seed}")
        else:
            print(f"ok   {workload}: {len(first)} counts repeat exactly; "
                  f"seed {other} changes the op sequence")
    try:
        (run.ROOT / ".bench_run").rmdir()
    except OSError:
        pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
