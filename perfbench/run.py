#!/usr/bin/env python3
"""Builds and runs the OdeView benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload browse --seed 7 --seconds 10 --trace 0

The program and the benchmark binary are built from source (Release) into
``.bench_build/perfbench`` (or ``$CARGO_TARGET_DIR/perfbench``) on first
use. Database files live in a per-run directory under ``.bench_run/``,
removed on every exit path. The last line printed is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; its metrics
are the ones ``BENCHMARK.json`` lists (``end_to_end`` for ``--trace 0``,
``per_layer`` for ``--trace 1``). The lines before it are the
human-readable report: every metric the binary measured, sample counts,
host diagnostics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("browse", "chase", "query", "edit")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def listed_metrics(trace):
    """Names of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = out / "odeview_bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_binary(binary, binary_args, run_dir):
    """Runs the binary to completion; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([str(binary), *binary_args, "--dir", str(run_dir)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out.splitlines()
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    # A terminated run still stops its binary and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    code, lines = run_binary(
        binary,
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        run_dir)
    if not lines:
        fail(f"benchmark binary exited with {code} and printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark binary exited with {code}; last line is not a result")
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}")
    names = listed_metrics(args.trace)
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        fail(f"benchmark binary did not report {', '.join(missing)}")
    result["metrics"] = {name: result["metrics"][name] for name in names}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
