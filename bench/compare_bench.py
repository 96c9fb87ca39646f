#!/usr/bin/env python3
"""Compare a Google Benchmark JSON run against BENCH_BASELINE.json.

Usage:
  compare_bench.py --baseline BENCH_BASELINE.json --run out.json \
      [--binary bench_ext_selection] [--filter REGEX] [--tolerance 0.20]

Fails (exit 1) when any benchmark matched by --filter is slower than
baseline * (1 + tolerance). Benchmarks missing from the baseline are
skipped with a note, so adding a new benchmark never breaks the gate.

Same-run ratio mode (machine-independent — no baseline needed):
  compare_bench.py --run out.json \
      --ratio BM_SelectProfilingOn:BM_SelectProfilingOff --max-ratio 1.5

Fails when numerator/denominator real_time exceeds --max-ratio. Both
benchmarks come from the *same* run, so the gate holds on any machine;
it's how CI bounds profiling-on overhead relative to profiling-off.
--ratio may repeat. Run the binary with --benchmark_repetitions=N
--benchmark_enable_random_interleaving=true and each side is the
median of N repetitions interleaved with the other's, so a change in
the host's speed between two benchmarks moves both sides alike.

With --counter NAME the ratio is taken over that user counter (a
`state.counters[NAME]` value in the run JSON) instead of real_time —
how CI asserts the reclustered chase does fewer page fetches than the
scattered one (`--counter pool_misses --max-ratio 0.5`), a gate that
no amount of machine noise can flip because it counts work, not time.

Caveat: the committed baseline was captured on one specific machine
and build type. Cross-machine absolute comparisons are meaningless —
CI re-captures or uses a generous tolerance on stable runners; local
use is for spotting order-of-magnitude regressions, not ±5% drift.
"""

import argparse
import json
import re
import statistics
import sys


def load_run(path):
    """Benchmarks by name. A name run with --benchmark_repetitions has one
    iteration entry per repetition; it reads as its first entry with
    real_time, cpu_time and every counter replaced by the median over
    all of them, so one slow repetition cannot move a gate."""
    with open(path) as f:
        data = json.load(f)
    entries = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        entries.setdefault(bench["name"], []).append(bench)
    out = {}
    for name, runs in entries.items():
        merged = dict(runs[0])
        for key, value in runs[0].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                merged[key] = statistics.median(run[key] for run in runs)
        out[name] = merged
    return out


def warn_build_type_mismatch(run_path, baseline):
    """Warn (never fail) when the run's stamped build type differs from
    the baseline's. Absolute comparisons across build flavors are noise;
    the numbers still print, but the verdicts should be read with that
    in mind. Runs older than the stamping (no ode_build_type in the
    context) and baselines without a build_type stay silent."""
    with open(run_path) as f:
        context = json.load(f).get("context", {})
    run_build = context.get("ode_build_type")
    base_build = baseline.get("build_type")
    if run_build and base_build and run_build != base_build:
        print(f"compare_bench: WARNING: run build type '{run_build}' != "
              f"baseline build type '{base_build}'; absolute comparisons "
              f"across build flavors are unreliable", file=sys.stderr)


def check_ratios(run_benches, specs, max_ratio, counter=None):
    """Same-run numerator:denominator gates. Returns the exit code.

    With counter=NAME the gate divides that user counter instead of
    real_time. A zero-valued denominator counter is an error (the gate
    would be vacuous); a zero numerator is the best possible result."""
    failures = []
    for spec in specs:
        try:
            num_name, den_name = spec.split(":", 1)
        except ValueError:
            print(f"compare_bench: bad --ratio '{spec}' (want NUM:DEN)",
                  file=sys.stderr)
            return 1
        num = run_benches.get(num_name)
        den = run_benches.get(den_name)
        if num is None or den is None:
            missing = num_name if num is None else den_name
            print(f"compare_bench: --ratio benchmark '{missing}' not in "
                  f"the run", file=sys.stderr)
            return 1
        if counter is not None:
            unit = counter
            num_value = num.get(counter)
            den_value = den.get(counter)
            if num_value is None or den_value is None:
                missing = num_name if num_value is None else den_name
                print(f"compare_bench: benchmark '{missing}' has no "
                      f"counter '{counter}'", file=sys.stderr)
                return 1
            if den_value == 0:
                print(f"compare_bench: counter '{counter}' is zero in "
                      f"denominator '{den_name}'; ratio gate is vacuous",
                      file=sys.stderr)
                return 1
        else:
            if num["time_unit"] != den["time_unit"]:
                print(f"compare_bench: unit mismatch in '{spec}'",
                      file=sys.stderr)
                return 1
            unit = num["time_unit"]
            num_value = num["real_time"]
            den_value = den["real_time"]
        ratio = num_value / den_value
        verdict = "OK"
        if ratio > max_ratio:
            verdict = "REGRESSION"
            failures.append(spec)
        print(f"  {verdict:10s} {num_name} / {den_name}: "
              f"{num_value:.0f} / {den_value:.0f} "
              f"{unit} = {ratio:.2f}x (max {max_ratio:.2f}x)")
    if failures:
        print(f"compare_bench: {len(failures)} ratio gate(s) exceeded: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"compare_bench: {len(specs)} ratio gate(s) within "
          f"{max_ratio:.2f}x")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--run", required=True,
                        help="benchmark JSON produced with --benchmark_out")
    parser.add_argument("--binary", default=None,
                        help="baseline 'benches' key; inferred from the "
                             "run's executable name when omitted")
    parser.add_argument("--filter", default=".*",
                        help="regex over benchmark names to compare")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed slowdown fraction (0.20 = +20%%)")
    parser.add_argument("--ratio", action="append", default=[],
                        metavar="NUM:DEN",
                        help="same-run ratio gate; may repeat")
    parser.add_argument("--max-ratio", type=float, default=1.5,
                        help="fail when a --ratio pair exceeds this")
    parser.add_argument("--counter", default=None, metavar="NAME",
                        help="ratio over this user counter instead of "
                             "real_time (only with --ratio)")
    args = parser.parse_args()

    if args.counter and not args.ratio:
        print("compare_bench: --counter only applies to --ratio mode",
              file=sys.stderr)
        return 1

    if args.ratio:
        return check_ratios(load_run(args.run), args.ratio, args.max_ratio,
                            args.counter)

    if args.baseline is None:
        print("compare_bench: --baseline is required unless --ratio is "
              "used", file=sys.stderr)
        return 1

    with open(args.baseline) as f:
        baseline = json.load(f)
    warn_build_type_mismatch(args.run, baseline)

    binary = args.binary
    if binary is None:
        with open(args.run) as f:
            executable = json.load(f)["context"]["executable"]
        binary = executable.rsplit("/", 1)[-1]
    base_benches = baseline["benches"].get(binary)
    if base_benches is None:
        print(f"compare_bench: no baseline for binary '{binary}'; known: "
              f"{sorted(baseline['benches'])}", file=sys.stderr)
        return 1

    run_benches = load_run(args.run)
    pattern = re.compile(args.filter)
    failures = []
    compared = 0
    for name, bench in sorted(run_benches.items()):
        if not pattern.search(name):
            continue
        base = base_benches.get(name)
        if base is None:
            print(f"  skip {name}: not in baseline")
            continue
        if base["time_unit"] != bench["time_unit"]:
            print(f"  skip {name}: unit mismatch "
                  f"({base['time_unit']} vs {bench['time_unit']})")
            continue
        compared += 1
        ratio = bench["real_time"] / base["real_time"]
        verdict = "OK"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"  {verdict:10s} {name}: {base['real_time']:.0f} -> "
              f"{bench['real_time']:.0f} {bench['time_unit']} "
              f"({ratio:.2f}x)")
    if compared == 0:
        print(f"compare_bench: filter '{args.filter}' matched nothing "
              f"in {args.run}", file=sys.stderr)
        return 1
    if failures:
        print(f"compare_bench: {len(failures)} regression(s) beyond "
              f"+{args.tolerance:.0%}: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"compare_bench: {compared} benchmark(s) within +"
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
