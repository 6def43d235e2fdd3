#!/usr/bin/env python3
"""Perf-baseline tracker for the core hot path.

Runs bench_core_hotpath (and through it a fixed incast scenario), writes the
resulting flat metric dictionary to BENCH_core.json, and optionally compares
every *events_per_sec / *ops_per_sec metric against a checked-in baseline,
failing when any regresses by more than --max-regression (default 30%).

Usage:
  tools/perf_report.py --bench=build/bench_core_hotpath \
      --extra-bench=build/bench_fabric_parallel --out=BENCH_core.json
  tools/perf_report.py --bench=build/bench_core_hotpath --out=new.json \
      --check=BENCH_core.json [--max-regression=0.30] [--bench-arg=--quick] \
      --extra-bench="build/bench_fabric_parallel --quick"

--extra-bench (repeatable) runs an additional bench binary (its value is
whitespace-split into command + args) and merges its flat JSON metrics into
the same output dictionary; duplicate keys across benches are an error.

Zero-overhead-tracing guard: bench_core_hotpath also emits trace_compiled
(1 when built with -DOCCAMY_TRACE=ON) and trace_off_events_per_sec (incast
throughput, the guard for "an OCCAMY_TRACE=OFF build carries no tracing
cost"). The CI perf-smoke job builds with -DOCCAMY_TRACE=OFF and asserts
trace_compiled == 0 before gating, so the recorded baseline rate is
genuinely tracing-free; the metric is gated through the ordinary
_events_per_sec suffix.

The checked-in BENCH_core.json baseline is the union of bench_core_hotpath
and bench_fabric_parallel (fabric_parallel_speedup: node-affinity sharding)
metrics, so a --check run must pass the matching --extra-bench flag (as CI
does) or every fabric_parallel_* gated metric reports "missing from current
run" and the check fails by design — a bench that silently stops emitting
a tracked metric must not pass the gate.

Exit codes: 0 ok, 1 regression or bench failure, 2 usage error.
"""

import argparse
import json
import os
import subprocess
import sys

# Default metrics gated against the baseline (higher is better). The
# *_speedup ratios (current vs in-process legacy) are nearly machine-
# independent — a drop there means a real code change; the absolute
# *_events_per_sec / *_ops_per_sec rates also track the host, so gate them
# only against baselines recorded on comparable machines (CI gates ratios
# alone via --gate-suffixes=_speedup).
DEFAULT_GATED_SUFFIXES = "_events_per_sec,_ops_per_sec,_speedup"


def run_bench(bench, out_path, extra_args):
    cmd = [bench, f"--json={out_path}"] + extra_args
    print("perf_report: running", " ".join(cmd))
    result = subprocess.run(cmd)
    if result.returncode != 0:
        print(f"perf_report: bench exited {result.returncode}", file=sys.stderr)
        sys.exit(1)
    with open(out_path) as f:
        return json.load(f)


def merge_metrics(base, extra, source):
    for key, value in extra.items():
        if key == "schema_version":
            continue
        if key in base:
            print(f"perf_report: duplicate metric '{key}' from {source}",
                  file=sys.stderr)
            sys.exit(2)
        base[key] = value
    return base


def gated(key, gated_suffixes):
    return (key.endswith(tuple(gated_suffixes)) and "_legacy_" not in key
            and key != "schema_version")


def check(current, baseline_path, max_regression, gated_suffixes):
    with open(baseline_path) as f:
        baseline = json.load(f)
    failures = []
    for key, base in sorted(baseline.items()):
        if not gated(key, gated_suffixes):
            continue  # (legacy comparator speed is not our regression)
        if not isinstance(base, (int, float)) or base <= 0:
            continue
        cur = current.get(key)
        if cur is None:
            failures.append(
                f"{key}: missing from current run — rerun with the "
                f"--extra-bench that emits it (see --help), or refresh "
                f"{baseline_path} with --update if the metric was "
                f"intentionally retired")
            continue
        ratio = cur / base
        marker = "OK"
        if ratio < 1.0 - max_regression:
            failures.append(f"{key}: {cur:.3g} vs baseline {base:.3g} "
                            f"({(1.0 - ratio) * 100.0:.1f}% regression)")
            marker = "REGRESSED"
        print(f"perf_report: {key}: {cur:.3g} / baseline {base:.3g} = {ratio:.2f} {marker}")
    # The reverse gap — a gated metric the current run emits but the
    # baseline has never recorded — is also an error: a new tracked metric
    # must be baselined explicitly (via --update), not silently ungated.
    for key in sorted(current):
        if gated(key, gated_suffixes) and key not in baseline:
            failures.append(
                f"{key}: missing from baseline {baseline_path} — run "
                f"tools/perf_report.py with --update to record it, then "
                f"commit the refreshed baseline")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="build/bench_core_hotpath",
                        help="path to the bench_core_hotpath binary")
    parser.add_argument("--out", default="BENCH_core.json",
                        help="where to write the fresh metrics")
    parser.add_argument("--check", default=None,
                        help="baseline BENCH_core.json to compare against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional drop per gated metric (default 0.30)")
    parser.add_argument("--gate-suffixes", default=DEFAULT_GATED_SUFFIXES,
                        help="comma-separated metric-name suffixes to gate "
                             f"(default: {DEFAULT_GATED_SUFFIXES}; CI uses _speedup "
                             "only, since absolute rates are machine-dependent)")
    parser.add_argument("--bench-arg", action="append", default=[],
                        help="extra argument forwarded to the bench (repeatable)")
    parser.add_argument("--extra-bench", action="append", default=[],
                        help="additional bench to run and merge (whitespace-split "
                             "into command + args; repeatable)")
    parser.add_argument("--update", action="store_true",
                        help="with --check: overwrite the baseline with this "
                             "run's metrics instead of gating against it "
                             "(adopts new metrics, retires removed ones)")
    args = parser.parse_args()
    if args.update and not args.check:
        print("perf_report: --update requires --check=<baseline>", file=sys.stderr)
        sys.exit(2)

    current = run_bench(args.bench, args.out, args.bench_arg)
    for i, spec in enumerate(args.extra_bench):
        parts = spec.split()
        scratch = f"{args.out}.extra{i}"
        extra = run_bench(parts[0], scratch, parts[1:])
        os.remove(scratch)  # merged below; don't litter partial-metrics files
        current = merge_metrics(current, extra, parts[0])
    if args.extra_bench:
        with open(args.out, "w") as f:
            json.dump(current, f)
            f.write("\n")
    print(f"perf_report: wrote {args.out}")

    if args.check and args.update:
        with open(args.check, "w") as f:
            json.dump(current, f)
            f.write("\n")
        print(f"perf_report: baseline {args.check} updated from this run")
        return

    if args.check:
        suffixes = [s for s in args.gate_suffixes.split(",") if s]
        failures = check(current, args.check, args.max_regression, suffixes)
        if failures:
            print("perf_report: PERFORMANCE REGRESSION:", file=sys.stderr)
            for f in failures:
                print("  " + f, file=sys.stderr)
            sys.exit(1)
        print("perf_report: no regression beyond "
              f"{args.max_regression * 100:.0f}% against {args.check}")


if __name__ == "__main__":
    main()
