#!/usr/bin/env python3
"""Fabric parallel-speedup gate over occamy_sim.

Usage: tools/parallel_gate.py OCCAMY_SIM

Runs the alltoall fabric scenario (Occamy, default scale, 5 ms, seed 1)
through `OCCAMY_SIM run` on two engine settings:

  serial  --shards=1, the single-shard oracle and the engine the benchmark
          times;
  timed   --shards=SHARDS.

The two legs run in ROUNDS alternating pairs, and each side's fastest
`wall_ms` counts. The gate fails when
  - a timed or a later serial run differs from the first serial one on any
    deterministic key (every key but VOLATILE);
  - the serial run completed no flows or delivered no bytes;
  - the fastest timed run's window batching takes no fewer barrier rounds
    (`windows_run`) than the windows it executes (`windows_executed`);
  - the speedup is below FLOOR_PER_CORE x min(cores, SHARDS), enforced only
    when the host has at least SHARDS cores (fewer can only check
    determinism).

A table goes to stderr; stdout carries one JSON object with the
fabric_parallel_* keys of BENCH_core.json.

Exit codes: 0 pass; 1 when a check fails, or a run exits non-zero or prints
unreadable JSON; 2 usage error.
"""

import json
import math
import os
import subprocess
import sys

SHARDS = 4
ROUNDS = 5
FLOOR_PER_CORE = 0.5
RUN = ("run", "--scenario=alltoall", "--bm=occamy", "--scale=default",
       "--duration-ms=5", "--seed=1")
# Keys that vary with the host or the engine setting, not with the model:
# exp::TelemetryKeyVolatility (src/exp/telemetry.cc) lists the same ones.
VOLATILE = frozenset((
    "wall_ms", "events_per_sec", "parallel_efficiency",
    "shards", "windows_run", "windows_executed", "max_window_batch",
    "mailbox_staged_events", "mailbox_drained_events"))
NUMERIC = ("wall_ms", "sim_events", "windows_run", "windows_executed",
           "parallel_efficiency", "bg_flows_completed", "delivered_bytes")


class GateError(Exception):
    pass


def host_cores():
    return os.cpu_count() or 1


def run_leg(sim, *engine):
    """One `occamy_sim run`: its metrics dict, or GateError."""
    cmd = [sim, *RUN, *engine]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    label = " ".join(engine)
    if proc.returncode != 0:
        raise GateError(f"{label}: exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}")
    try:
        metrics = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise GateError(f"{label}: unreadable JSON: {e}") from None
    if not isinstance(metrics, dict) or not all(
            isinstance(metrics.get(k), (int, float)) and
            math.isfinite(metrics[k]) and metrics[k] >= 0 for k in NUMERIC
    ) or metrics["wall_ms"] <= 0:
        raise GateError(f"{label}: unreadable JSON: want one object with "
                        f"non-negative {', '.join(NUMERIC)} and wall_ms > 0")
    return metrics


def wall_ms(run):
    return run["wall_ms"]


def first_difference(a, b):
    """The first deterministic key on which runs a and b differ, or None."""
    for key in sorted((set(a) | set(b)) - VOLATILE):
        x, y = a.get(key, "<missing>"), b.get(key, "<missing>")
        if x != y:
            return f"{key}: {x} vs {y}"
    return None


def check(sim):
    """Runs every leg; returns (report, failures)."""
    serial, timed = [], []
    for i in range(ROUNDS):
        legs = [(serial, "--shards=1"), (timed, f"--shards={SHARDS}")]
        for runs, engine in legs if i % 2 == 0 else reversed(legs):
            runs.append(run_leg(sim, engine))
        print(f"parallel_gate: pair {i + 1}/{ROUNDS} done", file=sys.stderr)

    failures = []
    oracle = serial[0]
    for name, runs in (("second serial", serial[1:]), ("timed", timed)):
        for run in runs:
            diff = first_difference(oracle, run)
            if diff is not None:
                failures.append(f"determinism: the {name} run differs from "
                                f"the single-shard oracle on {diff}")
                break
    if oracle["bg_flows_completed"] <= 0 or oracle["delivered_bytes"] <= 0:
        failures.append("empty run: no flows completed or no bytes delivered")

    fastest = min(timed, key=wall_ms)
    serial_ms = min(map(wall_ms, serial))
    parallel_ms = fastest["wall_ms"]
    if fastest["windows_run"] >= fastest["windows_executed"]:
        failures.append(f"window batching: {fastest['windows_run']} barrier "
                        f"rounds for {fastest['windows_executed']} windows "
                        "executed (want strictly fewer)")

    cores = host_cores()
    speedup = serial_ms / parallel_ms
    required = FLOOR_PER_CORE * min(cores, SHARDS)
    if cores >= SHARDS and speedup < required:
        failures.append(f"speedup {speedup:.2f}x < required {required:.2f}x "
                        f"({SHARDS} shards on {cores} cores)")

    events = oracle["sim_events"]
    serial_eps, parallel_eps = (round(events * 1e3 / ms)
                                for ms in (serial_ms, parallel_ms))
    report = {
        "fabric_parallel_shards": SHARDS,
        "fabric_parallel_cores": cores,
        "fabric_parallel_sim_events": events,
        "fabric_parallel_serial_wall_ms": serial_ms,
        "fabric_parallel_wall_ms": parallel_ms,
        "fabric_parallel_serial_events_per_sec": serial_eps,
        "fabric_parallel_events_per_sec": parallel_eps,
        "fabric_parallel_speedup": round(speedup, 4),
        "fabric_parallel_efficiency": fastest["parallel_efficiency"],
        "fabric_parallel_windows_run": fastest["windows_run"],
        "fabric_parallel_windows_executed": fastest["windows_executed"],
    }
    print(f"{'engine':10} {'wall ms':>9} {'rounds':>7} {'windows':>8}",
          file=sys.stderr)
    for label, run in (("1 shard", min(serial, key=wall_ms)),
                       (f"{SHARDS} shards", fastest)):
        print(f"{label:10} {run['wall_ms']:9.1f} {run['windows_run']:7} "
              f"{run['windows_executed']:8}", file=sys.stderr)
    print(f"speedup {speedup:.2f}x on {cores} cores", file=sys.stderr)
    return report, failures


def main(argv):
    if len(argv) != 2 or not (os.path.isfile(argv[1]) and
                              os.access(argv[1], os.X_OK)):
        print("usage: parallel_gate.py OCCAMY_SIM (an executable occamy_sim "
              "build)", file=sys.stderr)
        return 2
    try:
        report, failures = check(argv[1])
    except GateError as e:
        report, failures = None, [str(e)]
    for failure in failures:
        print(f"parallel_gate: FAIL: {failure}", file=sys.stderr)
    if report is not None:
        print(json.dumps(report, separators=(",", ":")))
    if not failures:
        print("parallel_gate: pass", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
