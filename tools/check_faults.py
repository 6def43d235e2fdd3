#!/usr/bin/env python3
"""Validator for occamy_sim JSON output under fault injection.

Checks the schema v8 fault-counter contract the scenario runner promises
(src/exp/telemetry.cc, AddTelemetryFields):

  - the output is one flat JSON object with schema_version >= 8;
  - all nine fault counters are present as non-negative integers
    (faults_injected, packets_lost_injected, packets_corrupted,
    blackhole_drops, link_down_drops, reroutes, flushed_bytes_restart,
    burst_loss_packets, cp_stalled_steps) — present even on healthy runs
    so the golden fingerprint shape never depends on the fault plan;
  - --nonzero=name[,name...] asserts the named counters are > 0 (CI runs a
    faulted schedule and requires the corresponding counter to have fired);
  - --degradation asserts the healthy_*/delta_* report fields exist (the
    run was made with --degradation);
  - --recovery additionally asserts the time-to-recovery fields exist and
    that the run healed: recovered == 1 and recovery_time_ms >= 0. This is
    the CI teeth behind the self-healing acceptance criterion — a rerouted
    link_down must return the delivered rate to >= 90% of the healthy twin
    (src/fault/recovery.h).

Usage: tools/check_faults.py metrics.json [--nonzero=a,b] [--degradation]
       [--recovery]
Exit codes: 0 ok, 1 validation failure, 2 usage error.
"""

import argparse
import json
import sys

FAULT_COUNTERS = (
    "faults_injected",
    "packets_lost_injected",
    "packets_corrupted",
    "blackhole_drops",
    "link_down_drops",
    "reroutes",
    "flushed_bytes_restart",
    "burst_loss_packets",
    "cp_stalled_steps",
)


def fail(msg):
    print(f"check_faults: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", help="path to the occamy_sim JSON output")
    parser.add_argument("--nonzero", default="",
                        help="comma-separated fault counters that must be > 0")
    parser.add_argument("--degradation", action="store_true",
                        help="require the healthy_/delta_ degradation fields")
    parser.add_argument("--recovery", action="store_true",
                        help="require the recovery fields and recovered == 1")
    args = parser.parse_args()

    try:
        with open(args.metrics) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args.metrics}: {e}")

    if not isinstance(doc, dict):
        fail("top level must be one flat JSON object")

    schema = doc.get("schema_version")
    if not isinstance(schema, int) or schema < 8:
        fail(f"schema_version must be an integer >= 8, got {schema!r}")

    for name in FAULT_COUNTERS:
        value = doc.get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{name} must be an integer, got {value!r}")
        if value < 0:
            fail(f"{name} must be non-negative, got {value}")

    required = [n for n in args.nonzero.split(",") if n]
    for name in required:
        if name not in FAULT_COUNTERS:
            print(f"check_faults: unknown counter {name!r} "
                  f"(known: {', '.join(FAULT_COUNTERS)})", file=sys.stderr)
            sys.exit(2)
        if doc[name] <= 0:
            fail(f"{name} must be > 0 under the injected schedule, got {doc[name]}")

    if args.degradation or args.recovery:
        for name in ("healthy_goodput_gbps", "delta_goodput_gbps",
                     "healthy_drops", "delta_drops"):
            if name not in doc:
                fail(f"--degradation run is missing field {name}")

    if args.recovery:
        for name in ("fault_onset_ms", "first_delivery_after_fault_ms",
                     "recovery_time_ms", "recovered"):
            if name not in doc:
                fail(f"--recovery run is missing field {name}")
        if doc["recovered"] != 1:
            fail("run did not recover: delivered rate never returned to "
                 "90% of the healthy twin "
                 f"(recovery_time_ms={doc['recovery_time_ms']})")
        if doc["recovery_time_ms"] < 0:
            fail(f"recovered run has recovery_time_ms="
                 f"{doc['recovery_time_ms']}, expected >= 0")

    counters = ", ".join(f"{n}={doc[n]}" for n in FAULT_COUNTERS)
    extra = ""
    if args.recovery:
        extra = (f", recovery_time_ms={doc['recovery_time_ms']}"
                 f", first_delivery_after_fault_ms="
                 f"{doc['first_delivery_after_fault_ms']}")
    print(f"check_faults: OK: schema v{schema}, {counters}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
