#!/usr/bin/env python3
"""Per-layer perf gate: a change's layer ladder against its parent's.

Usage: tools/ladder_gate.py BASE_LADDER CHANGE_LADDER

BASE_LADDER and CHANGE_LADDER are two builds of benchmark/layer_ladder.cc,
one from the parent commit and one from the change, built the same way. The
gate runs them in PAIRS alternating pairs on this host (every other pair
runs the change first), takes each side's median per rung, prints a table of
every rung's change/base ratio to stderr and a JSON report to stdout.

Host speed drifts from minute to minute, so the gate compares only runs made
in alternation on one machine (benchmark/README.md, "Host noise"); it reads
no stored baseline. Only the GATED rungs decide the verdict: the event queue
at three sizes, cancel churn and the shared buffer. Some other rungs swing
by more than the bound between two builds of the same commit.

Exit codes: 0 pass; 1 when a gated rung's change median is more than BOUND
times the base median, a gated rung is missing from either side, or a
ladder exits non-zero or prints unreadable JSON; 2 usage error.
"""

import json
import math
import os
import statistics
import subprocess
import sys

PAIRS = 5
TRIAL_SECONDS = 0.05
BOUND = 1.30
GATED = ("sim.churn_ns.1k", "sim.churn_ns.16k", "sim.churn_ns.128k",
         "sim.cancel_ns", "buffer.enq_deq_ns")


class LadderError(Exception):
    pass


def run_ladder(path):
    """One ladder run: {rung: ns_per_op}, or LadderError."""
    proc = subprocess.run([path, f"--trial-seconds={TRIAL_SECONDS:g}"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise LadderError(f"{path} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}")
    try:
        rungs = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise LadderError(f"{path} printed unreadable JSON: {e}") from None
    if not isinstance(rungs, dict) or not all(
            isinstance(v, (int, float)) and math.isfinite(v) and v > 0
            for v in rungs.values()):
        raise LadderError(f"{path} printed unreadable JSON: "
                          "want {rung: positive ns/op}")
    return rungs


def medians(runs):
    """Per-rung medians over the rungs present in every run."""
    names = set.intersection(*(set(r) for r in runs))
    return {name: statistics.median(r[name] for r in runs) for name in names}


def main(argv):
    if len(argv) != 3 or not all(os.path.isfile(p) and os.access(p, os.X_OK)
                                 for p in argv[1:]):
        print("usage: ladder_gate.py BASE_LADDER CHANGE_LADDER "
              "(two executable layer_ladder builds)", file=sys.stderr)
        return 2
    sides = {"base": argv[1], "change": argv[2]}
    runs = {"base": [], "change": []}
    failures = []
    try:
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_ladder(sides[side]))
            print(f"ladder_gate: pair {i + 1}/{PAIRS} done", file=sys.stderr)
    except LadderError as e:
        failures.append(str(e))

    report = {}
    if not failures:
        base, change = medians(runs["base"]), medians(runs["change"])
        for name in GATED:
            for side, med in (("base", base), ("change", change)):
                if name not in med:
                    failures.append(f"gated rung {name} missing from the "
                                    f"{side} ladder")
        print(f"{'rung':32} {'base ns':>10} {'change ns':>10} {'ratio':>7}",
              file=sys.stderr)
        for name in sorted(set(base) & set(change)):
            ratio = change[name] / base[name]
            gated = name in GATED
            report[name] = {"base_ns": base[name], "change_ns": change[name],
                            "ratio": round(ratio, 4), "gated": gated}
            mark = ""
            if gated:
                mark = "gated"
                if ratio > BOUND:
                    mark = f"FAIL (> {BOUND:.2f})"
                    failures.append(f"{name}: change/base = {ratio:.3f} > "
                                    f"{BOUND:.2f}")
            print(f"{name:32} {base[name]:10.4g} {change[name]:10.4g} "
                  f"{ratio:7.3f} {mark}", file=sys.stderr)

    for failure in failures:
        print(f"ladder_gate: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"ladder_gate: pass, every gated rung within {BOUND:.2f}x of "
              "the base", file=sys.stderr)
    print(json.dumps({"pairs": PAIRS, "trial_seconds": TRIAL_SECONDS,
                      "bound": BOUND, "ok": not failures,
                      "failures": failures, "rungs": report}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
