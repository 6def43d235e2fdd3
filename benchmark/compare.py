#!/usr/bin/env python3
"""Compares two sets of benchmark/run.py suite results (A = parent, B = change).

    python3 benchmark/compare.py A.jsonl B.jsonl

Each file holds one or more suite results, one JSON document per line (the
stdout line of run.py, or a history.jsonl entry); the samples of all lines
in a file are pooled in order, so runs made in ABAB order pair up by
position. For every (metric, workload) pair the report gives each side's
median and quartiles, and the pairs B won.

Every metric that BENCHMARK.json bounds, plus failed_frac (bound: any
increase), gets a verdict; a gain needs at least ten pairs run in
alternation:
  improved    B wins at least 9/10 of the pairs and the medians differ by
              more than A's interquartile range, or the spread is wider than
              the bound but every B sample beats every A sample;
  unresolved  either side's IQR/median is wider than the bound;
  regressed   B's median is worse than A's by more than the bound, or every
              B sample is worse than every A sample;
  unchanged   otherwise.
Per-layer metrics have no bound and get no verdict. The model fingerprints
of both sides are compared per workload.

Exit codes: 0 nothing regressed and fingerprints match, 1 otherwise,
2 usage error.
"""

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """Pools every suite document in `path`."""
    samples, fingerprints = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            doc = json.loads(line)
            if "commit" in doc:  # a history.jsonl entry wraps the suite document
                doc = doc["results"]
            for r in doc["results"]:
                key = (r["metric"], r["workload"])
                samples.setdefault(key, {"unit": r["unit"], "values": []})
                samples[key]["values"] += r["samples"]
            for w, fp in doc["fingerprints"].items():
                fingerprints.setdefault(w, set()).add(fp)
    return samples, fingerprints


def spec():
    """name -> (bound or None, lower_is_better)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m.get("bound"), m["better"] == "lower")
               for m in bench["end_to_end"] + bench["per_layer"]}
    metrics["failed_frac"] = (0.0, True)
    return metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative(delta, base):
    if base != 0:
        return delta / abs(base)
    return math.inf if delta > 0 else 0.0


def verdict(a, b, bound, lower):
    sign = 1 if lower else -1  # sign * (x - y) > 0: x is worse than y
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if bound is None:
        return "-", wins, len(pairs)
    spread = max(relative(q3a - q1a, med_a), relative(q3b - q1b, med_b))
    b_beats_all = all(sign * (x - y) > 0 for x in a for y in b)
    b_loses_all = all(sign * (y - x) > 0 for x in a for y in b)
    if (pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3a - q1a
            and sign * (med_a - med_b) > 0):
        v = "improved"
    elif spread > bound:
        v = "improved" if b_beats_all else "regressed" if b_loses_all else "unresolved"
    elif relative(sign * (med_b - med_a), med_a) > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, wins, len(pairs)


def main():
    if len(sys.argv) != 3 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    (sa, fa), (sb, fb) = load(sys.argv[1]), load(sys.argv[2])
    metrics = spec()
    bad = False
    print(f"{'metric':34} {'workload':28} {'A median':>11} {'A q1..q3':>23} "
          f"{'B median':>11} {'B q1..q3':>23} {'wins':>7}  verdict")
    # Bounded metrics first, then the per-layer ones.
    keys = sorted(sa.keys() & sb.keys(),
                  key=lambda k: (metrics.get(k[0], (None,))[0] is None, k))
    for key in keys:
        name, workload = key
        a, b = sa[key]["values"], sb[key]["values"]
        bound, lower = metrics.get(name, (None, True))
        v, wins, n = verdict(a, b, bound, lower)
        bad = bad or v == "regressed"
        q1a, q3a = quartiles(a)
        q1b, q3b = quartiles(b)
        print(f"{name:34} {workload:28} {statistics.median(a):11.5g} "
              f"{q1a:11.5g}..{q3a:<11.5g} {statistics.median(b):11.5g} "
              f"{q1b:11.5g}..{q3b:<11.5g} {wins:3d}/{n:<3d}  {v}"
              + (f"  ({sa[key]['unit']}, bound {bound:g})" if bound is not None else ""))
    for w in sorted(fa.keys() | fb.keys()):
        same = fa.get(w) == fb.get(w) and len(fa.get(w, ())) == 1
        bad = bad or not same
        print(f"fingerprint {w}: {'identical' if same else 'DIFFERENT'} "
              f"A={sorted(fa.get(w, []))} B={sorted(fb.get(w, []))}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
