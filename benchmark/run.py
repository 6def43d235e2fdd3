#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer performance of occamy_sim.

Builds the simulator and the per-layer ladder into build-bench/ (standalone
CMake project in benchmark/, Release, tests off), then times what a user of
the simulator waits for: long paper scenarios and a figure grid.

Suite mode (no --workload) runs, in order: the build check; every workload
for ROUNDS rounds, interleaved across workloads, with the trace recorder
disarmed; the layer ladder; one traced run per workload; and prints one JSON
line with every metric (name, unit, median, q1, q3, n, samples), the model
fingerprints and the correctness verdict. A readable table goes to stderr.

    python3 benchmark/run.py [--seed=S] [--record] >> results.jsonl
    python3 benchmark/compare.py A.jsonl B.jsonl

Single-workload mode measures one workload for --seconds and prints, as the
last stdout line, {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

--self-test runs every workload at tiny durations plus two injected faults
(a command that exits 1, a fingerprint forced to differ) and checks both
are counted as failures. Exit codes: 0 ok, 1 build or check failure,
2 usage error.
"""

import argparse
import datetime
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
WORK = BUILD / "work"
SIM = BUILD / "occamy_sim"
LADDER = BUILD / "layer_ladder"
REFERENCE = BUILD / "host_reference"
MEASURE = BUILD / "measure_child"
HISTORY = BENCH_DIR / "history.jsonl"

# One sample = REPEATS runs of the same inputs, of which the fastest counts
# (the simulator is deterministic, so repeats do identical work and the
# slower ones only measure interference from the rest of the host), each
# after one host-speed reference run and followed by SETUPS set-up runs, of
# which the fastest of all counts too. Spreading the set-up runs over the
# sample keeps one slow second of the host from covering all of them. See
# README "Host noise".
REPEATS = 3
SETUPS = 3
# The host-speed reference's time on a quiet 4-vCPU host (about the fastest
# repetition seen over many runs on the machine this benchmark was defined
# on). Scaling by REFERENCE_NOMINAL_S / measured keeps every reported time
# in quiet-host units while other tenants slow the machine down. A constant
# of the benchmark: change it only together with host_reference.cc.
REFERENCE_NOMINAL_S = 0.018
# Interleaved rounds (one sample per workload each) in suite mode.
ROUNDS = 10
# Single-workload mode never reports fewer samples than this.
MIN_SAMPLES = 2
# Per-shard trace ring capacity (obs::TraceRecorder::kDefaultCapacity).
RING_CAPACITY = 1 << 18

SCHEMES = "dt,abm,pushout,occamy,occamy_lqd,cs,edt,tdt,qpo"
GRID_SEEDS = 3
GRID_POINTS = len(SCHEMES.split(",")) * GRID_SEEDS
SWEEP_JOBS = min(4, len(os.sched_getaffinity(0)))

# name -> (occamy_sim arguments, timed duration ms, traced duration ms).
# Serial workloads pass no --shards on purpose: they time whichever engine
# is the default. Timed durations keep one run near 0.7-1.2 s on a 4-vCPU
# host; traced durations keep every shard's trace ring at most ~55% full
# over 8 seeds.
WORKLOADS = {
    "star_choking_occamy": (
        ["run", "--scenario=choking", "--bm=occamy"], 1000, 15),
    "fabric_alltoall_dt": (
        ["run", "--scenario=alltoall", "--bm=dt"], 10, 0.4),
    "fabric_websearch_occamy_x2": (
        ["run", "--scenario=websearch", "--bm=occamy", "--shards=2"], 10, 0.3),
    "star_scheme_grid": (
        ["sweep", "--scenarios=burst_absorption", "--bms=" + SCHEMES,
         f"--seeds={GRID_SEEDS}", f"--jobs={SWEEP_JOBS}"], 20, 5),
}
# The grid's traced run is one of its points.
GRID_TRACE_POINT = ["run", "--scenario=burst_absorption", "--bm=occamy"]
# A run's traffic window for setup_s, and the seed of every set-up run.
SETUP_DURATION_MS = 0.001
SETUP_SEED = 1

FINGERPRINT_KEYS = ("delivered_bytes", "goodput_gbps", "qct_avg_ms", "qct_p99_ms",
                    "drops", "expelled", "peak_occupancy_bytes", "queue_delay_p99_ns")

END_TO_END = {  # name -> unit
    "wall_ns_per_pkt": "ns",
    "cpu_ns_per_pkt": "ns",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

LADDER_RUNGS = (
    ["sim.churn_ns.1k", "sim.churn_ns.16k", "sim.churn_ns.128k", "sim.cancel_ns",
     "buffer.enq_deq_ns"]
    + [f"bm.admit_ns.{s}.q{q}" for s in SCHEMES.split(",") for q in (8, 64, 512)]
    + [f"bm.evict_ns.pushout.q{q}" for q in (8, 64, 512)]
    + [f"core.select_ns.q{q}" for q in (8, 64, 512)]
    + ["core.expel_ns", "core.arbiter_ns.n64", "core.arbiter_ns.n512",
       "core.arbiter_ns.n4096", "hw.max_finder_ns.n64", "hw.max_finder_ns.n512",
       "tm.enq_deq_ns.fifo", "tm.enq_deq_ns.drr", "tm.enq_deq_ns.sp",
       "net.forward_ns", "net.mailbox_ns", "transport.ack_ns"])

PER_LAYER = dict(
    {name: "ns" for name in LADDER_RUNGS},
    **{
        "sim.events": "count",
        "sim.ns_per_event": "ns",
        "tm.dequeues": "count",
        "core.expelled": "count",
        "tm.drops": "count",
        "transport.rtos": "count",
        "net.mailbox_staged": "count",
        "engine.windows_run": "count",
        "engine.windows_executed": "count",
        "engine.parallel_efficiency": "ratio",
        "run.ns_per_packet": "ns",
        "engine.busy_ms": "ms",
        "engine.barrier_ms": "ms",
        "engine.drain_ms": "ms",
        "engine.barrier_pct": "%",
        "engine.drain_pct": "%",
        "trace.overhead": "ratio",
    })


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configures build-bench/ and rebuilds whatever is stale."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "occamy_sim", "layer_ladder",
              "host_reference", "measure_child", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"run.py: build failed: {' '.join(cmd)}")
            sys.exit(1)
    WORK.mkdir(parents=True, exist_ok=True)


# ---------------------------------------------------------------- processes

class Proc:
    """One finished child, run through measure_child: exit code, wall, CPU
    (user + sys) and peak RSS of the child alone."""

    def __init__(self, argv, stdout_path):
        err_path = WORK / "stderr.txt"
        report = subprocess.run([str(MEASURE), str(stdout_path), str(err_path)] + argv,
                                cwd=ROOT, capture_output=True, text=True)
        if report.returncode != 0:
            log(report.stderr)
            sys.exit(1)
        code, wall, cpu, rss_kib = report.stdout.split()
        self.code, self.wall, self.cpu = int(code), float(wall), float(cpu)
        self.rss_mb = int(rss_kib) / 1024.0
        self.stderr_tail = err_path.read_text(errors="replace")[-500:]


def sub_seed(seed, j):
    return seed * 1000 + j + 1


def op_args(workload, seed, duration_ms, trace=None, point=False):
    """occamy_sim argv for one operation of `workload`; `point` replaces a
    sweep by the single run its trace covers."""
    args, _, _ = WORKLOADS[workload]
    is_sweep = args[0] == "sweep"
    if point and is_sweep:
        args, is_sweep = GRID_TRACE_POINT, False
    argv = [str(SIM)] + args + ["--scale=default", f"--duration-ms={duration_ms:g}"]
    if is_sweep:
        argv += [f"--base-seed={GRID_SEEDS * seed + 1}", f"--out={WORK / 'sweep'}"]
    else:
        argv += [f"--seed={seed}", f"--json={WORK / 'run.json'}"]
    if trace is not None:
        argv.append(f"--trace={trace}")
    return argv, is_sweep


def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Outcome:
    """Operations attempted and failed by one step, and the first reason."""

    def __init__(self, attempted):
        self.attempted, self.failed, self.reason = attempted, 0, None
        self.fingerprint = None

    def fail(self, reason, count=None):
        self.reason = self.reason or reason
        self.failed = self.attempted if count is None else count


class Op(Outcome):
    """One operation of a workload: a run, or a sweep of several points.

    attempted/failed count runs or sweep points; `rows` holds the run JSON
    (one row per sweep point)."""

    def __init__(self, workload, seed, duration_ms, trace=None, point=False,
                 check_output=True, argv_override=None):
        argv, is_sweep = op_args(workload, seed, duration_ms, trace, point)
        super().__init__(GRID_POINTS if is_sweep else 1)
        self.proc = Proc(argv_override or argv, WORK / "stdout.txt")
        self.rows = []
        if self.proc.code != 0:
            self.fail(f"exit {self.proc.code}: {self.proc.stderr_tail.strip()[-200:]}")
            return
        try:
            if is_sweep:
                lines = (WORK / "sweep" / "runs.jsonl").read_text().splitlines()
                self.rows = [json.loads(line) for line in lines if line.strip()]
                self.fingerprint = hashlib.sha256(
                    (WORK / "sweep" / "summary.csv").read_bytes()).hexdigest()[:16]
            else:
                self.rows = [json.loads((WORK / "run.json").read_text())]
                self.fingerprint = sha([self.rows[0].get(k) for k in FINGERPRINT_KEYS])
        except (OSError, ValueError) as e:
            self.fail(f"unreadable output: {e}")
            return
        if len(self.rows) != self.attempted:
            self.fail(f"{len(self.rows)} result rows, want {self.attempted}")
            return
        problems = [p for p in (row_problem(r, check_output) for r in self.rows) if p]
        if problems:
            self.fail(problems[0], count=len(problems))

    def total(self, key):
        return sum(r.get(key, 0) for r in self.rows)


def row_problem(row, check_output):
    """Why one run's JSON (or one sweep row) fails the checks, or None."""
    if row.get("ok") is False:
        return f"sweep point failed: {row.get('error')}"
    if row.get("mailbox_staged_events") != row.get("mailbox_drained_events"):
        return "mailbox staged != drained"
    if check_output and not row.get("queue_delay_samples", 0) > 0:
        return "no packet was dequeued"
    if check_output and not row.get("delivered_bytes", 0) > 0:
        return "delivered_bytes == 0"
    return None


class Ledger:
    """attempted/failed across operations, plus per-seed fingerprints."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.first_fp = {}
        self.reasons = []

    def add(self, op, fp_key=None):
        if op.failed == 0 and fp_key is not None:
            first = self.first_fp.setdefault(fp_key, op.fingerprint)
            if op.fingerprint != first:
                op.fail(f"fingerprint {op.fingerprint} != {first} for {fp_key}")
        self.attempted += op.attempted
        self.failed += op.failed
        if op.failed:
            self.reasons.append(op.reason)
        return op


# ---------------------------------------------------------------- metrics

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timed_op(ledger, workload, seed, g):
    _, duration, _ = WORKLOADS[workload]
    return ledger.add(Op(workload, sub_seed(seed, g), duration), fp_key=(workload, g))


def setup_op(ledger, workload):
    # A 1 us traffic window: process start, topology build, pregeneration,
    # the scenario's fixed drain tail, post-processing and exit. The inputs
    # are the same in every run: the drain tail's work depends on the seed
    # (a grid of 27 set-ups takes 5-27 ms across seeds), which would swamp
    # the set-up cost itself.
    return ledger.add(Op(workload, SETUP_SEED, SETUP_DURATION_MS, check_output=False),
                      fp_key=(workload, "setup"))


def host_speed(ledger):
    """Seconds the host-speed reference loop took, or None if it failed."""
    proc = Proc([str(REFERENCE)], WORK / "reference.txt")
    outcome = Outcome(1)
    try:
        seconds = float((WORK / "reference.txt").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        seconds = None
    if proc.code != 0 or not seconds or seconds <= 0:
        outcome.fail(f"host reference exit {proc.code}")
        seconds = None
    ledger.add(outcome)
    return seconds


def sample(ledger, workload, seed, g):
    """Sample g: REPEATS runs on inputs g, each after a host-speed reference
    run and followed by SETUPS set-up runs. Returns ({metric: [value]}, the
    reference times, the last good op). Times are the fastest repeat's or
    set-up's (each repeats identical work), memory the largest."""
    values = {k: [] for k in END_TO_END}
    refs, best = [], None
    for _ in range(REPEATS):
        refs.append(host_speed(ledger))
        op = timed_op(ledger, workload, seed, g)
        values["setup_s"] += [setup_op(ledger, workload).proc.wall for _ in range(SETUPS)]
        if op.failed:
            continue
        pkts = op.total("queue_delay_samples")
        values["wall_ns_per_pkt"].append(op.proc.wall * 1e9 / pkts)
        values["cpu_ns_per_pkt"].append(op.proc.cpu * 1e9 / pkts)
        values["peak_rss_mb"].append(op.proc.rss_mb)
        best = op
    for k in ("wall_ns_per_pkt", "cpu_ns_per_pkt", "setup_s"):
        values[k] = [min(values[k])] if values[k] else []
    values["peak_rss_mb"] = [max(values["peak_rss_mb"])] if values["peak_rss_mb"] else []
    return values, [r for r in refs if r is not None], best


def to_reference_host(values, refs):
    """Medians of `values`, with the times scaled by nominal / fastest
    reference run: the host's common slowdown cancels."""
    scale = REFERENCE_NOMINAL_S / min(refs) if refs else 1.0
    return {k: statistics.median(v) * (1.0 if k == "peak_rss_mb" else scale)
            for k, v in values.items() if v}


def run_layer_metrics(op):
    """Per-layer metrics read from one good run's JSON (summed over sweep
    points)."""
    events = op.total("sim_events")
    packets = op.total("queue_delay_samples")
    metrics = {
        "sim.events": events,
        "sim.ns_per_event": op.total("wall_ms") * 1e6 / max(1, events),
        "tm.dequeues": packets,
        "run.ns_per_packet": op.total("wall_ms") * 1e6 / max(1, packets),
        "core.expelled": op.total("expelled"),
        "tm.drops": op.total("drops"),
        "net.mailbox_staged": op.total("mailbox_staged_events"),
        "engine.windows_run": op.total("windows_run"),
        "engine.windows_executed": op.total("windows_executed"),
    }
    if all("rtos" in r for r in op.rows):
        metrics["transport.rtos"] = op.total("rtos")
    return metrics


def trace_metrics(path):
    """Per-shard sums over a Chrome trace; None if any ring filled up."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") != "M"]
    per_shard = {}
    busy, core, barrier, drain = {}, {}, 0.0, 0.0
    rtos = 0
    lo, hi = float("inf"), 0.0
    for e in events:
        tid, name = e["tid"], e["name"]
        ts, dur = float(e["ts"]), float(e.get("dur", 0))
        per_shard[tid] = per_shard.get(tid, 0) + 1
        lo, hi = min(lo, ts), max(hi, ts + dur)
        if name == "window.execute":
            busy[tid] = busy.get(tid, 0.0) + dur
        elif name == "run.core":
            core[tid] = core.get(tid, 0.0) + dur
        elif name in ("barrier.plan", "barrier.window"):
            barrier += dur
        elif name == "mailbox.drain":
            drain += dur
        elif name == "conn.rto":
            rtos += 1
    if not events or max(per_shard.values()) >= RING_CAPACITY:
        return None
    # Serial runs have no window.execute spans: their run.core is the busy time.
    busy_us = sum(busy.get(t, core.get(t, 0.0)) for t in per_shard)
    accounted = busy_us + barrier + drain
    return {
        "engine.busy_ms": busy_us / 1e3,
        "engine.barrier_ms": barrier / 1e3,
        "engine.drain_ms": drain / 1e3,
        "engine.barrier_pct": 100.0 * barrier / accounted,
        "engine.drain_pct": 100.0 * drain / accounted,
        "engine.parallel_efficiency": busy_us / ((hi - lo) * len(per_shard)),
        "rto_instants": rtos,
    }


def traced_metrics(ledger, workload, seed):
    """The traced run of `workload` and its untraced twin (same inputs)."""
    _, _, trace_ms = WORKLOADS[workload]
    trace_path = WORK / "trace.json"
    s = sub_seed(seed, 0)
    traced = Op(workload, s, trace_ms, trace=trace_path, point=True)
    metrics = None if traced.failed else trace_metrics(trace_path)
    if metrics is None:
        traced.fail("trace ring reached capacity")
    ledger.add(traced)
    plain = ledger.add(Op(workload, s, trace_ms, point=True))
    if metrics is None or plain.failed:
        return {}
    metrics["trace.overhead"] = traced.rows[0]["wall_ms"] / plain.rows[0]["wall_ms"]
    return metrics


def ladder_metrics(ledger, trial_seconds):
    out = WORK / "ladder.json"
    proc = Proc([str(LADDER), f"--trial-seconds={trial_seconds:g}"], out)
    values = {}
    try:
        values = json.loads(out.read_text()) if proc.code == 0 else {}
    except ValueError:
        pass
    missing = [r for r in LADDER_RUNGS if r not in values]
    outcome = Outcome(1)
    if proc.code != 0 or missing:
        outcome.fail(f"ladder exit {proc.code}, missing {missing[:3]}")
    ledger.add(outcome)
    return {k: values[k] for k in LADDER_RUNGS if k in values}


def traced_layer_metrics(run_metrics, traced):
    """The traced run's metrics; its RTO count stands in for transport.rtos
    where the run JSON has none (the fabric runner does not count RTOs)."""
    rtos = traced.pop("rto_instants", None)
    if "transport.rtos" not in run_metrics and rtos is not None:
        traced["transport.rtos"] = rtos
    return traced


# ---------------------------------------------------------------- modes

def single_workload(workload, seed, seconds, trace):
    ledger = Ledger()
    if trace:
        # Leave ~6 s for the timed and traced runs; each ladder rung runs a
        # probe and 3 trials.
        trial = min(0.1, max(0.005, (seconds - 6) / (len(LADDER_RUNGS) * 3.5)))
        values = ladder_metrics(ledger, trial)
        op = timed_op(ledger, workload, seed, 0)
        if not op.failed:
            values.update(run_layer_metrics(op))
        values.update(traced_layer_metrics(values, traced_metrics(ledger, workload, seed)))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()
                   if k in values}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e_metrics(ledger, workload, seed, seconds).items()}
        fp = ledger.first_fp.get((workload, 0))
        print(f"fingerprint {workload} seed {sub_seed(seed, 0)}: {fp}")
    for reason in ledger.reasons:
        log(f"run.py: FAILED: {reason}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def e2e_metrics(ledger, workload, seed, seconds):
    """Samples until the next one would overrun `seconds`. One reference
    scale covers the whole run: host slowdowns last minutes, and the fastest
    of all the run's reference runs is the steadiest estimate."""
    pooled = {k: [] for k in END_TO_END}
    refs = []
    start = time.perf_counter()
    g = 0
    while True:
        values, sample_refs, _ = sample(ledger, workload, seed, g)
        for k, v in values.items():
            pooled[k] += v
        refs += sample_refs
        g += 1
        elapsed = time.perf_counter() - start
        if g >= MIN_SAMPLES and elapsed * (g + 1) / g > seconds:
            return to_reference_host(pooled, refs)


def suite(seed, record):
    names = list(WORKLOADS)
    ledgers = {w: Ledger() for w in names}
    samples = {w: {k: [] for k in END_TO_END} for w in names}
    layer_samples = {w: {} for w in names}
    for r in range(ROUNDS):
        # One reference scale per round (~12 s), like one per run in
        # single-workload mode. Rotate the start so no workload always
        # follows the same neighbour.
        round_values, round_refs = {}, []
        for w in names[r % len(names):] + names[:r % len(names)]:
            log(f"round {r + 1}/{ROUNDS}: {w}")
            round_values[w], refs, op = sample(ledgers[w], w, seed, r)
            round_refs += refs
            if op is not None:
                for k, v in run_layer_metrics(op).items():
                    layer_samples[w].setdefault(k, []).append(v)
        for w, values in round_values.items():
            for k, v in to_reference_host(values, round_refs).items():
                samples[w][k].append(v)
    log("layer ladder")
    ladder_ledger = Ledger()
    ladder = ladder_metrics(ladder_ledger, 0.1)
    traced = {}
    for w in names:
        log(f"traced run: {w}")
        traced[w] = traced_layer_metrics(layer_samples[w],
                                         traced_metrics(ledgers[w], w, seed))

    results = []

    def add(workload, metric, unit, values):
        values = [float(v) for v in values]
        q1, q3 = quartiles(values)
        results.append({"workload": workload, "metric": metric, "unit": unit,
                        "median": statistics.median(values), "q1": q1, "q3": q3,
                        "n": len(values), "samples": values})

    for w in names:
        for k, unit in END_TO_END.items():
            if samples[w][k]:
                add(w, k, unit, samples[w][k])
        led = ledgers[w]
        add(w, "failed_frac", "ratio", [led.failed / max(1, led.attempted)])
        for k, v in layer_samples[w].items():
            add(w, k, PER_LAYER[k], v)
        for k, v in traced[w].items():
            add(w, k, PER_LAYER[k], [v])
    for k, v in ladder.items():
        add("ladder", k, PER_LAYER[k], [v])

    all_ledgers = list(ledgers.values()) + [ladder_ledger]
    attempted = sum(x.attempted for x in all_ledgers)
    failed = sum(x.failed for x in all_ledgers)
    for x in all_ledgers:
        for reason in x.reasons:
            log(f"run.py: FAILED: {reason}")
    fingerprints = {w: ledgers[w].first_fp.get((w, 0)) for w in names}
    doc = {"seed": seed, "rounds": ROUNDS, "nproc": len(os.sched_getaffinity(0)),
           "correct": failed == 0, "attempted": attempted, "failed": failed,
           "fingerprints": fingerprints, "results": results}
    log(f"{'workload':28} {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for r in results:
        log(f"{r['workload']:28} {r['metric']:34} {r['median']:12.6g} {r['q1']:12.6g} "
            f"{r['q3']:12.6g} {r['n']:3d}  {r['unit']}")
    for w, fp in fingerprints.items():
        log(f"fingerprint {w} seed {sub_seed(seed, 0)}: {fp}")
    if record:
        entry = {"commit": git_commit(), "date": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
            "nproc": doc["nproc"], "results": doc}
        with open(HISTORY, "a") as f:
            f.write(json.dumps(entry) + "\n")
    print(json.dumps(doc))
    return 0 if failed == 0 else 1


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def self_test():
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end does not match run.py")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != PER_LAYER:
        problems.append("BENCHMARK.json per_layer does not match run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match run.py")

    tiny = {"star_choking_occamy": 50, "fabric_alltoall_dt": 1,
            "fabric_websearch_occamy_x2": 1, "star_scheme_grid": 2}
    ledger = Ledger()
    for w, ms in tiny.items():
        for _ in range(2):
            ledger.add(Op(w, 1, ms), fp_key=(w, 0))
        setup_op(ledger, w)
        traced = traced_metrics(ledger, w, 1)
        missing = [k for k in ("engine.busy_ms", "trace.overhead") if k not in traced]
        if missing:
            problems.append(f"{w}: traced run gave no {missing}")
        log(f"self-test: {w}: failed {ledger.failed}/{ledger.attempted}")
    if sorted(ladder_metrics(ledger, 0.002)) != sorted(LADDER_RUNGS):
        problems.append("ladder rungs differ from LADDER_RUNGS")
    problems += ledger.reasons

    # Fault 1: a command that exits 1 (occamy_sim rejects an unknown scenario).
    faulty = Ledger()
    argv = [str(SIM), "run", "--scenario=no_such_scenario", f"--json={WORK / 'run.json'}"]
    faulty.add(Op("star_choking_occamy", 1, 50, argv_override=argv))
    if faulty.failed / faulty.attempted != 1:
        problems.append(f"exit-1 fault not counted: {faulty.failed}/{faulty.attempted}")
    # Fault 2: a repeat of the same inputs reports another fingerprint.
    faulty = Ledger()
    faulty.add(Op("fabric_alltoall_dt", 1, 1), fp_key="x")
    changed = Op("fabric_alltoall_dt", 1, 1)
    changed.fingerprint = "forced-to-differ"
    faulty.add(changed, fp_key="x")
    if faulty.failed / faulty.attempted != 0.5:
        problems.append(f"fingerprint fault not counted: {faulty.failed}/{faulty.attempted}")

    for p in problems:
        log(f"self-test: FAIL: {p}")
    log("self-test: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    # A terminated run still kills and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="append the suite result to benchmark/history.jsonl")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not 0 <= args.seed < 10**9:
        parser.error("--seed must be in [0, 1e9)")
    if not 0 < args.seconds <= 170:
        parser.error("--seconds must be in (0, 170]")
    if args.record and (args.workload or args.self_test):
        parser.error("--record applies to the suite only")
    build()
    if args.self_test:
        return self_test()
    if args.workload:
        return single_workload(args.workload, args.seed, args.seconds, args.trace)
    return suite(args.seed, args.record)


if __name__ == "__main__":
    sys.exit(main())
