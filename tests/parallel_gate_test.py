#!/usr/bin/env python3
"""Decisions of tools/parallel_gate.py, driven by a stub occamy_sim.

The stub is a shell script that logs its command line and prints a fixed
metrics object per engine leg (serial, timed), or fails, so every case runs
in well under a second. The gate runs in-process so that
each case can set the host's core count.
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest
from unittest import mock

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SPEC = importlib.util.spec_from_file_location(
    "parallel_gate", os.path.join(ROOT, "tools", "parallel_gate.py"))
gate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(gate)

# Tells the legs of one gate run apart, then prints that leg's output and
# exits with its code.
STUB = """#!/bin/sh
echo "$*" >> {dir}/calls.log
case "$*" in
  *--shards=1) leg=serial ;;
  *) leg=timed ;;
esac
cat {dir}/$leg.out
exit $(cat {dir}/$leg.code)
"""

MODEL = {"scenario": "alltoall", "delivered_bytes": 5000, "drops": 0,
         "bg_flows_completed": 12, "sim_events": 1860008, "qct_p99_ms": 0.5}


def leg(wall_ms, windows_run, shards, **changes):
    run = dict(MODEL, wall_ms=wall_ms, windows_run=windows_run,
               shards=shards, events_per_sec=1e6, parallel_efficiency=0.6,
               windows_executed=898)
    run.update(changes)
    return run


def legs(**changes):
    """A healthy serial/timed pair of legs, with `changes` per leg."""
    pair = {"serial": leg(600.0, 61, 1, parallel_efficiency=1.0,
                          max_window_batch=16),
            "timed": leg(200.0, 66, 4, max_window_batch=16)}
    for name, value in changes.items():
        if isinstance(value, dict):
            pair[name].update(value)
        else:
            pair[name] = value
    return pair


class ParallelGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "calls.log")

    def tearDown(self):
        self.tmp.cleanup()

    def stub(self, pair):
        """A stub occamy_sim; each leg of `pair` is a metrics dict, raw
        stdout text, or an exit code."""
        for name, out in pair.items():
            code = out if isinstance(out, int) else 0
            if isinstance(out, int):
                out = "boom"
            elif isinstance(out, dict):
                out = json.dumps(out)
            with open(os.path.join(self.tmp.name, f"{name}.out"), "w") as f:
                f.write(out + "\n")
            with open(os.path.join(self.tmp.name, f"{name}.code"), "w") as f:
                f.write(f"{code}\n")
        path = os.path.join(self.tmp.name, "occamy_sim")
        with open(path, "w") as f:
            f.write(STUB.format(dir=self.tmp.name))
        os.chmod(path, 0o755)
        return path

    def gate(self, *args, cores=4):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(gate, "host_cores", return_value=cores), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = gate.main(["parallel_gate.py", *args])
        return code, out.getvalue(), err.getvalue()

    def test_identical_runs_pass_with_bench_core_keys(self):
        code, out, err = self.gate(self.stub(legs()))
        self.assertEqual(code, 0, err)
        report = json.loads(out)
        with open(os.path.join(ROOT, "BENCH_core.json")) as f:
            self.assertEqual(list(report), list(json.load(f)))
        self.assertEqual(report["fabric_parallel_speedup"], 3.0)
        self.assertEqual(report["fabric_parallel_cores"], 4)
        self.assertEqual(report["fabric_parallel_sim_events"], 1860008)
        self.assertEqual(report["fabric_parallel_windows_run"], 66)
        self.assertEqual(report["fabric_parallel_windows_executed"], 898)
        with open(self.log) as f:
            calls = f.read().splitlines()
        run = " ".join(gate.RUN)
        serial, timed = f"{run} --shards=1", f"{run} --shards=4"
        pairs = [[serial, timed] if i % 2 == 0 else [timed, serial]
                 for i in range(gate.ROUNDS)]
        self.assertEqual(calls, [c for pair in pairs for c in pair])

    def test_differing_deterministic_key_fails_naming_it(self):
        code, _, err = self.gate(self.stub(legs(timed={"drops": 7})))
        self.assertEqual(code, 1)
        self.assertIn("the timed", err)
        self.assertIn("drops: 0 vs 7", err)
        code, _, err = self.gate(self.stub(legs(timed={"extra_key": 1})))
        self.assertEqual(code, 1)
        self.assertIn("extra_key: <missing> vs 1", err)

    def test_mailbox_counters_may_differ_across_shard_counts(self):
        # One shard stages nothing; four stage every cross-shard delivery.
        pair = legs(serial={"mailbox_staged_events": 0,
                            "mailbox_drained_events": 0},
                    timed={"mailbox_staged_events": 23516,
                           "mailbox_drained_events": 23516})
        code, _, err = self.gate(self.stub(pair))
        self.assertEqual(code, 0, err)

    def test_batching_that_does_not_cut_rounds_fails(self):
        code, _, err = self.gate(self.stub(legs(timed={"windows_run": 898})))
        self.assertEqual(code, 1)
        self.assertIn("898 barrier rounds for 898 windows executed", err)

    def test_empty_run_fails(self):
        for key in ("bg_flows_completed", "delivered_bytes"):
            pair = legs(**{name: {key: 0} for name in ("serial", "timed")})
            code, _, err = self.gate(self.stub(pair))
            self.assertEqual(code, 1, key)
            self.assertIn("empty run", err)

    def test_failing_or_unreadable_runs_fail(self):
        code, out, err = self.gate(self.stub(legs(timed=3)))
        self.assertEqual(code, 1)
        self.assertIn("exited 3", err)
        self.assertEqual(out, "")
        for bad in ("{", "[1, 2]", json.dumps(dict(MODEL, wall_ms=0)),
                    json.dumps({"wall_ms": 1.0})):
            code, _, err = self.gate(self.stub(legs(serial=bad)))
            self.assertEqual(code, 1, bad)
            self.assertIn("unreadable JSON", err, bad)

    def test_floor_fails_a_slow_run_only_with_enough_cores(self):
        slow = self.stub(legs(timed={"wall_ms": 400.0}))  # 1.5x
        for cores, want in ((3, 0), (4, 1), (64, 1)):
            code, out, err = self.gate(slow, cores=cores)
            self.assertEqual(code, want, f"{cores} cores: {err}")
            self.assertEqual(json.loads(out)["fabric_parallel_speedup"], 1.5)
        self.assertIn("speedup 1.50x < required 2.00x", err)
        code, _, err = self.gate(self.stub(legs(timed={"wall_ms": 300.0})),
                                 cores=8)
        self.assertEqual(code, 0, err)

    def test_usage_errors_exit_2(self):
        sim = self.stub(legs())
        for args in ((), (sim, sim), (os.path.join(self.tmp.name, "none"),),
                     (self.tmp.name,)):
            code, _, err = self.gate(*args)
            self.assertEqual(code, 2, args)
            self.assertIn("usage:", err)
        self.assertFalse(os.path.exists(self.log))


if __name__ == "__main__":
    unittest.main()
