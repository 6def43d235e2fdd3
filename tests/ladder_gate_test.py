#!/usr/bin/env python3
"""Decisions of tools/ladder_gate.py, driven by stub ladders.

Each stub is a small shell script that logs its invocation and prints a
fixed ladder JSON (or fails), so every case runs in well under a second.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "ladder_gate.py")

RUNGS = {
    "sim.churn_ns.1k": 100.0,
    "sim.churn_ns.16k": 200.0,
    "sim.churn_ns.128k": 300.0,
    "sim.cancel_ns": 60.0,
    "buffer.enq_deq_ns": 30.0,
    "hw.max_finder_ns.n512": 50.0,
}


class LadderGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "calls.log")

    def tearDown(self):
        self.tmp.cleanup()

    def stub(self, name, body):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(f'#!/bin/sh\necho "{name} $*" >> {self.log}\n{body}\n')
        os.chmod(path, 0o755)
        return path

    def ladder(self, name, **scaled):
        """A stub printing RUNGS, each rung in `scaled` multiplied by its
        factor (None drops the rung)."""
        rungs = {}
        for rung, ns in RUNGS.items():
            factor = scaled.get(rung.replace(".", "_"), 1.0)
            if factor is not None:
                rungs[rung] = ns * factor
        return self.stub(name, f"echo '{json.dumps(rungs)}'")

    def gate(self, *args):
        return subprocess.run([sys.executable, GATE, *args],
                              capture_output=True, text=True)

    def test_equal_ladders_pass_and_alternate(self):
        # An ungated rung may swing past the bound without deciding anything.
        proc = self.gate(self.ladder("base"),
                         self.ladder("change", hw_max_finder_ns_n512=1.43))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        report = json.loads(proc.stdout)
        self.assertTrue(report["ok"])
        self.assertEqual(report["failures"], [])
        self.assertEqual(report["rungs"]["sim.cancel_ns"]["ratio"], 1.0)
        self.assertFalse(report["rungs"]["hw.max_finder_ns.n512"]["gated"])
        with open(self.log) as f:
            calls = f.read().split("\n")[:-1]
        self.assertEqual([c.split()[0] for c in calls],
                         ["base", "change", "change", "base"] * 2 +
                         ["base", "change"])
        self.assertTrue(all(c.endswith(" --trial-seconds=0.05") for c in calls))

    def test_gated_rung_31_percent_slower_fails(self):
        proc = self.gate(self.ladder("base"),
                         self.ladder("change", sim_cancel_ns=1.31))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("sim.cancel_ns: change/base = 1.310 > 1.30", proc.stderr)
        self.assertFalse(json.loads(proc.stdout)["ok"])

    def test_missing_gated_rung_fails(self):
        proc = self.gate(self.ladder("base"),
                         self.ladder("change", buffer_enq_deq_ns=None))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("gated rung buffer.enq_deq_ns missing from the change",
                      proc.stderr)

    def test_failing_ladder_fails(self):
        proc = self.gate(self.ladder("base"),
                         self.stub("change", "echo boom >&2; exit 3"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("exited 3: boom", proc.stderr)

    def test_unreadable_json_fails(self):
        for body in ("echo '{\"sim.cancel_ns\": nan'", "echo '[1, 2]'",
                     "echo '{\"sim.cancel_ns\": 0}'"):
            proc = self.gate(self.stub("base", body), self.ladder("change"))
            self.assertEqual(proc.returncode, 1, body)
            self.assertIn("unreadable JSON", proc.stderr, body)

    def test_usage_errors_exit_2(self):
        ladder = self.ladder("base")
        missing = os.path.join(self.tmp.name, "no_such_ladder")
        for args in ((), (ladder,), (ladder, ladder, ladder), (ladder, missing),
                     (ladder, self.tmp.name)):
            proc = self.gate(*args)
            self.assertEqual(proc.returncode, 2, args)
            self.assertIn("usage:", proc.stderr)
        self.assertFalse(os.path.exists(self.log))


if __name__ == "__main__":
    unittest.main()
