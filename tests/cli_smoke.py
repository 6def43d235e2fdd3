#!/usr/bin/env python3
"""End-to-end checks of the occamy_sim binary: the files it writes and its
stdout.

Usage: tests/cli_smoke.py OCCAMY_SIM [CliSmokeTest.test_<case>...]

ctest runs each case as its own entry (cli_smoke.<case>). What a gtest can
check through cli::Main, RunScenario or RunPoint lives in tests/cli_test.cc
and tests/fault_test.cc; the cases here need the real binary: --json=PATH,
the sweep and figure output directories, trace files read by
tools/check_trace.py, stdout that is exactly one JSON object or the
profile report, and the --help texts that README.md shows verbatim. The
trace and profile cases need an OCCAMY_TRACE=ON build.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
CHECK_TRACE = os.path.join(ROOT, "tools", "check_trace.py")
SIM = None  # set from argv in __main__


class CliSmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def sim(self, *args):
        """Runs occamy_sim; returns its stdout, failing on a non-zero exit."""
        proc = subprocess.run([SIM, *args], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0,
                         f"occamy_sim {' '.join(args)}: {proc.stderr}")
        return proc.stdout

    def run_json(self, *args):
        """Runs `occamy_sim run`; its stdout must be exactly one object."""
        doc = json.loads(self.sim("run", *args))
        self.assertIsInstance(doc, dict)
        return doc

    def check_trace(self, trace, required):
        proc = subprocess.run(
            [sys.executable, CHECK_TRACE, trace, f"--require={required}"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_json_path(self):
        out = self.path("out.json")
        stdout = self.sim("--scenario=incast", "--bm=occamy", "--scale=smoke",
                          f"--json={out}")
        self.assertEqual(stdout, "")
        with open(out) as f:
            doc = json.load(f)
        self.assertEqual(doc["scenario"], "incast")
        self.assertGreater(doc["delivered_bytes"], 0)

    # 2 scenarios x 3 schemes x 2 seeds on 2 jobs.
    def test_sweep(self):
        out = self.path("sweep")
        self.sim("sweep", "--scenarios=incast,websearch",
                 "--bms=dt,occamy,pushout", "--seeds=2", "--jobs=2",
                 "--scale=smoke", "--duration-ms=5", f"--out={out}")
        with open(os.path.join(out, "runs.jsonl")) as f:
            runs = [json.loads(line) for line in f]
        self.assertEqual(len(runs), 12)
        self.assertEqual([r["run_key"] for r in runs if not r["ok"]], [])
        self.assertTrue(all(r["delivered_bytes"] > 0 for r in runs))
        keys = [r["run_key"] for r in runs]
        self.assertEqual(keys, sorted(set(keys)))
        with open(os.path.join(out, "summary.csv")) as f:
            self.assertEqual(len(f.readlines()) - 1, 6)

    # The full paper grid: 2 schemes x 3 alphas x 6 burst sizes, one CSV
    # row per (scheme, cell).
    def test_fig12(self):
        out = self.path("fig12")
        self.sim("figure", "--name=fig12", "--jobs=2", "--scale=smoke",
                 f"--out={out}")
        with open(os.path.join(out, "runs.jsonl")) as f:
            self.assertEqual(len(f.readlines()), 36)
        with open(os.path.join(out, "summary.csv")) as f:
            self.assertEqual(len(f.readlines()) - 1, 36)

    # A 1-shard star and a 4-shard fabric; barrier.window needs 2+ shards.
    def test_trace(self):
        star = self.path("star_trace.json")
        doc = self.run_json("--scenario=burst_absorption", "--bm=occamy",
                            "--scale=smoke", "--duration-ms=2", "--shards=1",
                            f"--trace={star}")
        self.assertEqual(doc["shards"], 1)
        self.assertGreaterEqual(doc["schema_version"], 6)
        self.check_trace(star, "barrier.plan,window.execute,run.core")
        fabric = self.path("fabric_trace.json")
        doc = self.run_json("--scenario=websearch", "--bm=occamy",
                            "--scale=smoke", "--duration-ms=2", "--shards=4",
                            f"--trace={fabric}")
        self.assertEqual(doc["shards"], 4)
        self.check_trace(fabric, "barrier.window,window.execute,mailbox.drain")

    def test_profile(self):
        report = self.sim("profile", "--scenario=websearch", "--bm=occamy",
                          "--scale=smoke", "--duration-ms=2", "--shards=4")
        self.assertIn("barrier overhead:", report)
        self.assertIn("4 shard(s)", report)
        report = self.sim("profile", "--scenario=incast", "--bm=occamy",
                          "--scale=smoke")
        self.assertIn("barrier overhead:", report)
        report = self.sim("profile", "--scenario=burst_absorption",
                          "--bm=occamy", "--scale=smoke", "--duration-ms=2")
        self.assertIn("window batching:", report)

    # README.md shows each subcommand's --help verbatim, so the option
    # lists there are the ones the flag table prints.
    def test_usage(self):
        with open(os.path.join(ROOT, "README.md")) as f:
            readme = f.read()
        for sub in ([], ["sweep"], ["figure"]):
            usage = self.sim(*sub, "--help")
            self.assertIn("Options:", usage)
            self.assertIn(usage, readme,
                          f"occamy_sim {' '.join(sub + ['--help'])} differs "
                          "from its block in README.md")


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.access(sys.argv[1], os.X_OK):
        print("usage: cli_smoke.py OCCAMY_SIM [CliSmokeTest.test_<case>...]",
              file=sys.stderr)
        sys.exit(2)
    SIM = sys.argv[1]
    unittest.main(argv=[sys.argv[0], *sys.argv[2:]])
