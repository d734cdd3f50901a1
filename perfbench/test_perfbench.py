#!/usr/bin/env python3
"""The benchmark's own checks, on a second seed.

Runs every workload in both modes on seed 7 (a seed not used while writing
the benchmark) with short runs, and requires every correctness check to
pass and every metric named in BENCHMARK.json to be reported. Also checks
that run.py and the harness reject unknown and malformed flags.

Run from anywhere:  python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
HARNESS = ROOT / ".bench_build" / "perfbench_harness"
SEED = "7"
WORKLOADS = ["ycsb_p4db", "smallbank_noswitch", "tpcc_p4db", "ycsb_openloop_t2"]


def run(cmd):
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)


class SecondSeedTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_mode(self, trace, section):
        names = {m["name"]: m["unit"] for m in self.spec[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                result = run(RUN + ["--workload", workload, "--seed", SEED,
                                    "--seconds", "1", "--trace", trace])
                self.assertEqual(result.returncode, 0,
                                 result.stdout + result.stderr)
                out = json.loads(result.stdout.strip().splitlines()[-1])
                self.assertEqual(set(out), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(out["correct"], result.stdout)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(set(out["metrics"]), set(names))
                for name, unit in names.items():
                    self.assertEqual(out["metrics"][name]["unit"], unit)

    def test_end_to_end(self):
        self.check_mode("0", "end_to_end")

    def test_per_layer(self):
        self.check_mode("1", "per_layer")


class StrictArgumentsTest(unittest.TestCase):
    def test_run_py_rejects_bad_flags(self):
        for args in (["--bogus"], ["--seed", "abc"], ["--seed=-1"],
                     ["--seconds", "0"], ["--trace", "2"],
                     ["--workload", "nope"], ["--see", "1"]):
            with self.subTest(args=args):
                result = run(RUN + args)
                self.assertEqual(result.returncode, 2, result.stderr)
                self.assertIn("usage:", result.stderr)
                self.assertEqual(result.stdout, "")

    def test_harness_rejects_bad_flags(self):
        if not HARNESS.exists():
            self.skipTest("harness not built yet")
        for args in (["--workload", "ycsb_p4db", "--bogus", "1"],
                     ["--workload", "ycsb_openloop_t2", "--threads=abc"],
                     ["--workload", "ycsb_openloop_t2", "--threads", "abc"],
                     ["--workload", "ycsb_openloop_t2", "--threads", "0"],
                     ["--workload", "ycsb_p4db", "--threads", "2"],
                     ["--workload", "ycsb_p4db", "--seed", "12x"],
                     ["--workload", "ycsb_p4db", "--seed"],
                     ["--workload", "ycsb_p4db", "--mode", "trace"],
                     ["--workload", "nope"], []):
            with self.subTest(args=args):
                result = run([str(HARNESS)] + args)
                self.assertEqual(result.returncode, 2, result.stderr)
                self.assertIn("usage:", result.stderr)
                self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
