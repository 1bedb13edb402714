#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 nsbench/test_bench.py

They build the benchmark like run.py does (into $CARGO_TARGET_DIR, default
.bench_build) and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def run_bench(*extra, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "nsbench" / "run.py"), *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


class BenchmarkTest(unittest.TestCase):
    def test_checks_pass_correct_and_fail_tampered_replies(self):
        done = run_bench("--workload", "small_solve", "--seed", "1", "--seconds", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        selftest = subprocess.run([str(BUILD / "nsbench_selftest")], capture_output=True, text=True)
        self.assertEqual(selftest.returncode, 0, selftest.stdout + selftest.stderr)

    def test_tampered_replies_are_counted_as_failures(self):
        every = 10
        done = run_bench("--workload", "small_solve", "--seed", "2", "--seconds", "2",
                         "--tamper-every", str(every))
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(abs(result["failed"] - result["attempted"] / every), 1)

    def test_clean_run_is_correct(self):
        done = run_bench("--workload", "compute_mix", "--seed", "3", "--seconds", "2")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_fails_without_the_source_tree(self):
        bare = BUILD / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "nsbench", bare / "nsbench")
        done = run_bench("--workload", "small_solve", "--seed", "1", "--seconds", "1", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
