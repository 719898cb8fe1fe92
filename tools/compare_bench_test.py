#!/usr/bin/env python3
"""Self-test for compare_bench.py: the drift, floor and pair gates pass what
they should and fail what they should, and no floor or pair can pass by
naming a benchmark that is not there.

Usage: python3 tools/compare_bench_test.py   (exit 0 when every case holds)
"""
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_bench  # noqa: E402


def doc(ops):
    """An arnet-bench-v1 document with one row per {name: ops_per_sec}."""
    latency = dict.fromkeys(("mean", "p50", "p90", "p99", "min", "max"), 1.0)
    return {"schema": "arnet-bench-v1", "suite": "selftest", "benchmarks": [
        {"name": name, "iterations": 3, "wall_time_s": 1.0, "ops_per_sec": v,
         "sim_events": 0, "sim_events_per_sec": 0.0, "latency_ns": latency}
        for name, v in ops.items()]}


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="compare_bench_test_")

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def write(self, name, ops):
        path = os.path.join(self.tmp, name)
        with open(path, "w") as f:
            json.dump(doc(ops), f)
        return path

    def run_main(self, *args):
        """Exit code and stdout of compare_bench.main on `args`."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = compare_bench.main(["compare_bench.py", *args])
        return rc, out.getvalue()

    def test_floor_missing_from_both_files_fails(self):
        base = self.write("base.json", {"A": 100.0})
        rc, out = self.run_main("--threshold", "100", "--floor", "NoSuchCase=3.0", base, base)
        self.assertEqual(rc, 1)
        self.assertIn("NoSuchCase: floor x3 set but missing from baseline and candidate", out)

    def test_floor_missing_from_one_side_fails(self):
        base = self.write("base.json", {"A": 100.0, "B": 100.0})
        cand = self.write("cand.json", {"A": 400.0})
        rc, out = self.run_main("--threshold", "100", "--floor", "B=2", base, cand)
        self.assertEqual(rc, 1)
        self.assertIn("B: floor x2 set but missing from candidate", out)
        rc, out = self.run_main("--threshold", "100", "--floor", "B=2", cand, base)
        self.assertEqual(rc, 1)
        self.assertIn("B: floor x2 set but missing from baseline", out)

    def test_floor_met_and_not_met(self):
        base = self.write("base.json", {"A": 100.0})
        cand = self.write("cand.json", {"A": 300.0})
        self.assertEqual(self.run_main("--floor", "A=3.0", base, cand)[0], 0)
        rc, out = self.run_main("--floor", "A=3.5", base, cand)
        self.assertEqual(rc, 1)
        self.assertIn("floor x3.5", out)

    def test_drift_past_threshold_fails(self):
        base = self.write("base.json", {"A": 100.0, "B": 100.0})
        slower = self.write("slower.json", {"A": 85.0, "B": 79.0})
        rc, out = self.run_main(base, slower)
        self.assertEqual(rc, 1)
        self.assertIn("FAIL     B", out)
        self.assertIn("ok       A", out)
        self.assertEqual(self.run_main("--threshold", "25", base, slower)[0], 0)

    def test_pair_with_missing_name_fails(self):
        path = self.write("run.json", {"T/off": 100.0, "T/on": 98.0})
        self.assertEqual(self.run_main("--pair", "T/off:T/on:1.05", path)[0], 0)
        rc, out = self.run_main("--pair", "T/off:T/gone:1.05", path)
        self.assertEqual(rc, 1)
        self.assertIn("'T/gone' missing", out)


if __name__ == "__main__":
    unittest.main()
