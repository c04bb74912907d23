#!/usr/bin/env python3
"""Runs scripts/check_bench_regression.py on synthetic BENCH artifacts and
checks that drift warnings follow each metric's better direction.

Usage: check_bench_regression_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "check_bench_regression.py")


def metric(name, value, unit, **extra):
    return dict(name=name, value=value, unit=unit, **extra)


class DriftDirectionTest(unittest.TestCase):

    def run_check(self, reference, current):
        """Writes both artifacts and returns (exit code, stderr)."""
        with tempfile.TemporaryDirectory() as tmp:
            baselines = os.path.join(tmp, "baselines")
            os.mkdir(baselines)
            for directory, metrics in ((baselines, reference),
                                       (tmp, current)):
                with open(os.path.join(directory, "BENCH_synthetic.json"),
                          "w") as f:
                    json.dump({"bench": "synthetic", "seed": 1,
                               "metrics": metrics}, f)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baselines", baselines,
                 os.path.join(tmp, "BENCH_synthetic.json")],
                capture_output=True, text=True, check=False)
            return proc.returncode, proc.stderr

    def assert_warns(self, reference, current, name):
        code, err = self.run_check(reference, current)
        self.assertEqual(code, 0, err)
        self.assertIn("WARN: ", err)
        self.assertIn(f"'{name}'", err)

    def assert_quiet(self, reference, current):
        code, err = self.run_check(reference, current)
        self.assertEqual(code, 0, err)
        self.assertNotIn("WARN", err)

    def test_latency_rise_warns(self):
        self.assert_warns([metric("BM_Remedy", 100.0, "ns")],
                          [metric("BM_Remedy", 200.0, "ns")], "BM_Remedy")

    def test_latency_drop_is_quiet(self):
        self.assert_quiet([metric("BM_Remedy", 40000.0, "ns")],
                          [metric("BM_Remedy", 4000.0, "ns")])

    def test_rate_drop_warns(self):
        self.assert_warns([metric("plans_per_s", 5000.0, "plans/s")],
                          [metric("plans_per_s", 1000.0, "plans/s")],
                          "plans_per_s")

    def test_rate_rise_is_quiet(self):
        self.assert_quiet([metric("plans_per_s", 1000.0, "plans/s")],
                          [metric("plans_per_s", 5000.0, "plans/s")])

    def test_counts_are_excluded(self):
        for unit in ("count", "cumulative", "sum", "entries", "candidates",
                     "steps", "threads", "bool"):
            self.assert_quiet([metric("n", 100.0, unit)],
                              [metric("n", 1.0, unit)])
            self.assert_quiet([metric("n", 1.0, unit)],
                              [metric("n", 100.0, unit)])

    def test_ambiguous_units_stay_higher_is_better(self):
        self.assert_warns([metric("speedup", 5.0, "x")],
                          [metric("speedup", 1.0, "x")], "speedup")
        self.assert_quiet([metric("speedup", 1.0, "x")],
                          [metric("speedup", 5.0, "x")])

    def test_explicit_better_field_wins(self):
        self.assert_warns(
            [metric("error", 0.1, "rel", better="lower")],
            [metric("error", 0.5, "rel", better="lower")], "error")
        self.assert_quiet(
            [metric("error", 0.5, "rel", better="lower")],
            [metric("error", 0.1, "rel", better="lower")])

    def test_histogram_mean_marked_lower_is_better(self):
        # bench_common.h AppendMetricsSnapshot marks runtime-histogram means
        # (unit "mean") lower-is-better; unmarked they read as higher.
        self.assert_warns(
            [metric("estimate.latency_us.mean", 10.0, "mean",
                    better="lower")],
            [metric("estimate.latency_us.mean", 20.0, "mean",
                    better="lower")], "estimate.latency_us.mean")
        self.assert_quiet(
            [metric("estimate.latency_us.mean", 20.0, "mean",
                    better="lower")],
            [metric("estimate.latency_us.mean", 10.0, "mean",
                    better="lower")])

    def test_hard_floor_still_fails(self):
        code, err = self.run_check(
            [], [metric("speedup", 2.0, "x", baseline=5.0)])
        self.assertEqual(code, 1)
        self.assertIn("hard floor", err)


if __name__ == "__main__":
    unittest.main()
