#!/usr/bin/env python3
"""Exit-status tests for scripts/check_bench_scale.py over tiny fixtures.

Run directly or through ctest (check_bench_scale_test):

    python3 tests/scripts/check_bench_scale_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                      "scripts", "check_bench_scale.py")


def entry(draws, metric, value, candidates=256):
    return {
        "shape": {"draws": draws, "exponent": 2.1},
        "candidates": candidates,
        "simd_level": "scalar",
        "scale_metric": {"name": metric, "value": value,
                         "higher_is_better": True},
    }


BASELINE = {
    "bench": "ext_batch",
    "scale": [entry(100000, "planned_qps", 1000.0),
              entry(1200000, "planned_qps", 500.0)],
}


class CheckBenchScaleTest(unittest.TestCase):

    def run_check(self, current):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("baseline.json", BASELINE),
                              ("current.json", current)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            result = subprocess.run([sys.executable, SCRIPT] + paths,
                                    capture_output=True, text=True)
        return result.returncode, result.stdout

    def test_matched_metric_within_threshold_passes(self):
        code, out = self.run_check(
            {"bench": "ext_batch",
             "scale": [entry(100000, "planned_qps", 950.0)]})
        self.assertEqual(code, 0, out)
        self.assertIn("ok", out)

    def test_absent_entry_is_skipped(self):
        # The 1.2M point is not in the current run at all: skip, exit 0.
        code, out = self.run_check(
            {"bench": "ext_batch",
             "scale": [entry(100000, "planned_qps", 1000.0)]})
        self.assertEqual(code, 0, out)
        self.assertIn("skip", out)

    def test_renamed_metric_fails(self):
        # Same axes, but the metric the baseline gates on is gone.
        code, out = self.run_check(
            {"bench": "ext_batch",
             "scale": [entry(100000, "service_qps", 1000.0)]})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_regression_beyond_threshold_fails(self):
        code, out = self.run_check(
            {"bench": "ext_batch",
             "scale": [entry(100000, "planned_qps", 790.0)]})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)


if __name__ == "__main__":
    unittest.main()
