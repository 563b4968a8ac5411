#!/usr/bin/env python3
"""Exit-status tests for scripts/check_perfbench.py over tiny fixtures.

Run directly or through ctest (check_perfbench_test):

    python3 tests/scripts/check_perfbench_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                      "scripts", "check_perfbench.py")

CONTEXT = {"affinity_cores": 4, "service_threads": 3, "simd_level": "avx512",
           "build_type": "Release", "seed": 1}
# ns_per_member is better lower, pool_efficiency better higher
# (BENCHMARK.json per_layer).
BASELINE = {"workloads": {"hub_release": {
    "context": CONTEXT, "runs": 5,
    "metrics": {"ldp.rr.ns_per_member": 2.0,
                "service.release.pool_efficiency": 0.9}}}}


def run_output(ns_per_member, pool_efficiency=0.9, context=CONTEXT,
               rr_name="ldp.rr.ns_per_member"):
    """The standard output of one traced perfbench run."""
    metrics = {rr_name: {"value": ns_per_member, "unit": "ns"},
               "service.release.pool_efficiency":
                   {"value": pool_efficiency, "unit": "ratio"}}
    return "\n".join([
        "workload hub_release  seed 1  trace 1",
        "context  " + json.dumps(context),
        "check    ok   unbiased: z = 0.1",
        json.dumps({"correct": True, "attempted": 10, "failed": 0,
                    "metrics": metrics})]) + "\n"


class CheckPerfbenchTest(unittest.TestCase):

    def run_check(self, *outputs):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, "baseline.json")]
            with open(paths[0], "w") as f:
                json.dump(BASELINE, f)
            for i, text in enumerate(outputs):
                paths.append(os.path.join(tmp, f"run{i}.txt"))
                with open(paths[-1], "w") as f:
                    f.write(text)
            result = subprocess.run([sys.executable, SCRIPT] + paths,
                                    capture_output=True, text=True)
        return result.returncode, result.stdout

    def test_median_within_threshold_passes(self):
        # One slow run out of three: the median (2.2, +10%) passes.
        code, out = self.run_check(run_output(2.1), run_output(3.5),
                                   run_output(2.2))
        self.assertEqual(code, 0, out)
        self.assertIn("ok", out)

    def test_regression_beyond_threshold_fails(self):
        code, out = self.run_check(run_output(2.5), run_output(2.6),
                                   run_output(2.7))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL hub_release ldp.rr.ns_per_member", out)

    def test_higher_is_better_direction_comes_from_benchmark_json(self):
        code, out = self.run_check(run_output(2.0, pool_efficiency=0.6))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL hub_release service.release.pool_efficiency", out)
        code, out = self.run_check(run_output(2.0, pool_efficiency=1.5))
        self.assertEqual(code, 0, out)

    def test_context_mismatch_is_skipped(self):
        other = dict(CONTEXT, affinity_cores=2)
        code, out = self.run_check(run_output(9.0, context=other))
        self.assertEqual(code, 0, out)
        self.assertIn("skip hub_release", out)
        self.assertIn("affinity_cores (4 -> 2)", out)

    def test_renamed_metric_fails(self):
        code, out = self.run_check(run_output(2.0, rr_name="ldp.rr.ns"))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL hub_release ldp.rr.ns_per_member: missing", out)

    def test_workload_without_runs_fails(self):
        text = run_output(2.0).replace("workload hub_release",
                                       "workload hot_set_read")
        code, out = self.run_check(text)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL hub_release: no run", out)

    def test_last_line_is_a_baseline_of_the_medians(self):
        code, out = self.run_check(run_output(1.0), run_output(3.0),
                                   run_output(2.0))
        regenerated = json.loads(out.strip().splitlines()[-1])
        entry = regenerated["workloads"]["hub_release"]
        self.assertEqual(entry["runs"], 3)
        self.assertEqual(entry["context"], CONTEXT)
        self.assertEqual(entry["metrics"]["ldp.rr.ns_per_member"], 2.0)

    def test_output_that_is_not_perfbench_is_malformed(self):
        code, _ = self.run_check("hello\n")
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
