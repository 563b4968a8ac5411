"""Self-tests of perfbench/stats.py.

Run with `python3 -m unittest discover -s perfbench -p 'test_*.py'`;
perfbench/run.py also runs them before every benchmark run and refuses to
report if any fails.
"""

import math
import unittest

import stats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))  # 100 samples
        # p99 leaves 1 sample beyond, p90 leaves exactly 10.
        self.assertEqual(stats.tail_percentile(values), (90.0, 90))

    def test_thousand_samples_reach_p99(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail_percentile(values), (99.0, 990))

    def test_just_below_threshold_falls_back(self):
        values = list(range(1, 100))  # 99 samples: p90 has 9 beyond
        self.assertEqual(stats.tail_percentile(values), (50.0, 50))

    def test_order_does_not_matter(self):
        values = list(range(2000, 0, -1))
        self.assertEqual(stats.tail_percentile(values), (99.0, 1980))

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(19))))
        self.assertEqual(stats.tail_percentile(list(range(1, 21))), (50.0, 10))


class SharesTest(unittest.TestCase):
    def test_shares_sum_to_one(self):
        ok, shares = stats.check_shares({"a": 6.0, "b": 3.0}, 10.0)
        self.assertTrue(ok)
        self.assertAlmostEqual(shares["a"], 0.6)
        self.assertAlmostEqual(shares["unaccounted"], 0.1)
        self.assertAlmostEqual(sum(shares.values()), 1.0)

    def test_overshoot_beyond_tolerance_fails(self):
        ok, shares = stats.check_shares({"a": 10.6}, 10.0)
        self.assertFalse(ok)
        self.assertLess(shares["unaccounted"], -0.05)
        ok, _ = stats.check_shares({"a": 10.4}, 10.0)
        self.assertTrue(ok)

    def test_low_coverage_fails(self):
        ok, _ = stats.check_shares({"a": 4.9}, 10.0)
        self.assertFalse(ok)
        ok, _ = stats.check_shares({"a": 5.0}, 10.0)
        self.assertTrue(ok)

    def test_zero_total_fails(self):
        self.assertEqual(stats.check_shares({"a": 1.0}, 0.0), (False, {}))


class SpreadAndBiasTest(unittest.TestCase):
    def test_quartile_spread(self):
        values = [8, 9, 10, 11, 12]
        q1, _, q3 = 8.5, 10, 11.5
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / 10)

    def test_mean_z(self):
        self.assertEqual(stats.mean_z([1.0, 1.0, 1.0]), 0.0)
        self.assertAlmostEqual(stats.mean_z([-1.0, 1.0]), 0.0)
        # mean 2, sd sqrt(2/3), n 4: z = 2 / (sqrt(2/3) / 2)
        self.assertAlmostEqual(stats.mean_z([1.0, 2.0, 3.0, 2.0]),
                               2.0 / (math.sqrt(2.0 / 3.0) / 2.0))


if __name__ == "__main__":
    unittest.main()
