"""Tests of the quartile-spread rule in ovsbench/spread.py.

    python3 -m unittest discover -s ovsbench/tests
"""

import pathlib
import statistics
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from spread import quartile_spread  # noqa: E402


class QuartileSpreadTest(unittest.TestCase):
    def test_constant_values_have_no_spread(self):
        self.assertEqual(quartile_spread([2.0] * 10), 0.0)

    def test_matches_exclusive_quartiles_over_median(self):
        values = [10, 11, 9, 10, 12, 10, 8, 10, 11, 9]
        # Exclusive-method quartiles of the sorted values 8 9 9 10 10 10 10
        # 11 11 12: Q1 = 9, Q3 = 11, median 10.
        self.assertAlmostEqual(quartile_spread(values), (11 - 9) / 10)

    def test_is_scale_free(self):
        values = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.0, 1.3, 0.8, 1.0]
        scaled = [v * 1000 for v in values]
        self.assertAlmostEqual(quartile_spread(values), quartile_spread(scaled))

    def test_outliers_beyond_the_quartiles_do_not_count(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        with_outlier = base[:-1] + [100.0]
        self.assertLess(quartile_spread(with_outlier), 0.05)

    def test_agrees_with_statistics_module(self):
        values = [3.2, 4.1, 3.9, 3.3, 3.8, 4.4, 3.6, 3.7, 3.5, 4.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(quartile_spread(values),
                               (q3 - q1) / statistics.median(values))


if __name__ == "__main__":
    unittest.main()
