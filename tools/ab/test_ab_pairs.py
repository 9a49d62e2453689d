"""Tests of the pair statistics in tools/ab/ab_pairs.py.

    python3 -m unittest discover -s tools/ab
"""

import math
import pathlib
import statistics
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import ab_pairs  # noqa: E402

LOWER = {"name": "simulate_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "serve_capacity_rps", "unit": "1/s", "better": "higher",
          "bound": 0.25}


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_module(self):
        values = [3.2, 4.1, 3.9, 3.3, 3.8, 4.4, 3.6, 3.7, 3.5, 4.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(ab_pairs.quartiles(values),
                         (q1, statistics.median(values), q3))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(ab_pairs.quartiles([2.5]), (2.5, 2.5, 2.5))


class WinCountTest(unittest.TestCase):
    def test_direction_decides_the_winner(self):
        parent = [1.0, 2.0, 3.0]
        change = [0.5, 2.5, 2.0]
        self.assertEqual(ab_pairs.win_count(parent, change, "lower"), 2)
        self.assertEqual(ab_pairs.win_count(parent, change, "higher"), 1)

    def test_ties_count_for_neither_side(self):
        parent = [1.0, 1.0, 1.0, 2.0]
        change = [1.0, 1.0, 0.5, 2.0]
        self.assertEqual(ab_pairs.win_count(parent, change, "lower"), 1)
        self.assertEqual(ab_pairs.win_count(parent, change, "higher"), 0)


class GainRuleTest(unittest.TestCase):
    parent = [0.166, 0.187, 0.176, 0.170, 0.181, 0.160, 0.175, 0.190, 0.172,
              0.168]

    def test_clear_gain_holds(self):
        change = [0.075, 0.075, 0.070, 0.072, 0.080, 0.071, 0.074, 0.079,
                  0.073, 0.076]
        self.assertTrue(ab_pairs.gain_holds(self.parent, change, "lower"))

    def test_nine_of_ten_wins_suffice_eight_do_not(self):
        change = [v * 0.5 for v in self.parent]
        nine = change[:9] + [self.parent[9] + 0.01]
        eight = change[:8] + [self.parent[8] + 0.01, self.parent[9] + 0.01]
        self.assertTrue(ab_pairs.gain_holds(self.parent, nine, "lower"))
        self.assertFalse(ab_pairs.gain_holds(self.parent, eight, "lower"))

    def test_gap_must_exceed_the_parents_quartile_distance(self):
        q1, median, q3 = ab_pairs.quartiles(self.parent)
        # Every pair won, by a little under and then a little over Q3 - Q1.
        under = [v - 0.9 * (q3 - q1) for v in self.parent]
        over = [v - 1.1 * (q3 - q1) for v in self.parent]
        self.assertEqual(ab_pairs.win_count(self.parent, under, "lower"), 10)
        self.assertFalse(ab_pairs.gain_holds(self.parent, under, "lower"))
        self.assertTrue(ab_pairs.gain_holds(self.parent, over, "lower"))

    def test_higher_is_better_metrics_gain_upwards(self):
        change = [v * 2 for v in self.parent]
        self.assertTrue(ab_pairs.gain_holds(self.parent, change, "higher"))
        self.assertFalse(ab_pairs.gain_holds(self.parent, change, "lower"))

    def test_identical_runs_are_no_gain(self):
        self.assertFalse(
            ab_pairs.gain_holds(self.parent, list(self.parent), "lower"))


class WorseningTest(unittest.TestCase):
    def test_relative_to_the_parents_median(self):
        parent = [1.0, 2.0, 3.0]
        self.assertAlmostEqual(
            ab_pairs.relative_worsening(parent, [2.5, 2.5, 2.5], "lower"), 0.25)
        self.assertAlmostEqual(
            ab_pairs.relative_worsening(parent, [1.5, 1.5, 1.5], "higher"),
            0.25)
        self.assertAlmostEqual(
            ab_pairs.relative_worsening(parent, [1.5, 1.5, 1.5], "lower"),
            -0.25)

    def test_zero_parent_median(self):
        self.assertEqual(
            ab_pairs.relative_worsening([0.0] * 3, [0.1] * 3, "lower"),
            math.inf)
        self.assertEqual(
            ab_pairs.relative_worsening([0.0] * 3, [0.0] * 3, "lower"), 0.0)

    def test_bound_is_exclusive(self):
        parent = [4.0] * 5
        at_bound = ab_pairs.summarize(LOWER, parent, [5.0] * 5)
        past_bound = ab_pairs.summarize(LOWER, parent, [5.01] * 5)
        self.assertFalse(at_bound["worse"])
        self.assertTrue(past_bound["worse"])
        fewer = ab_pairs.summarize(HIGHER, parent, [2.99] * 5)
        self.assertTrue(fewer["worse"])


class SummarizeTest(unittest.TestCase):
    def test_row_fields(self):
        parent = [0.17, 0.16, 0.18]
        change = [0.07, 0.08, 0.07]
        row = ab_pairs.summarize(LOWER, parent, change)
        self.assertEqual(row["wins"], 3)
        self.assertEqual(row["pairs"], 3)
        self.assertFalse(row["identical"])
        self.assertTrue(row["gain"])
        self.assertFalse(row["worse"])
        self.assertIn("simulate_s", ab_pairs.format_row(row))

    def test_identical_values_are_flagged(self):
        row = ab_pairs.summarize(LOWER, [21.6, 21.7], [21.6, 21.7])
        self.assertTrue(row["identical"])
        self.assertIn("identical", ab_pairs.format_row(row))


class LayerSummaryTest(unittest.TestCase):
    TIME = {"name": "sim.run_ms", "unit": "ms", "better": "lower"}
    COUNT = {"name": "sim.vehicle_steps", "unit": "count", "better": "lower"}

    def test_quartiles_per_side_and_no_verdict(self):
        parent = [85.8, 101.0, 102.0, 90.0]
        change = [52.3, 47.3, 51.8, 50.0]
        row = ab_pairs.summarize_layer(self.TIME, parent, change)
        self.assertEqual(row["parent"], ab_pairs.quartiles(parent))
        self.assertEqual(row["change"], ab_pairs.quartiles(change))
        for verdict in ("gain", "worse", "wins"):
            self.assertNotIn(verdict, row)
        line = ab_pairs.format_layer_row(row)
        self.assertIn("sim.run_ms (ms)", line)
        self.assertNotIn("yes", line)
        self.assertNotIn("YES", line)

    def test_counts_say_whether_every_seed_matched(self):
        same = ab_pairs.summarize_layer(self.COUNT, [682909, 690950],
                                        [682909, 690950])
        self.assertIs(same["identical"], True)
        self.assertIn("identical", ab_pairs.format_layer_row(same))
        # Equal medians are not enough: the values must match seed by seed.
        swapped = ab_pairs.summarize_layer(self.COUNT, [682909, 690950],
                                           [690950, 682909])
        self.assertEqual(swapped["parent"], swapped["change"])
        self.assertIs(swapped["identical"], False)
        self.assertIn("differs", ab_pairs.format_layer_row(swapped))

    def test_other_units_are_not_compared_per_seed(self):
        row = ab_pairs.summarize_layer(self.TIME, [1.0, 2.0], [1.0, 2.0])
        self.assertIsNone(row["identical"])
        line = ab_pairs.format_layer_row(row)
        self.assertNotIn("identical", line)
        self.assertNotIn("differs", line)


if __name__ == "__main__":
    unittest.main()
