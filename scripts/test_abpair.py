#!/usr/bin/env python3
"""Tests of abpair.py's statistics and verdicts on fixed inputs.

Run: python3 scripts/test_abpair.py
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import abpair  # noqa: E402

# Ten pairs of a lower-is-better metric: the change wins 9 of 10.
BASE = [0.70, 0.66, 0.68, 0.64, 0.67, 0.69, 0.65, 0.71, 0.66, 0.50]
CHANGE = [0.50, 0.48, 0.49, 0.47, 0.51, 0.46, 0.50, 0.49, 0.48, 0.52]


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = abpair.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))

    def test_single_value(self):
        self.assertEqual(abpair.quartiles([3.0]), (3.0, 3.0, 3.0))


class CompareTest(unittest.TestCase):
    def test_gain(self):
        s = abpair.compare(BASE, CHANGE, "lower", bound=0.25, claim=True)
        self.assertEqual(s["wins"], 9)
        self.assertEqual(s["pairs"], 10)
        self.assertAlmostEqual(s["base_median"], 0.665)
        self.assertAlmostEqual(s["change_median"], 0.49)
        q1, _, q3 = abpair.quartiles(BASE)
        self.assertAlmostEqual(s["base_iqr"], q3 - q1)
        self.assertAlmostEqual(s["gap_iqr"], (0.665 - 0.49) / (q3 - q1))
        self.assertAlmostEqual(s["rel"], (0.49 - 0.665) / 0.665)
        self.assertEqual(s["verdict"], "gain")

    def test_eight_wins_is_no_gain(self):
        change = list(CHANGE)
        change[0] = 0.80  # loses pair 1 too: 8 of 10
        s = abpair.compare(BASE, change, "lower", claim=True)
        self.assertEqual(s["wins"], 8)
        self.assertEqual(s["verdict"], "no gain")

    def test_gap_within_iqr_is_no_gain(self):
        base = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        change = [v - 1 for v in base]  # wins every pair by less than the IQR
        s = abpair.compare(base, change, "lower", claim=True)
        self.assertEqual(s["wins"], 10)
        self.assertLess(s["gap_iqr"], 1)
        self.assertEqual(s["verdict"], "no gain")

    def test_higher_is_better(self):
        s = abpair.compare([100, 101, 102], [110, 111, 112], "higher", bound=0.25)
        self.assertEqual(s["wins"], 3)
        self.assertGreater(s["gap_iqr"], 0)
        self.assertEqual(s["verdict"], "within bound")

    def test_bound(self):
        self.assertEqual(abpair.compare([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", bound=0.25)["verdict"],
                         "within bound")
        self.assertEqual(abpair.compare([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", bound=0.25)["verdict"],
                         "worse than bound")
        self.assertEqual(abpair.compare([100, 100, 100], [70, 70, 70], "higher", bound=0.25)["verdict"],
                         "worse than bound")

    def test_zero_iqr_gap_is_infinite(self):
        s = abpair.compare([1.0, 1.0, 1.0], [0.9, 0.9, 0.9], "lower")
        self.assertEqual(s["gap_iqr"], float("inf"))
        self.assertEqual(s["verdict"], "")

    def test_unpaired_runs_refused(self):
        with self.assertRaises(ValueError):
            abpair.compare([1.0, 2.0], [1.0], "lower")


class TableTest(unittest.TestCase):
    def test_row(self):
        s = abpair.compare(BASE, CHANGE, "lower", bound=0.25, claim=True)
        lines = abpair.table("hop", [("latency_p99_ms", "ms", s)]).splitlines()
        self.assertEqual(len(lines), 3)
        self.assertTrue(lines[2].startswith("| hop | latency_p99_ms (ms) | 10 | 0.665 ("))
        self.assertIn("| -26.3% | 9/10 |", lines[2])
        self.assertTrue(lines[2].endswith("| gain |"))


if __name__ == "__main__":
    unittest.main()
