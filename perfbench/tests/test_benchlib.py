"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchlib  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_highest_percentile_with_ten_samples_beyond(self):
        # 1000 samples: 10 lie beyond p99, only 1 beyond p99.9.
        p, value, n = benchlib.tail_percentile(list(range(1000)))
        self.assertEqual((p, n), (99.0, 1000))
        self.assertEqual(value, 989)
        # 999 samples leave 9.99 beyond p99: fall back to p90.
        self.assertEqual(benchlib.tail_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(benchlib.tail_percentile(list(range(10000)))[0], 99.9)
        self.assertEqual(benchlib.tail_percentile(list(range(20)))[0], 50.0)

    def test_too_few_samples(self):
        self.assertIsNone(benchlib.tail_percentile(list(range(19))))
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_refusals_sort_last(self):
        self.assertEqual(benchlib.percentile([1, 2, math.inf], 99), math.inf)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(benchlib.self_times([(-1, 10, 30)]), [20])

    def test_children_are_subtracted(self):
        spans = [(-1, 0, 100), (0, 10, 30), (0, 50, 60), (1, 12, 20)]
        self.assertEqual(benchlib.self_times(spans), [70, 12, 10, 8])

    def test_overlapping_children_count_once(self):
        spans = [(-1, 0, 100), (0, 10, 40), (0, 30, 50)]
        self.assertEqual(benchlib.self_times(spans)[0], 60)

    def test_child_outside_parent_is_clipped(self):
        # A child that outlives its parent (another fiber ended it later).
        spans = [(-1, 0, 100), (0, 90, 150)]
        self.assertEqual(benchlib.self_times(spans)[0], 90)


def rung(rate, latencies):
    return rate, list(range(len(latencies))), latencies


class LadderTest(unittest.TestCase):
    LIMIT = 20

    def test_highest_passing_rate(self):
        rungs = [rung(100, [5] * 100), rung(110, [19] * 100), rung(121, [25] * 100)]
        self.assertEqual(benchlib.max_rate(rungs, self.LIMIT), 110)

    def test_refusals_count_as_misses(self):
        # 2 of 100 refused puts p99 beyond any limit, though every served
        # request was fast.
        refused = [1] * 98 + [-1, -1]
        rungs = [rung(100, [5] * 100), rung(110, refused)]
        self.assertEqual(benchlib.max_rate(rungs, self.LIMIT), 100)
        # One refusal in 100 stays within p99.
        self.assertEqual(benchlib.max_rate([rung(110, [1] * 99 + [-1])], self.LIMIT), 110)

    def test_growing_backlog_fails_the_rung(self):
        growing = [1] * 50 + [4] * 50  # last quarter 4x the second
        self.assertTrue(benchlib.backlog_growing(list(range(100)), growing))
        self.assertEqual(benchlib.max_rate([rung(100, growing)], self.LIMIT), 0.0)
        self.assertFalse(benchlib.backlog_growing(list(range(100)), [3] * 100))

    def test_backlog_uses_arrival_order(self):
        latencies = [1] * 50 + [4] * 50
        arrivals = list(range(99, -1, -1))  # reversed: the slow ones arrived first
        self.assertFalse(benchlib.backlog_growing(arrivals, latencies))

    def test_nothing_passes(self):
        self.assertEqual(benchlib.max_rate([rung(100, [50] * 100)], self.LIMIT), 0.0)


def result(**provenance):
    base = {"workload": "serve", "seconds": 10, "trace": 0, "build_type": "Release",
            "params": {"serve": {"hi_rate": 2500}}}
    base.update(provenance)
    return {"schema": benchlib.RESULT_SCHEMA, "provenance": base,
            "metrics": {"virt_s": {"value": 1.0, "unit": "virt_s"}}}


class ComparabilityTest(unittest.TestCase):
    def test_same_parameters_compare(self):
        benchlib.check_comparable(result(seed=1), result(seed=2))

    def test_parameter_mismatch_is_refused(self):
        other = result(params={"serve": {"hi_rate": 3000}})
        with self.assertRaises(benchlib.ComparisonRefused):
            benchlib.check_comparable(result(), other)
        for key, value in (("workload", "sor"), ("seconds", 5), ("build_type", "Debug")):
            with self.assertRaises(benchlib.ComparisonRefused):
                benchlib.check_comparable(result(), result(**{key: value}))

    def test_schema_mismatch_is_refused(self):
        other = result()
        other["schema"] = benchlib.RESULT_SCHEMA + 1
        with self.assertRaises(benchlib.ComparisonRefused):
            benchlib.check_comparable(result(), other)

    def test_metric_set_mismatch_is_refused(self):
        other = result()
        other["metrics"]["extra"] = {"value": 1.0, "unit": "s"}
        with self.assertRaises(benchlib.ComparisonRefused):
            benchlib.check_comparable(result(), other)


if __name__ == "__main__":
    unittest.main()
