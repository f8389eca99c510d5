"""Self-tests of the benchmark's own arithmetic and of BENCHMARK.json's
contract limits.

Run from the repository root (no ``repro`` import needed)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import re
import unittest
from unittest import mock

import arith
import common
import compare
import metrics
from spans import ROOT as ROOT_SPAN
from spans import SpanRecorder, self_times


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sibling_spans(self) -> None:
        # op:  root [0, 10]
        #        a [1, 4]      -> a1 [2, 3]
        #        b [5, 9]      -> b1 [6, 7], b1 [7, 8.5]
        spans = [
            ("bench.op", 0.0, 10.0, -1, 0),
            ("net.a", 1.0, 4.0, 0, 0),
            ("net.a1", 2.0, 3.0, 1, 0),
            ("store.b", 5.0, 9.0, 0, 0),
            ("store.b1", 6.0, 7.0, 3, 0),
            ("store.b1", 7.0, 8.5, 3, 0),
        ]
        totals = self_times(spans)
        self.assertAlmostEqual(totals.self_s["bench.op"], 3.0)
        self.assertAlmostEqual(totals.self_s["net.a"], 2.0)
        self.assertAlmostEqual(totals.self_s["net.a1"], 1.0)
        self.assertAlmostEqual(totals.self_s["store.b"], 1.5)
        self.assertAlmostEqual(totals.self_s["store.b1"], 2.5)
        self.assertEqual(totals.calls["store.b1"], 2)
        self.assertAlmostEqual(totals.total_s["store.b"], 4.0)
        layers = totals.layer_self_s()
        self.assertAlmostEqual(layers["net"], 3.0)
        self.assertAlmostEqual(layers["store"], 4.0)
        self.assertAlmostEqual(sum(layers.values()), 10.0)

    def test_spans_outside_operations_are_left_out(self) -> None:
        spans = [
            ("store.get", 0.0, 5.0, -1, -1),
            ("bench.op", 5.0, 6.0, -1, 0),
            ("store.get", 5.2, 5.6, 1, 0),
        ]
        totals = self_times(spans)
        self.assertAlmostEqual(totals.self_s["store.get"], 0.4)
        self.assertEqual(totals.calls["store.get"], 1)

    def test_recorder_parents_nested_calls(self) -> None:
        recorder = SpanRecorder()
        inner = recorder._wrap(lambda: 3, "net.route")
        outer = recorder._wrap(lambda: inner() + inner(), "net.lookup")
        with recorder.operation():
            self.assertEqual(outer(), 6)
        outer()  # outside any operation
        recorded = list(recorder.spans())
        self.assertEqual(
            [(name, parent, op) for name, _s, _e, parent, op in recorded[:4]],
            [(ROOT_SPAN, -1, 0), ("net.lookup", 0, 0),
             ("net.route", 1, 0), ("net.route", 1, 0)],
        )
        self.assertEqual(recorded[4][4], -1)
        # Results are summed inside operations only, like the totals.
        self.assertEqual(recorder.result_sums["net.route"], 6)
        totals = recorder.totals()
        self.assertEqual(totals.calls["net.route"], 2)
        self.assertEqual(totals.calls["net.lookup"], 1)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self) -> None:
        samples = list(range(1, 101))
        self.assertEqual(arith.percentile(samples, 50), 50)
        self.assertEqual(arith.percentile(samples, 99), 99)
        self.assertEqual(arith.percentile(samples, 100), 100)

    def test_p99_needs_ten_samples_beyond(self) -> None:
        self.assertEqual(arith.samples_beyond(1000, 99), 10)
        self.assertEqual(arith.samples_beyond(999, 99), 9)
        samples = list(range(1000))
        p99 = arith.tail(samples, 99)
        self.assertEqual(sum(1 for s in samples if s > p99), 10)
        with self.assertRaises(ValueError):
            arith.tail(list(range(999)), 99)

    def test_spread_is_interquartile_share_of_median(self) -> None:
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, median, q3 = arith.quartiles(values)
        self.assertEqual(median, 100.0)
        self.assertAlmostEqual(arith.spread(values), (q3 - q1) / 100.0)


class ComparisonTest(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_worse_beyond_bound(self) -> None:
        change = [v * 0.8 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.15), "worse")
        self.assertEqual(compare.verdict(self.PARENT, change, "lower", 0.15), "ok")
        slower = [v * 1.2 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, slower, "lower", 0.15), "worse")

    def test_within_bound_is_ok(self) -> None:
        change = [v * 0.9 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.15), "ok")

    def test_unresolved_when_parent_spreads_wider_than_bound(self) -> None:
        parent = [60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = list(parent)
        self.assertEqual(compare.verdict(parent, change, "higher", 0.15), "unresolved")
        # ...unless every change run beats every parent run.
        better = [200.0 + v for v in parent]
        self.assertEqual(compare.verdict(parent, better, "higher", 0.15), "ok")

    def test_claimed_gain_rule(self) -> None:
        faster = [v * 1.2 for v in self.PARENT]
        self.assertTrue(compare.claimed_gain(self.PARENT, faster, "higher"))
        self.assertFalse(compare.claimed_gain(self.PARENT, faster, "lower"))
        # Wins every pair, but by less than the parent's own spread.
        nudged = [v + 0.01 for v in self.PARENT]
        self.assertFalse(compare.claimed_gain(self.PARENT, nudged, "higher"))
        # A large median gain that wins only 8 of 10 pairs.
        mixed = [v * 1.5 for v in self.PARENT[:8]] + [50.0, 50.0]
        self.assertFalse(compare.claimed_gain(self.PARENT, mixed, "higher"))


class HostSpeedTest(unittest.TestCase):
    def test_interval_scaled_by_mean_of_bracketing_calibrations(self) -> None:
        reference = common.REFERENCE_CALIBRATION_S
        readings = iter([2 * reference, 4 * reference, reference])
        with mock.patch.object(common, "calibration_s", lambda: next(readings)):
            speed = common.HostSpeed()
            # calibrated at 2x and 4x the reference: the host ran 3x slow
            self.assertAlmostEqual(speed.scale(), 1 / 3)
            # the next interval starts from the 4x reading
            self.assertAlmostEqual(speed.scale(), 1 / 2.5)

    def test_disabled_never_calibrates(self) -> None:
        def fail() -> float:
            raise AssertionError("calibrated")

        with mock.patch.object(common, "calibration_s", fail):
            speed = common.HostSpeed(enabled=False)
            self.assertEqual(speed.scale(), 1.0)
            self.assertEqual(speed.timed(sum, [1, 2])[0], 3)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkSpecTest(unittest.TestCase):
    def test_contract_limits(self) -> None:
        spec = metrics.SPEC
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for workload in spec["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"])
        )


if __name__ == "__main__":
    unittest.main()
