"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats as bs  # noqa: E402
import run  # noqa: E402


def span(name, start, end, parent, round_id=1):
    return [name, start, end, parent, round_id]


class BestOfRoundsTest(unittest.TestCase):
    def test_best_is_fastest_round(self):
        self.assertEqual(bs.best([0.28, 0.13, 0.2]), 0.13)

    def test_best_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.best([])

    def test_each_op_keeps_its_own_fastest_round(self):
        rounds = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 2.0, 0.5]]
        self.assertEqual(bs.best_per_op(rounds), [2.0, 1.0, 0.5])

    def test_rounds_with_different_op_counts_are_rejected(self):
        with self.assertRaises(ValueError):
            bs.best_per_op([[1.0, 2.0], [1.0]])

    def test_job_and_rates_take_each_piece_at_its_best_round(self):
        def log(i, seconds, a, b, ops):
            return {"id": i, "seconds": seconds, "traced": False, "ops": ops,
                    "stages": {"sim.missrate:a": a, "sim.missrate:b": b}}
        raw = {
            "setup": [{"id": i, "seconds": s, "stages": {}, "ops": []}
                      for i, s in enumerate((0.5, 0.4, 0.6))],
            "work": {"record": 2e6, "sim.missrate": 8e6},
            "setup_work": {},
            "peak_rss_mb": 50.0,
            "modelled": {name: 1.0 for name in run.MODELLED},
        }
        # Round 1 leaves 0.3 s outside its pieces, round 2 leaves 0.1 s.
        measured = [log(1, 2.0, 1.0, 0.3, [0.1, 0.3]),
                    log(2, 1.5, 0.6, 0.5, [0.2, 0.1])]
        m = run.end_to_end(raw, measured)
        self.assertEqual(m["setup_s"], 0.4)
        self.assertAlmostEqual(m["job_s"], 0.6 + 0.3 + 0.1 + 0.1 + 0.1)
        self.assertAlmostEqual(m["record_mev_per_s"], 2.0 / 0.2)
        self.assertAlmostEqual(m["replay_mev_per_s"], 8.0 / 0.9)
        self.assertAlmostEqual(m["op_ms_p50"], 100.0)


    def test_stage_families_drop_cell_and_call(self):
        self.assertEqual(run.family("sim.missrate:ops/2048/w500000#3"),
                         "sim.missrate")
        self.assertEqual(run.family("trace_io.write#7"), "trace_io.write")
        self.assertEqual(run.family("profile.wcfg"), "profile.wcfg")


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(bs.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(bs.percentile([5], 0.9), 5)
        self.assertAlmostEqual(bs.percentile(range(1, 11), 0.9), 9.1)

    def test_p90_of_100_samples_has_ten_beyond(self):
        value, beyond, ok = bs.tail_percentile(list(range(1, 101)), 0.9)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(beyond, 10)
        self.assertTrue(ok)

    def test_p90_of_90_samples_is_not_a_tail(self):
        _, beyond, ok = bs.tail_percentile(list(range(1, 91)), 0.9)
        self.assertEqual(beyond, 9)
        self.assertFalse(ok)

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        _, beyond, ok = bs.tail_percentile([1.0] * 95 + [2.0] * 5, 0.9)
        self.assertEqual(beyond, 5)
        self.assertFalse(ok)


class SelfTimeTest(unittest.TestCase):
    def test_self_times_sum_to_the_root(self):
        spans = [
            span("round", 0.0, 10.0, -1),
            span("record.test", 1.0, 5.0, 0),
            span("record.op", 1.5, 2.5, 1),
            span("record.op", 3.0, 4.5, 1),
            span("sim.missrate", 6.0, 9.0, 0),
        ]
        selfs = bs.self_times(spans, 0)
        self.assertAlmostEqual(selfs["harness"], 10.0 - 4.0 - 3.0)
        self.assertAlmostEqual(selfs["record"], 4.0)
        self.assertAlmostEqual(selfs["sim"], 3.0)
        self.assertAlmostEqual(sum(selfs.values()), 10.0)

    def test_overlapping_children_are_covered_once(self):
        spans = [
            span("sim.plan", 0.0, 10.0, -1),
            span("sim.missrate", 1.0, 4.0, 0),
            span("backend.ooo", 3.0, 6.0, 0),
        ]
        selfs = bs.self_times(spans, 0)
        self.assertAlmostEqual(selfs["sim"], 10.0 - 5.0 + 3.0)
        self.assertAlmostEqual(selfs["backend"], 3.0)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span("round", 0.0, 2.0, -1), span("core.x", 1.0, 3.0, 0)]
        self.assertAlmostEqual(bs.self_times(spans, 0)["harness"], 1.0)

    def test_other_trees_and_rounds_are_ignored(self):
        spans = [
            span("round", 0.0, 1.0, -1, round_id=1),
            span("sim.seq3", 0.2, 0.4, 0, round_id=1),
            span("round", 2.0, 4.0, -1, round_id=3),
            span("sim.seq3", 2.0, 3.5, 2, round_id=3),
            span("probe", 4.0, 5.0, -1, round_id=3),
        ]
        root = bs.round_root(spans, 3)
        self.assertEqual(root, 2)
        selfs = bs.self_times(spans, root)
        self.assertAlmostEqual(selfs["sim"], 1.5)
        self.assertAlmostEqual(selfs["harness"], 0.5)
        with self.assertRaises(KeyError):
            bs.round_root(spans, 2)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 1.1, 0.9, 1.3, 1.05, 0.95, 1.2, 1.0, 1.02, 0.98]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(bs.spread(values), (q2, q1, q3, (q3 - q1) / q2))


class LabelTest(unittest.TestCase):
    def test_units_come_from_the_declaration(self):
        declared = [{"name": "job_s", "unit": "s"},
                    {"name": "miss_pct", "unit": "%"}]
        self.assertEqual(run.labelled({"miss_pct": 0.6, "job_s": 1.5},
                                      declared),
                         {"job_s": {"value": 1.5, "unit": "s"},
                          "miss_pct": {"value": 0.6, "unit": "%"}})

    def test_undeclared_or_missing_metrics_are_refused(self):
        declared = [{"name": "job_s", "unit": "s"}]
        with self.assertRaises(ValueError):
            run.labelled({"job_s": 1.0, "extra": 2.0}, declared)
        with self.assertRaises(ValueError):
            run.labelled({}, declared)

    def test_end_to_end_computes_every_declared_metric(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        raw = {
            "setup": [{"id": 0, "seconds": 0.5, "stages": {}, "ops": []}],
            "work": {"record": 1e6, "sim.missrate": 1e6},
            "setup_work": {},
            "peak_rss_mb": 50.0,
            "modelled": {name: 1.0 for name in run.MODELLED},
        }
        measured = [{"id": 1, "seconds": 1.0, "traced": False,
                     "ops": [0.1, 0.2], "stages": {"sim.missrate:a": 0.5}}]
        run.labelled(run.end_to_end(raw, measured), bench["end_to_end"])


if __name__ == "__main__":
    unittest.main()
