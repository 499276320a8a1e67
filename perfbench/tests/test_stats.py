"""Self-tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 -m unittest discover perfbench/tests
"""

import json
import math
import os
import statistics
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_tail(10))
        self.assertEqual(stats.highest_tail(20), 50.0)
        self.assertEqual(stats.highest_tail(99), 50.0)
        self.assertEqual(stats.highest_tail(100), 90.0)
        self.assertEqual(stats.highest_tail(999), 90.0)
        self.assertEqual(stats.highest_tail(1000), 99.0)
        self.assertEqual(stats.highest_tail(10000), 99.9)

    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(1, 90), 0)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(stats.nearest_rank(values, 50), 50)
        self.assertEqual(stats.nearest_rank(values, 90), 90)
        self.assertEqual(stats.nearest_rank([7.0], 90), 7.0)

    def test_failed_operations_count_as_infinite(self):
        values = [1.0] * 95 + [math.inf] * 5
        self.assertEqual(stats.nearest_rank(values, 90), 1.0)
        values = [1.0] * 89 + [math.inf] * 11
        self.assertEqual(stats.nearest_rank(values, 90), math.inf)

    def test_spread_is_interquartile_share_of_median(self):
        values = [10.0, 11.0, 9.0, 10.0, 12.0, 8.0, 10.0, 10.5, 9.5, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual((q1, q2, q3),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([3.0]), 0.0)


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_and_nested_intervals(self):
        self.assertEqual(stats.union_length([]), 0.0)
        self.assertEqual(stats.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(stats.union_length([(0, 10), (2, 3), (4, 5)]), 10.0)

    def test_wave_minus_expand(self):
        waves = [(0.0, 10.0), (10.0, 20.0)]
        expands = [(1.0, 4.0), (12.0, 19.0)]
        self.assertEqual(stats.self_time(waves[0], expands), 7.0)
        self.assertEqual(stats.total_self_time(waves, expands), 10.0)

    def test_round_minus_trials_on_two_threads(self):
        # Trials overlap each other (two threads); only the union counts.
        trials = [(0.0, 6.0), (1.0, 9.0), (2.0, 3.0)]
        self.assertEqual(stats.self_time((0.0, 10.0), trials), 1.0)
        # A child running past its parent is clipped to the parent.
        self.assertEqual(stats.self_time((0.0, 5.0), [(4.0, 7.0)]), 4.0)
        # Children of other parents do not count.
        self.assertEqual(stats.self_time((0.0, 5.0), [(6.0, 7.0)]), 5.0)

    def test_rpc_overhead_matches_latest_contained_query(self):
        rpcs = [(0.0, 10.0), (1.0, 5.0), (20.0, 21.0)]
        queries = [(2.0, 9.0), (1.5, 4.5)]
        self.assertEqual(stats.match_overheads(rpcs, queries), [3.0, 1.0])


class UsefulFractions(unittest.TestCase):
    def test_ratios_with_their_bases(self):
        # certify-pop16: 89 trials folded of 12 rounds x 8 trials run.
        self.assertAlmostEqual(stats.ratio(89, 12 * 8), 0.9270833333)
        # serve-certify: folded of executed; no work means 0, not an error.
        self.assertEqual(stats.ratio(120, 480), 0.25)
        self.assertEqual(stats.ratio(5, 0), 0.0)


def span(cat, name, ts, dur):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": 1}


def summary(dropped, truncated):
    return {"obs_trace_v": 1, "ph": "M", "name": "obs_summary", "pid": 1,
            "tid": 0, "args": {"written": 7, "dropped": dropped,
                               "truncated": truncated}}


def load(events):
    """run.load_trace of a trace file holding `events`."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.json")
        with open(path, "w") as f:
            json.dump(events, f)
        return run.load_trace(path)


class PerLayerFromTrace(unittest.TestCase):
    def test_incomplete_trace_is_reported(self):
        events = [span("perfbench", "verify", 0, 100e6)]
        self.assertNotEqual(run.trace_loss(load(events)[1]), "")
        self.assertIn("3 dropped", run.trace_loss(
            load(events + [summary(3, 0)])[1]))
        self.assertIn("2 truncated", run.trace_loss(
            load(events + [summary(0, 2)])[1]))

    def test_verify_layers_from_synthetic_trace(self):
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0},
            span("perfbench", "verify", 0, 100e6),
            span("verify", "kernel_run", 0, 80e6),
            span("verify", "wave", 0, 40e6),
            span("verify", "expand", 0, 30e6),
            span("verify", "wave", 40e6, 40e6),
            span("verify", "expand", 40e6, 20e6),
            summary(0, 0),
        ]
        setup = {"setup_s": 0.02, "lower_s": 0.001, "convert_s": 0.019,
                 "transitions": 5, "table_bytes": 64}
        record = {"ops": [{"wall_s": 90.0, "cpu_s": 1, "failure": ""}],
                  "traced_ops": [{"wall_s": 99.0, "cpu_s": 1,
                                  "failure": ""}],
                  "traced": {"isa_compile_s": [0.5], "configs": 160,
                             "edges": 200, "interner_bytes": 4096}}
        spans, footer = load(events)
        self.assertEqual(run.trace_loss(footer), "")
        out = run.per_layer("verify-mregs7", [setup], record, spans)
        self.assertEqual(set(out),
                         {m["name"] for m in run.SPEC["per_layer"]})
        self.assertEqual(out["verify.waves"], 2)
        self.assertAlmostEqual(out["verify.expand_s"], 50.0)
        self.assertAlmostEqual(out["verify.merge_s"], 30.0)
        self.assertAlmostEqual(out["verify.analyse_s"], 20.0)
        self.assertAlmostEqual(out["verify.configs_per_s"], 2.0)
        self.assertAlmostEqual(out["obs.trace_overhead_frac"], 0.1)
        self.assertEqual(out["engine.firings"], 0.0)


if __name__ == "__main__":
    unittest.main()
