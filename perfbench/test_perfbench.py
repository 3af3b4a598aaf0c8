#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py          # unit checks (seconds)
    python3 perfbench/test_perfbench.py --smoke  # + one short run of every
                                                 #   workload, both modes

The smoke runs check that every metric BENCHMARK.json names is printed,
finite, and carries its unit.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_failures_count_as_infinite(self):
        # 98 answered + 2 failed: the two failures take the top ranks, so
        # p99 (rank 99 of 100) is a failure.
        summary = stats.latency_summary([1.0] * 98, failed=2)
        self.assertEqual(summary["p50"], 1.0)
        self.assertEqual(summary["p99"], stats.INF)
        self.assertEqual(summary["samples"], 100)
        # One failure in 100 sits beyond p99 and leaves it finite.
        self.assertEqual(stats.latency_summary([1.0] * 99, failed=1)["p99"], 1.0)

    def test_samples_beyond_p99(self):
        summary = stats.latency_summary([float(i) for i in range(4000)], 0)
        self.assertEqual(summary["beyond_p99"], 40)
        self.assertEqual(summary["p99"], 3959.0)
        self.assertEqual(stats.latency_summary([1.0] * 100, 0)["beyond_p99"], 1)

    def test_no_values(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class AnswerCheckTest(unittest.TestCase):
    REF = [("a", 0.95), ("b", 0.90), ("c", 0.89995), ("d", 0.80)]

    def test_identical(self):
        self.assertTrue(stats.ranked_match(self.REF, self.REF))

    def test_near_tie_may_swap(self):
        swapped = [("a", 0.95), ("c", 0.89995), ("b", 0.90), ("d", 0.80)]
        # Scores are compared per rank, so the swap leaves 0.89995 at rank
        # 2 against the reference's 0.90: within 1e-4.
        self.assertTrue(stats.ranked_match(swapped, self.REF))

    def test_real_swap_rejected(self):
        swapped = [("b", 0.90), ("a", 0.95), ("c", 0.89995), ("d", 0.80)]
        self.assertFalse(stats.ranked_match(swapped, self.REF))

    def test_near_tie_beyond_the_reference_top_k(self):
        # "z" is not in the reference's top 4 but scores within 1e-4 of the
        # reference's 4th candidate: a near-tie at the cut-off.
        boundary = [("a", 0.95), ("b", 0.90), ("c", 0.89995), ("z", 0.80005)]
        self.assertTrue(stats.ranked_match(boundary, self.REF))
        far = [("a", 0.95), ("b", 0.90), ("c", 0.89995), ("z", 0.70)]
        self.assertFalse(stats.ranked_match(far, self.REF))

    def test_score_drift_rejected(self):
        drift = [("a", 0.9502), ("b", 0.90), ("c", 0.89995), ("d", 0.80)]
        self.assertFalse(stats.ranked_match(drift, self.REF))

    def test_length_must_agree(self):
        self.assertFalse(stats.ranked_match(self.REF[:3], self.REF))

    def test_duplicate_names_in_catalogue(self):
        # Two catalogue entries may share a display name (and a score).
        ref = [("x", 0.9), ("dup", 0.8), ("dup", 0.8)]
        self.assertTrue(stats.ranked_match(list(ref), ref))

    def test_wire_answers(self):
        ref = {"ok": True, "op": "troubleshoot",
               "docs": [{"doc_id": 3, "score": 0.9}, {"doc_id": 4, "score": 0.5}],
               "results": [{"name": "x", "score": 0.7}]}
        served = json.loads(json.dumps(ref))
        self.assertTrue(stats.answers_match(served, ref))
        served["docs"][0]["doc_id"] = 5
        self.assertFalse(stats.answers_match(served, ref))
        self.assertFalse(stats.answers_match({"ok": False}, ref))

    def test_vectors_by_cosine(self):
        ref = {"ok": True, "op": "encode", "vector": [1.0, 2.0, 3.0]}
        close = {"ok": True, "op": "encode", "vector": [1.0, 2.0, 3.0001]}
        far = {"ok": True, "op": "encode", "vector": [3.0, 2.0, 1.0]}
        self.assertTrue(stats.answers_match(close, ref))
        self.assertFalse(stats.answers_match(far, ref))


class CpuAccountingTest(unittest.TestCase):
    def test_proc_stat_with_awkward_command_name(self):
        # utime 250 and stime 50 ticks at 100 Hz = 3000 ms.
        stat = ("4242 (telekit serve) (x)) S 1 2 3 4 5 6 7 8 9 10 250 50 "
                "0 0 20 0 9 0 100 2000 300")
        self.assertEqual(stats.proc_stat_cpu_ms(stat, 100), 3000.0)

    def test_own_process(self):
        with open("/proc/self/stat") as f:
            self.assertGreaterEqual(
                stats.proc_stat_cpu_ms(f.read(), os.sysconf("SC_CLK_TCK")), 0)

    def test_per_request(self):
        before = {1: 100.0, 2: 1000.0}
        after = {1: 400.0, 2: 1100.0}
        self.assertEqual(stats.cpu_ms_per_request(before, after, 200), 2.0)
        with self.assertRaises(ValueError):
            stats.cpu_ms_per_request(before, after, 0)


class SpanTest(unittest.TestCase):
    def test_self_time_excludes_covered_children(self):
        spans = {
            "r": ("request", 0.0, 10.0, None),
            "a": ("a", 1.0, 4.0, "r"),
            "b": ("b", 3.0, 6.0, "r"),     # overlaps a by 1
            "c": ("c", 9.0, 12.0, "r"),    # spills past the parent
            "d": ("d", 1.5, 2.0, "a"),
        }
        out = stats.self_times(spans)
        self.assertAlmostEqual(out["r"], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(out["a"], 2.5)
        self.assertAlmostEqual(out["d"], 0.5)

    def test_ledger_adds_up(self):
        row = {"due": 0.0, "send": 50.0, "recv": 3050.0, "status": "o"}
        reply = {"op": "retrieve", "trace": "1", "timing": {
            "queue_us": 2000.0, "batch_us": 400.0, "encode_us": 100.0,
            "score_us": 200.0, "search_us": 150.0, "total_us": 2400.0}}
        rows = [dict(row, reply=json.dumps(reply))]
        ledger = run.traced_ledger(rows)
        entry = ledger["ledger"]["retrieve"]
        self.assertAlmostEqual(
            sum(entry["layers_us"].values()) + entry["residual_us"],
            entry["e2e_us"])
        self.assertAlmostEqual(entry["layers_us"]["loadgen/send_wait"], 50.0)
        self.assertAlmostEqual(entry["layers_us"]["client/rpc"], 600.0)
        self.assertAlmostEqual(entry["layers_us"]["index/search"], 150.0)
        self.assertAlmostEqual(entry["residual_us"], 0.0)


class TrainSpansTest(unittest.TestCase):
    def test_events_nest_by_depth_and_containment(self):
        events = [
            {"name": "tokenize/corpus", "ts": 10, "dur": 5, "args": {"depth": 1}},
            {"name": "train/pretrain", "ts": 20, "dur": 70, "args": {"depth": 1}},
            {"name": "train/telebert", "ts": 0, "dur": 100, "args": {"depth": 0}},
            {"name": "train/ktb_stl", "ts": 100, "dur": 50, "args": {"depth": 0}},
            {"name": "train/retrain", "ts": 110, "dur": 30, "args": {"depth": 1}},
        ]
        spans = run.nest_events(events)
        parent = {s["name"]: s["parent"] for s in spans}
        self.assertEqual(parent["tokenize/corpus"], 2)
        self.assertEqual(parent["train/pretrain"], 2)
        self.assertEqual(parent["train/retrain"], 3)
        self.assertIsNone(parent["train/telebert"])
        self.assertEqual(spans[1]["end_us"], 90)


class BestOfTest(unittest.TestCase):
    def test_lowest_per_position(self):
        self.assertEqual(stats.best_of([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0]]),
                         [2.0, 1.0, 5.0])

    def test_a_failure_is_never_hidden(self):
        inf = stats.INF
        self.assertEqual(stats.best_of([[1.0, inf], [2.0, 0.5]]), [1.0, inf])

    def test_common_prefix(self):
        self.assertEqual(stats.best_of([[1.0, 2.0, 3.0], [0.5, 4.0]]),
                         [0.5, 2.0])


class ReplayTest(unittest.TestCase):
    """A replica whose window the generator could not keep is not used and
    a new replica is started; with too many such replicas the run is
    invalid (exit 3)."""

    class Replica:
        setup_s = 0.5

        def stop(self):
            pass

        def peak_rss_mb(self):
            return 100.0

    def setUp(self):
        self.saved = (run.start_replica, run.warm, run.measure)
        run.start_replica = self.Replica
        run.warm = lambda replica, run_dir: None

    def tearDown(self):
        run.start_replica, run.warm, run.measure = self.saved

    def fake(self, lateness):
        late = iter(lateness)

        def measure(replica, run_dir, name, keep):
            return {"name": name, "sent": 10, "ok": 9,
                    "lateness_p99_us": next(late)}
        run.measure = measure

    def test_late_replicas_are_replaced(self):
        self.fake([1000.0, 12000.0, 3000.0, 2000.0])
        valid, setups, invalid, sent, failed = run.run_replicas(
            ".", ("untraced",), 3, 10000.0)
        self.assertEqual([v["untraced"]["lateness_p99_us"] for v in valid],
                         [1000.0, 3000.0, 2000.0])
        self.assertEqual(len(setups), 4)
        self.assertEqual(invalid, [{"window": "untraced", "replica": 2,
                                    "lateness_p99_us": 12000.0}])
        self.assertEqual((sent, failed), (40, 4))

    def test_too_many_late_replicas(self):
        self.fake([1000.0] + [12000.0] * (run.SPARE_REPLICAS + 2))
        with self.assertRaises(run.BenchError) as caught:
            run.run_replicas(".", ("untraced",), 3, 10000.0)
        self.assertEqual(caught.exception.code, 3)


class SmokeTest(unittest.TestCase):
    """One short run of each workload in both modes."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        expected = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])

    def test_workloads(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


def load_tests(loader, tests, pattern):
    suite = unittest.TestSuite()
    for case in (PercentileTest, BestOfTest, AnswerCheckTest,
                 CpuAccountingTest, SpanTest, TrainSpansTest, ReplayTest):
        suite.addTests(loader.loadTestsFromTestCase(case))
    if SMOKE:
        suite.addTests(loader.loadTestsFromTestCase(SmokeTest))
    return suite


SMOKE = "--smoke" in sys.argv
if __name__ == "__main__":
    if SMOKE:
        sys.argv.remove("--smoke")
    unittest.main()
