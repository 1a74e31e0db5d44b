"""Tests for the end-to-end benchmark's statistics and output format.

    python3 -m unittest discover -s bench/e2e

The last test builds the benchmark and runs `run.py --smoke` (about a
minute on a 4-core host once built).
"""

import json
import pathlib
import random
import statistics
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        random.Random(3).shuffle(values)
        self.assertEqual(run.percentile(values, 0.5), 5)
        self.assertEqual(run.percentile(values, 0.75), 8)
        self.assertEqual(run.percentile(values, 0.9), 9)
        self.assertEqual(run.percentile(values, 0.99), 10)
        self.assertEqual(run.percentile(values, 0.0), 1)

    def test_returns_a_sample_never_an_interpolation(self):
        values = [1.0, 2.0, 100.0]
        for q in (0.1, 0.5, 0.66, 0.67, 0.99):
            self.assertIn(run.percentile(values, q), values)

    def test_empty(self):
        self.assertEqual(run.percentile([], 0.5), 0.0)


class RatiosTest(unittest.TestCase):
    def test_stage_sum(self):
        stages = [[1.0, 1.0, 1.0], [8.0, 9.0, 10.0], [0.5, 0.5, 0.5]]
        untraced = [0, 0, 0]
        ratio = run.stage_sum_ratio(stages, [10.0, 10.5, 11.0], untraced)
        self.assertAlmostEqual(ratio, 9.5 / 10.0)
        self.assertTrue(run.stage_sum_ok(ratio))
        self.assertTrue(run.stage_sum_ok(1.09))
        self.assertFalse(run.stage_sum_ok(0.85))
        self.assertFalse(run.stage_sum_ok(1.2))
        self.assertEqual(run.stage_sum_ratio(stages, [], []), 0.0)
        # A failed step leaves the series unpaired.
        self.assertEqual(run.stage_sum_ratio(stages, [10.0, 10.5], [0, 0]),
                         0.0)

    def test_stage_sum_ignores_slow_spells(self):
        # Stages peaking on different steps: the sum of the stage medians
        # (18) would overstate a step (10).
        stages = [[1.0, 9.0, 9.0], [9.0, 9.0, 1.0]]
        self.assertAlmostEqual(
            run.stage_sum_ratio(stages, [10.0, 18.0, 10.0], [0, 0, 0]), 1.0)
        # The host slowed most replays, then most served steps.
        self.assertAlmostEqual(
            run.stage_sum_ratio([[10.0, 16.0, 16.0, 16.0]],
                                [15.0, 15.0, 10.0, 15.0], [0, 0, 0, 0]), 1.0)
        # Replays of traced steps are not drawn from.
        self.assertAlmostEqual(
            run.stage_sum_ratio([[10.0, 5.0]], [10.0, 5.0], [0, 1]), 1.0)

    def test_stage_sum_uses_untraced_steps(self):
        raw = synthetic_raw()
        raw["series"]["calib.latency_ms"] = [100.0, 1000.0] * 20
        raw["series"]["calib.trace_on"] = [0, 1] * 20
        raw["series"]["stage.iteration_ms"] = [96.0] * 40
        ratio = run.per_layer(raw)["core.stage_sum_ratio"]
        self.assertAlmostEqual(ratio, 1.0)

    def test_relative_spread_matches_the_stability_rule(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.8, 10.1, 9.7, 10.3]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.relative_spread(values), (q3 - q1) / q2)

    def test_overhead(self):
        self.assertAlmostEqual(
            run.overhead_pct([10.0, 11.0, 10.0, 11.0], [0, 1, 0, 1]), 10.0)
        self.assertEqual(run.overhead_pct([1.0, 2.0], [0, 0]), 0.0)


def synthetic_raw():
    """The series and scalars bench_e2e records, with made-up values."""
    series = {"setup_s": [3.0, 3.4, 2.9, 3.1, 9.0]}
    steps = [270.0 + i for i in range(40)]
    series["calib.latency_ms"] = steps
    series["calib.trace_on"] = [0] * 40
    series["calib.accuracy"] = [0.8, 0.9] * 20
    for stage in run.STAGES + ["cpu_ms", "featurize_predict_ms",
                               "trial_forward_ms", "churn",
                               "code_delta_l1"]:
        series["stage." + stage] = [1.0] * 40
    series["stage.gemm_wide"] = [10.0] * 40
    series["stage.gemm_narrow"] = [90.0] * 40
    series["span.calib_queue_ms"] = [0.05, 0.06]
    series["span.calib_exec_ms"] = [280.0, 290.0]
    scalars = {"peak_rss_kb": 65536, "attempted": 45}
    return {"env": {"workload": "calib_har"}, "series": series,
            "scalars": scalars, "failures": []}


class OutputFormatTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_every_listed_metric(self):
        for trace in (False, True):
            result = run.result_for(self.spec, synthetic_raw(), trace)
            listed = self.spec["per_layer" if trace else "end_to_end"]
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in listed))
            self.assertTrue(result["correct"])
            self.assertEqual(result["attempted"], 45)
            json.dumps(result)

    def test_headline_definitions(self):
        e2e = run.end_to_end(synthetic_raw())
        self.assertEqual(e2e["calib_step_ms_p50"], 289.0)
        self.assertEqual(e2e["peak_rss_mb"], 64.0)
        # The median set-up: one slow set-up does not move it.
        self.assertEqual(e2e["setup_s"], 3.1)
        layer = run.per_layer(synthetic_raw())
        self.assertEqual(layer["calib.step_ms_tail"], 299.0)
        self.assertAlmostEqual(layer["calib.accuracy"], 0.85)
        self.assertEqual(layer["tensor.kernels.gemm_calls_per_step"], 100.0)
        self.assertAlmostEqual(layer["tensor.kernels.gemm_wide_share"], 0.1)

    def test_calibration_tail_skips_traced_steps(self):
        raw = synthetic_raw()
        raw["series"]["calib.latency_ms"] = [
            900.0 if i % 2 else 270.0 + i for i in range(40)]
        raw["series"]["calib.trace_on"] = [i % 2 for i in range(40)]
        layer = run.per_layer(raw)
        # The 15th of the 20 untraced steps 270, 272, ..., 308.
        self.assertEqual(layer["calib.step_ms_tail"], 298.0)

    def test_an_unmeasured_metric_marks_the_run_incorrect(self):
        raw = synthetic_raw()
        raw["series"]["calib.latency_ms"] = []
        self.assertFalse(run.result_for(self.spec, raw, False)["correct"])

    def test_failed_check_marks_the_run_incorrect(self):
        raw = synthetic_raw()
        raw["failures"] = [["calib.served_matches_pipeline", "differs"]]
        self.assertFalse(run.result_for(self.spec, raw, False)["correct"])

    def test_bounds_are_at_most_a_quarter(self):
        names = set()
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            names.add(m["name"])
        self.assertIn("setup_s", names)
        self.assertEqual(max(m["bound"] for m in self.spec["end_to_end"]),
                         next(m["bound"] for m in self.spec["end_to_end"]
                              if m["name"] == "setup_s"))


class SmokeTest(unittest.TestCase):
    def test_smoke_pass(self):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=1800)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        self.assertIn("smoke: ok", done.stdout)
        spec = run.load_spec()
        for w in spec["workloads"]:
            for m in spec["end_to_end"] + spec["per_layer"]:
                self.assertIn(f"{m['name']}{{workload={w['name']}}} ",
                              done.stdout)


if __name__ == "__main__":
    unittest.main()
