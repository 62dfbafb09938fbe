"""The benchmark's own tests: smoke runs of every workload and corrupted results.

    python3 perfbench/selftest.py

The smoke runs use tiny sizes (verify --n 5, A5/B3/I2(12), 27 queries) and
take a few seconds each.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import coxdepth  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def smoke(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class SmokeRuns(unittest.TestCase):
    def test_declaration_matches_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual(declared("end_to_end"), run.E2E_UNITS)
        self.assertEqual(declared("per_layer"), run.PER_LAYER_UNITS)

    def test_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = smoke(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = declared(section)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                    for name, unit in units.items():
                        self.assertIn("%s %r %s" % (name, result["metrics"][name]["value"], unit), lines)
                    self.assertTrue(any(line.startswith("failed_frac 0.0 ") for line in lines))
                    record = json.loads(lines[0][len("record "):])
                    for key in ("python", "git_head", "nproc", "calibration_before_s", "calibration_after_s",
                                "wall_raw_s_each", "setup_raw_s_each", "kernel_ms_each"):
                        self.assertIn(key, record)

    def test_traced_counts_repeat_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                counts = []
                for _ in range(2):
                    _, result = smoke(workload, 1)
                    counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
                self.assertEqual(counts[0], counts[1])


class Inputs(unittest.TestCase):
    def test_query_inputs_follow_the_seed(self):
        a, digest_a = workloads.query_inputs(7, smoke=False)
        b, digest_b = workloads.query_inputs(7, smoke=False)
        _, digest_c = workloads.query_inputs(8, smoke=False)
        self.assertEqual(a, b)
        self.assertEqual(digest_a, digest_b)
        self.assertNotEqual(digest_a, digest_c)
        self.assertGreaterEqual(len(a), 1000)
        for label, w in a:
            self.assertEqual(sorted(w), list(range(1, len(w) + 1)))
            if label == "avoid321":
                self.assertTrue(coxdepth.is_fc(w))


class CorruptedResults(unittest.TestCase):
    def cayley_results(self):
        results = {}
        for kind, size in (("A", 4), ("B", 3), ("I2", 6)):
            b = coxdepth.build_backend(kind, size)
            results[kind] = (b, coxdepth.depth_oracle(b), coxdepth.reflection_length_oracle(b))
        tables = {k: coxdepth.depth_distribution(k, n).counts for k, n in (("B", 3), ("I2", 6))}
        return results, tables

    def test_cayley_checker_accepts_true_tables(self):
        failures, attempted = workloads.check_cayley(*self.cayley_results())
        self.assertEqual(failures, [])
        self.assertGreater(attempted, 0)

    def test_one_depth_off_by_one_fails(self):
        results, tables = self.cayley_results()
        backend, depths, rlengths = results["A"]
        depths = list(depths)
        depths[5] += 1
        results["A"] = (backend, depths, rlengths)
        failures, attempted = workloads.check_cayley(results, tables)
        self.assertGreater(len(failures) / attempted, 0)
        self.assertIn("oracle depth %d vs stats.depth %d" % (depths[5], depths[5] - 1), failures[0])

    def test_query_checker_names_window_and_values(self):
        w = (2, 1, 4, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
        r = workloads.query(w)
        self.assertEqual(workloads.check_query(w, r), [])
        r["inverse_depth"] += 1
        (fail,) = workloads.check_query(w, r)
        self.assertIn("w=2 1 4 3 5", fail)
        self.assertIn("%r vs %r" % (r["inverse_depth"], r["depth"]), fail)

    def test_raising_calls_are_counted_with_a_witness(self):
        ops = workloads.OpLog()
        failures = workloads.cayley_run((("A", 4), ("Z", 3), ("I2", 6)), ops)
        self.assertEqual(len(failures), 1)
        self.assertIn("cayley: raised ValueError", failures[0])
        self.assertGreater(ops.attempted, 0)
        ops = workloads.OpLog()
        with contextlib.redirect_stderr(io.StringIO()):
            failures = workloads.verify_run(["verify", "--n", "x"], ops)
        self.assertEqual(failures[0], "verify: raised SystemExit(2)")
        self.assertEqual(len(failures), len(workloads.VERIFY_CHECKS))

    def test_verify_checker_counts_fail_lines(self):
        lines = ["PASS " + name for name in workloads.VERIFY_CHECKS]
        self.assertEqual(workloads.check_verify(0, lines), [])
        lines[3] = "FAIL " + workloads.VERIFY_CHECKS[3]
        self.assertEqual(len(workloads.check_verify(1, lines)), 1)
        self.assertEqual(len(workloads.check_verify(1, lines[:-1])), 2)


def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TraceSumCheck(unittest.TestCase):
    def traced_body(self, inside_s, outside_s):
        tr = tracer.Tracer()
        work = tr._wrap(spin, "stats")
        t0 = time.perf_counter()
        work(inside_s)
        spin(outside_s)
        t1 = time.perf_counter()
        os.makedirs(run.OUT_DIR, exist_ok=True)
        return worker._finish_trace(tr, workloads.OpLog(tr), t0, t1, os.path.join(run.OUT_DIR, "selftest-trace.json"))

    def test_attributed_time_passes(self):
        result = self.traced_body(0.05, 0.0)
        self.assertTrue(result["sum_ok"])
        self.assertGreater(result["layers"]["stats"][1], 0.045)

    def test_time_outside_the_wrappers_fails(self):
        result = self.traced_body(0.05, 0.02)
        self.assertFalse(result["sum_ok"])
        self.assertGreater(result["bench_own_s"], 0.015)


class SpeedScaling(unittest.TestCase):
    # ticks every 0.1 s: kernel at 2 ms (reference speed) until t = 1, then 4 ms
    TICKS = [(0.1 * i, 0.1 * i + (0.002 if i < 10 else 0.004)) for i in range(1, 21)]

    def test_ticks_inside_a_span_are_taken_out(self):
        scale = speed.Scale(self.TICKS, ref=0.002, window=0.05)
        self.assertAlmostEqual(scale.net(0.05, 0.35), 0.3 - 3 * 0.002)
        self.assertAlmostEqual(scale.net(0.31, 0.39), 0.08)

    def test_a_slow_phase_is_scaled_to_the_reference(self):
        scale = speed.Scale(self.TICKS, ref=0.002, window=0.05)
        self.assertAlmostEqual(scale.scaled(0.31, 0.39), 0.08)  # nearest tick at full speed
        self.assertAlmostEqual(scale.scaled(1.51, 1.59), 0.04)  # twice as slow: half the time
        # a span across the change takes the mean over its ticks
        self.assertAlmostEqual(scale.factor(0.55, 1.45), 0.002 / ((4 * 0.002 + 5 * 0.004) / 9))

    def test_the_probe_samples_the_timed_body(self):
        with speed.Probe() as probe:
            end = time.perf_counter() + 5 * speed.TICK_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.ticks), 3)
        self.assertEqual(speed.kernel(), 720)


if __name__ == "__main__":
    unittest.main()
