"""Benchmark driver: run one workload, check its answers, print its metrics.

    python3 perfbench/run.py --workload verify-n8 --seed 1 --seconds 40 --trace 0

Run from a source checkout; coxdepth is imported from its src/ directory.
Every repetition of the workload runs in a fresh single-threaded process
with one closed-loop caller (worker.py). Repetitions continue while another
one fits in --seconds. Times are scaled to a reference machine speed,
sampled all through each repetition (speed.py); the record keeps them as
measured too. wall_s is the median over the repetitions. Each timed op (a
verify check, an oracle call, a query) is scored by its median over the
repetitions; the latency percentiles are taken over the queries' scores, or
are the whole job's time on the two exhaustive workloads. Set-up time is
the median over the repetitions and over processes that stop at the first
timed call; peak RSS is the median over the repetitions.

With --trace 1 the same untraced repetitions fill half of --seconds, then
one more repetition runs with every public function of every coxdepth module
wrapped (tracer.py), giving the per-layer metrics. Its spans are written to
perfbench/out/. --smoke shrinks every workload to a few seconds.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("verify-n8", "cayley-a8b5", "queries-large-n")
# Workloads whose ops are independent queries. The other two are one request
# each, like `coxdepth verify --n 8`, so their query latency is the whole job.
PER_OP_QUERIES = ("queries-large-n",)
LAYERS = ("perm_core", "stats", "decomp", "groups", "oracle", "bijections", "patterns", "enumeration", "cli")
COUNTS = ("groups.elements", "oracle.elements", "oracle.edges", "oracle.factorizations")
SETUP_PROBES = 20
HARD_LIMIT_S = 170  # every run must be over well within 180 s


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "query_p50_ms": "ms", "query_p99_ms": "ms"}
PER_LAYER_UNITS = {
    **{"%s.%s" % (layer, kind): unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **dict.fromkeys(COUNTS, "count"),
    "trace.overhead_s": "s",
}


def calibrate():
    """Seconds for a fixed pure-Python loop; recorded, never used to normalise."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def git_head():
    """The checkout's commit, or None outside a git repository."""
    # the ceiling keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile(values, q):
    """Nearest-rank percentile: at least q percent of values are <= the result."""
    ordered = sorted(values)
    k = max(0, -(-len(ordered) * q // 100) - 1)
    return ordered[int(k)]


class Runner:
    def __init__(self, args, start):
        self.args = args
        self.start = start
        self.longest = 0.0  # slowest untraced repetition so far, spawn included

    def remaining(self):
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, setup_only=False, trace_out=None):
        a = self.args
        cmd = [sys.executable, WORKER, "--workload", a.workload, "--seed", str(a.seed)]
        if a.smoke:
            cmd.append("--smoke")
        if setup_only:
            cmd.append("--setup-only")
        if trace_out:
            cmd += ["--trace-out", trace_out]
        env = dict(os.environ, PYTHONHASHSEED="0")  # same set and dict layouts in every process
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd += ["--spawned-at", repr(spawned_at)]
        # run() kills the worker and waits for it if the time limit passes
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=self.remaining())
        if proc.returncode != 0:
            raise RuntimeError("worker exited with code %d" % proc.returncode)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repetitions(self, budget_s):
        """Untraced repetitions while the next one, as slow as the slowest so far, fits."""
        reps = []
        while True:
            t0 = time.monotonic()
            reps.append(self.spawn())
            self.longest = max(self.longest, time.monotonic() - t0)
            if time.monotonic() - self.start + self.longest > budget_s:
                return reps


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coxdepth", "__init__.py")):
        print("error: no coxdepth sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    start = time.monotonic()
    runner = Runner(args, start)
    calib_before = calibrate()
    try:
        probes = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
        reps = runner.repetitions(args.seconds / 2 if args.trace else args.seconds)
        traced = None
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
            traced = runner.spawn(trace_out=trace_path)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    calib_after = calibrate()

    setups = probes + reps
    all_reps = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    wall_s = statistics.median(r["wall_s"] for r in reps)
    # Every repetition runs the same ops in the same order.
    op_ms = [statistics.median(times) for times in zip(*(r["op_ms"] for r in reps))]
    query_ms = op_ms if args.workload in PER_OP_QUERIES else [wall_s * 1e3]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "query_p50_ms": statistics.median(query_ms),
        "query_p99_ms": percentile(query_ms, 99),
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "git_head": git_head(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_before_s": calib_before,
        "calibration_after_s": calib_after,
        "repetitions": len(reps),
        "setup_s_each": [r["setup_s"] for r in setups],
        "setup_raw_s_each": [r["setup_raw_s"] for r in setups],
        "ops_per_repetition": len(op_ms),
        "query_samples": len(query_ms),
        "input_digest": reps[0]["digest"],
        "wall_s_each": [r["wall_s"] for r in reps],
        "wall_raw_s_each": [r["wall_raw_s"] for r in reps],
        "kernel_ms_each": [r["kernel_ms"] for r in reps],
    }
    print("record " + json.dumps(record))
    for r in all_reps:
        for w in r["witnesses"]:
            print("FAIL " + w)
    print("failed_frac %r (%d failed of %d attempted)" % (failed / attempted, failed, attempted))
    print("op times: median %r ms, slowest %r ms, %d ops" % (statistics.median(op_ms), max(op_ms), len(op_ms)))
    for name, value in e2e.items():
        print("%s %r %s" % (name, value, E2E_UNITS[name]))

    correct = failed == 0 and len({r["digest"] for r in all_reps}) == 1
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    if traced:
        t = traced["trace"]
        correct = correct and t["sum_ok"]
        values = {}
        for layer in LAYERS:
            calls, self_s = t["layers"].get(layer, (0, 0.0))
            values[layer + ".calls"] = calls
            values[layer + ".self_s"] = self_s
        values.update((name, t["counts"][name]) for name in COUNTS)
        # as measured: the traced repetition runs without the speed sampler
        values["trace.overhead_s"] = traced["wall_raw_s"] - statistics.median(r["wall_raw_s"] for r in reps)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        for name, (calls, self_s) in sorted(t["layers"].items()):
            print("layer %-12s calls %9d  self_s %r" % (name, calls, self_s))
        print(
            "trace sum %s: layer self_s %r + bench own %r vs traced wall_s %r"
            % ("ok" if t["sum_ok"] else "MISMATCH", t["self_sum_s"], t["bench_own_s"], traced["wall_s"])
        )
        print("oracle.edges is computed as group order x reflections per oracle call, not counted")
        for name, unit in PER_LAYER_UNITS.items():
            print("%s %r %s" % (name, values[name], unit))
        print("trace written to %s" % os.path.relpath(trace_path, ROOT))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
