"""One repetition of one workload, in a fresh process.

Started by run.py with the CLOCK_MONOTONIC reading taken just before the
process was spawned, so set-up time covers process start, the interpreter,
`import coxdepth` and input generation, up to the first timed call. Prints
one JSON object on stdout; workload output never reaches stdout.

An untraced repetition samples the machine's speed (speed.py) and reports
its times both as measured and scaled to the reference speed; the traced
repetition runs without the sampler, so that its time is all the workload's.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
# Largest share of the traced wall time left to the benchmark itself. Measured
# shares: at most 1.1% at full size, up to 4.1% on the smoke sizes.
BENCH_OWN_LIMIT = 0.10


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", help="trace this repetition and write its spans here")
    args = p.parse_args()

    import coxdepth

    if not os.path.abspath(coxdepth.__file__).startswith(SRC + os.sep):
        sys.exit("coxdepth imported from %s, not from %s" % (coxdepth.__file__, SRC))
    import speed
    import tracer as tracing
    import workloads

    make_inputs, run = workloads.WORKLOADS[args.workload]
    inputs, digest = make_inputs(args.seed, args.smoke)
    tr = None
    if args.trace_out:
        tr = tracing.Tracer()
        tr.install(coxdepth)
    ops = workloads.OpLog(tr)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    setup_kernel_s = speed.kernel_median()
    out = {
        "setup_s": setup_s * speed.REF_KERNEL_S / setup_kernel_s,
        "setup_raw_s": setup_s,
        "digest": digest,
    }
    if not args.setup_only:
        with contextlib.ExitStack() as stack:
            probe = stack.enter_context(speed.Probe()) if tr is None else None
            t0 = time.perf_counter()
            failures = run(inputs, ops)
            t1 = time.perf_counter()
        if probe is not None:
            if not probe.ticks:  # a body shorter than one tick: sample just after it
                probe.ticks.append(speed.time_kernel())
            scale = speed.Scale(probe.ticks)
            scaled, net = scale.scaled, scale.net
            out["kernel_ms"] = statistics.median(b - a for a, b in probe.ticks) * 1e3
        else:
            scaled = net = lambda a, b: b - a
        out.update(
            wall_s=scaled(t0, t1),
            wall_raw_s=net(t0, t1),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            op_ms=[scaled(start, end) * 1e3 for _, start, end in ops.spans],
            attempted=ops.attempted,
            failed=len(failures),
            witnesses=failures[:20],
        )
        if tr is not None:
            out["trace"] = _finish_trace(tr, ops, t0, t1, args.trace_out)
    print(json.dumps(out))


def _covered(spans, lo, hi):
    """Seconds of [lo, hi] covered by the union of the (start, end) intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(spans):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
        reach = max(reach, end)
    return total


def _finish_trace(tr, ops, t0, t1, path):
    wall_s = t1 - t0
    layers = tr.layer_totals()
    self_sum = sum(self_s for _, self_s in layers.values())
    # The benchmark's own time, from the individual spans of its direct calls
    # rather than from the folded tree: the part of the timed body that no
    # direct call covers.
    bench_own_s = wall_s - _covered([(a, b) for _, a, b, _ in tr.spans], t0, t1)
    with open(path, "w") as f:
        json.dump(
            {
                "wall_s": wall_s,
                "bench_own_s": bench_own_s,
                "layers": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(layers.items())},
                "counts": tr.counts,
                "ops": [{"name": n, "start": a, "end": b} for n, a, b in ops.spans],
                "direct_spans": [{"name": n, "start": a, "end": b, "parent_op": op} for n, a, b, op in tr.spans],
                "paths": [
                    {"path": list(path_), "layer": layer, "count": count, "total_s": total, "self_s": self_s}
                    for path_, layer, count, total, self_s in tr.paths()
                ],
            },
            f,
        )
    # The layer self times must add up, with the benchmark's own time, to the
    # traced wall time, none may be negative, and the benchmark's own time must
    # stay a small share: time that escapes the wrappers (an unwrapped callee,
    # a generator drained by the caller) lands there.
    sum_ok = (
        abs(self_sum + bench_own_s - wall_s) <= 1e-6 * max(1.0, wall_s)
        and min((s for _, s in layers.values()), default=0.0) >= -1e-9
        and bench_own_s <= BENCH_OWN_LIMIT * wall_s
    )
    return {"layers": layers, "counts": tr.counts, "bench_own_s": bench_own_s, "self_sum_s": self_sum, "sum_ok": sum_ok}


if __name__ == "__main__":
    main()
