"""The machine's speed, sampled during a run, and times scaled to a fixed speed.

On a shared VM the same code can run at anywhere between full speed and
half speed, in phases of seconds to minutes (see the README's Noise
section). A run that falls in a slow phase would read as a regression. So a
repetition times a fixed kernel every TICK_S seconds of its timed body, from
a SIGALRM handler, and each timed span is scaled by REF_KERNEL_S over the
kernel's time around it: the figures read as seconds on a machine where the
kernel takes REF_KERNEL_S. The kernel's own time is taken out of every span
it falls in.

The kernel is fixed code of the benchmark's own, never coxdepth's, so a change
to coxdepth moves the scaled times and never the kernel. It does what the
workloads do most, building tuples and looking them up in a dict; a tight
integer loop tracked the workloads' slow phases worse.
"""

import bisect
import gc
import signal
import statistics
import time

# Kernel time the scaled figures refer to. A 2-vCPU shared x86 VM took
# 1.5-1.7 ms in its fast phases and up to 3.1 ms in its slow ones.
REF_KERNEL_S = 0.002
TICK_S = 0.1
# Half-width of the window over which kernel times are smoothed (median).
WINDOW_S = 1.0
SETUP_SAMPLES = 15


def kernel():
    """Breadth-first search of S_6 by adjacent transpositions; returns its order."""
    start = (0, 1, 2, 3, 4, 5)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            d = dist[w] + 1
            for i in range(5):
                v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return len(dist)


def time_kernel():
    """(start, end) of one kernel run, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t0, t1


def kernel_median(samples=SETUP_SAMPLES):
    return statistics.median(b - a for a, b in (time_kernel() for _ in range(samples)))


class Probe:
    """Times the kernel every TICK_S seconds while active; ticks are (start, end)."""

    def __init__(self):
        self.ticks = []

    def _tick(self, signum, frame):
        self.ticks.append(time_kernel())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


class Scale:
    """Scales spans of a repetition by the kernel times sampled around them."""

    def __init__(self, ticks, ref=REF_KERNEL_S, window=WINDOW_S):
        if not ticks:
            raise ValueError("no kernel samples to scale by")
        self.starts = [a for a, _ in ticks]
        self.cum = [0.0]  # cum[i]: kernel time of the first i ticks
        for a, b in ticks:
            self.cum.append(self.cum[-1] + b - a)
        durs = [b - a for a, b in ticks]
        self.smooth = []
        lo = hi = 0
        for t in self.starts:
            while self.starts[lo] < t - window:
                lo += 1
            while hi < len(ticks) and self.starts[hi] <= t + window:
                hi += 1
            self.smooth.append(statistics.median(durs[lo:hi]))
        self.ref = ref

    def net(self, a, b):
        """Seconds of [a, b] with the ticks inside it taken out.

        A tick runs between two bytecodes of the timed code, so it lies wholly
        inside or wholly outside a span timed by that code.
        """
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return (b - a) - (self.cum[j] - self.cum[i])

    def factor(self, a, b):
        """REF over the mean smoothed kernel time of the ticks in [a, b], or the nearest tick's."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        if j > i:
            return self.ref / statistics.fmean(self.smooth[i:j])
        k = min(i, len(self.starts) - 1)
        if k > 0 and a - self.starts[k - 1] < self.starts[k] - b:
            k -= 1
        return self.ref / self.smooth[k]

    def scaled(self, a, b):
        return self.net(a, b) * self.factor(a, b)
