"""The benchmark's workloads: inputs, timed body and correctness gate.

Each workload has make_inputs(seed, smoke) -> (inputs, digest), run during
set-up, and run(inputs, ops) -> list of failure witnesses, the timed body.
`ops` is an OpLog: the body times each operation through it, and it counts
what was attempted. The checkers are plain functions of computed results, so
a test can hand them a corrupted result.

Only the coxdepth package is used, by module attribute at call time, so that
the tracer's wrappers are the functions called in a traced run.
"""

import contextlib
import hashlib
import io
import random
import time
from collections import Counter

import coxdepth
import coxdepth.bijections
import coxdepth.cli
import coxdepth.decomp
import coxdepth.enumeration
import coxdepth.groups
import coxdepth.oracle
import coxdepth.patterns
import coxdepth.perm_core
import coxdepth.stats


class OpLog:
    """Spans (label, start, end) of the timed operations, the benchmark's own ops."""

    def __init__(self, tracer=None):
        self.spans = []
        self.attempted = 0
        self.tracer = tracer

    @contextlib.contextmanager
    def op(self, label):
        if self.tracer is not None:
            self.tracer.op = len(self.spans)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(label, t0, time.perf_counter())

    def record(self, label, t0, t1):
        self.spans.append((label, t0, t1))


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ------------------------------------------------------------- verify-n8

VERIFY_CHECKS = (
    "parse-format-round-trip",
    "compose-inverse-identity",
    "bounds-chain",
    "depth-rlength-collapse",
    "depth-of-inverse",
    "excedance-cover-bound",
    "max-depth-extremes",
    "depth-table-row",
    "shallow-certificates",
    "selection-dominates",
    "depth-delta-formula",
    "phi-bijective",
    "phi-transports-stats",
    "phi-round-trip",
    "joint-tables-equal",
    "fiber-unique-minimal",
    "lr-maxima-lower-bound",
    "dyck-path-count",
    "depth-three-ways",
    "rlength-two-ways",
    "backend-length-is-inversions",
    "reflections-are-transpositions",
    "signed-dihedral-cross-check",
    "dihedral-formula-match",
    "min-factorizations-free-iff-simple",
    "fc-is-depth-eq-length",
    "boolean-is-length-eq-rlength",
    "class-counts-match-closed-forms",
    "boolean-support-length",
    "boolean-length-refined-counts",
    "boolean-cycles-are-intervals",
    "free-support-gaps",
)


class _StampedLines(io.TextIOBase):
    """A stdout stand-in that records when each output line was completed."""

    def __init__(self):
        self.lines = []
        self.stamps = []
        self._pending = ""

    def writable(self):
        return True

    def write(self, text):
        self._pending += text
        while "\n" in self._pending:
            line, self._pending = self._pending.split("\n", 1)
            self.lines.append(line)
            self.stamps.append(time.perf_counter())
        return len(text)


def verify_inputs(seed, smoke):
    n = 5 if smoke else 8
    argv = ["verify", "--n", str(n)]
    return argv, _digest(argv)


def verify_run(argv, ops):
    """The whole `coxdepth verify`; each check is one op, timed line to line."""
    out = _StampedLines()
    raised = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = coxdepth.cli.main(argv)
    except (Exception, SystemExit) as exc:  # the checks not reached count as failed
        code = None
        raised.append("verify: raised %r" % exc)
    prev = t0
    for line, stamp in zip(out.lines, out.stamps):
        ops.record(line, prev, stamp)
        prev = stamp
    ops.attempted += len(VERIFY_CHECKS)
    return (raised + check_verify(code, out.lines))[: len(VERIFY_CHECKS)]


def check_verify(code, lines):
    """Witnesses for a verify run: exit code 0 and exactly one PASS per known check."""
    failures = []
    expected = ["PASS " + name for name in VERIFY_CHECKS]
    for want, got in zip(expected, lines):
        if want != got:
            failures.append("verify: expected %r, got %r" % (want, got))
    for got in lines[len(expected):]:
        failures.append("verify: unexpected line %r" % got)
    for want in expected[len(lines):]:
        failures.append("verify: expected %r, got no line" % want)
    if code != 0 and not failures:
        failures.append("verify: exit code %r with every check passing" % code)
    return failures[: len(VERIFY_CHECKS)]


# ----------------------------------------------------------- cayley-a8b5

# Depth row of B5 from the oracle, the same row tests/test_enumeration.py
# locks; B3 is the smoke-size counterpart.
LOCKED_B_ROWS = {
    3: (1, 3, 8, 13, 14, 8, 1),
    5: (1, 5, 19, 52, 120, 219, 340, 457, 594, 556, 505, 466, 325, 164, 16, 1),
}


def cayley_inputs(seed, smoke):
    groups = (("A", 5), ("B", 3), ("I2", 12)) if smoke else (("A", 8), ("B", 5), ("I2", 12))
    return groups, _digest("%s%d" % g for g in groups)


def cayley_run(groups, ops):
    """Backends and both oracles on each group, then the B and I2 depth tables."""
    try:
        return _cayley_run(groups, ops)
    except Exception as exc:  # a raising call fails the cross-checks it feeds
        ops.attempted += 1
        return ["cayley: raised %r" % exc]


def _cayley_run(groups, ops):
    results = {}
    for kind, size in groups:
        with ops.op("build %s%d" % (kind, size)):
            backend = coxdepth.groups.build_backend(kind, size)
        with ops.op("depth_oracle %s%d" % (kind, size)):
            depths = coxdepth.oracle.depth_oracle(backend)
        with ops.op("reflection_length_oracle %s%d" % (kind, size)):
            rlengths = coxdepth.oracle.reflection_length_oracle(backend)
        results[kind] = (backend, depths, rlengths)
    tables = {}
    for kind, size in groups[1:]:
        with ops.op("depth_distribution %s%d" % (kind, size)):
            tables[kind] = coxdepth.enumeration.depth_distribution(kind, size).counts
    with ops.op("cross-check"):
        failures, attempted = check_cayley(results, tables)
    ops.attempted += attempted
    return failures


def check_cayley(results, tables):
    """Witnesses and the number of cross-checks made on the Cayley-graph results.

    results maps kind -> (backend, depth table, rlength table) for kinds
    A, B and I2; tables maps B and I2 to the depth_distribution rows.
    """
    stats = coxdepth.stats
    failures = []
    attempted = 0

    backend, depths, rlengths = results["A"]
    for x in backend.elements:
        r = backend.rank(x)
        want_d, want_r = stats.depth(x), stats.reflection_length(x)
        if depths[r] != want_d:
            failures.append("A%d %s: oracle depth %s vs stats.depth %s" % (backend.size, x, depths[r], want_d))
        if rlengths[r] != want_r:
            failures.append(
                "A%d %s: oracle rlength %s vs stats.reflection_length %s" % (backend.size, x, rlengths[r], want_r)
            )
        attempted += 2

    # rlength <= depth <= length holds in every Coxeter group
    for kind in ("B", "I2"):
        backend, depths, rlengths = results[kind]
        for x in backend.elements:
            r = backend.rank(x)
            if not rlengths[r] <= depths[r] <= backend.lengths[r]:
                failures.append(
                    "%s%d %s: rlength %s, depth %s, length %s out of order"
                    % (kind, backend.size, x, rlengths[r], depths[r], backend.lengths[r])
                )
            attempted += 1

    backend, depths, _ = results["B"]
    from_oracle = Counter(depths)
    row = tables["B"]
    if Counter({k: c for k, c in enumerate(row) if c}) != from_oracle:
        failures.append("B%d: depth_distribution %s vs oracle %s" % (backend.size, row, sorted(from_oracle.items())))
    if row != LOCKED_B_ROWS.get(backend.size):
        failures.append("B%d: depth_distribution %s vs locked row %s" % (backend.size, row, LOCKED_B_ROWS.get(backend.size)))
    attempted += 2

    backend, depths, _ = results["I2"]
    groups = coxdepth.groups
    for x in backend.elements:
        formula = groups.dihedral_depth_formula(backend, x)
        if depths[backend.rank(x)] != formula:
            failures.append("I2(%d) %s: oracle depth %s vs formula %s" % (backend.size, x, depths[backend.rank(x)], formula))
        attempted += 1
    joint = groups.joint_length_depth(backend, depths)
    closed = groups.dihedral_gf(backend.size)
    if joint != closed:
        failures.append("I2(%d): joint_length_depth %s vs dihedral_gf %s" % (backend.size, sorted(joint.items()), sorted(closed.items())))
    row = tables["I2"]
    if Counter({k: c for k, c in enumerate(row) if c}) != Counter(depths):
        failures.append("I2(%d): depth_distribution %s vs oracle %s" % (backend.size, row, sorted(Counter(depths).items())))
    attempted += 2
    return failures, attempted


# ------------------------------------------------------- queries-large-n

QUERY_SIZES = (16, 32, 64)
QUERIES_PER_CLASS = 168  # 3 sizes x 3 structures x 168 = 1512 windows
SMOKE_QUERIES_PER_CLASS = 3


def _uniform(rng, n):
    # the typical window: long cycles, many inversions, patterns found early
    return tuple(rng.sample(range(1, n + 1), n))


def _dyck_path(rng, n):
    # uniform Dyck path by the cycle lemma: shuffle n up-steps and n + 1
    # down-steps, rotate to start just after the first lowest point, and
    # drop the final down-step
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    low, at, height = 0, 0, 0
    for i, s in enumerate(steps, start=1):
        height += s
        if height < low:
            low, at = height, i
    steps = steps[at:] + steps[:at]
    return "".join("N" if s > 0 else "E" for s in steps[:-1])


def _avoiding_321(rng, n):
    # 321-avoiding: depth equals length, is_fc is true without a 321
    # witness, so the pattern scan runs to the end
    return coxdepth.bijections.minimal_fiber_rep(_dyck_path(rng, n))


def _sparse(rng, n):
    # a few adjacent swaps of the identity: usually boolean and often free,
    # so is_boolean and is_free scan for 3412, 231 and 312 to the end
    # without finding a witness; this class sets the latency tail
    w = list(range(1, n + 1))
    for _ in range(n // 10):
        i = rng.randrange(n - 1)
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


STRUCTURES = (("uniform", _uniform), ("avoid321", _avoiding_321), ("sparse", _sparse))


def query_inputs(seed, smoke):
    """Seeded windows, equal shares of each size and structure, in shuffled order."""
    rng = random.Random(seed)
    per_class = SMOKE_QUERIES_PER_CLASS if smoke else QUERIES_PER_CLASS
    windows = [
        (label, make(rng, n))
        for n in QUERY_SIZES
        for label, make in STRUCTURES
        for _ in range(per_class)
    ]
    rng.shuffle(windows)
    return windows, _digest("%s %s" % (label, " ".join(map(str, w))) for label, w in windows)


def query(w):
    """Everything one query computes about window w."""
    stats, patterns, decomp, bij, core = (
        coxdepth.stats, coxdepth.patterns, coxdepth.decomp, coxdepth.bijections, coxdepth.perm_core
    )
    r = {
        "length": stats.length(w),
        "rlength": stats.reflection_length(w),
        "depth": stats.depth(w),
        "drop": stats.drop(w),
        "des": len(stats.descents(w)),
        "exc": len(stats.excedances(w)),
        "fc": patterns.is_fc(w),
        "boolean": patterns.is_boolean(w),
        "free": patterns.is_free(w),
    }
    r["certificate"] = decomp.verify_factorization(w, decomp.shallow_decomp(w)).ok
    v = bij.steingrimsson_phi(w)
    r["phi_inverse"] = bij.steingrimsson_phi_inverse(v)
    r["phi_exc"] = len(stats.excedances(v))
    r["phi_depth"] = stats.depth(v)
    r["dyck"] = bij.dyck_of_perm(w)
    r["reparsed"] = core.parse(core.format(w))
    r["inverse_depth"] = stats.depth(core.inverse(w))
    return r


def check_query(w, r):
    """Witnesses for one query's results; empty when every cross-check holds."""
    fails = []

    def expect(ok, what, a, b):
        if not ok:
            fails.append("w=%s: %s: %r vs %r" % (" ".join(map(str, w)), what, a, b))

    expect(r["rlength"] <= r["depth"], "rlength <= depth", r["rlength"], r["depth"])
    expect(r["depth"] <= r["length"], "depth <= length", r["depth"], r["length"])
    expect(not r["free"] or r["boolean"], "free => boolean", r["free"], r["boolean"])
    expect(not r["boolean"] or r["fc"], "boolean => fc", r["boolean"], r["fc"])
    expect(r["fc"] == (r["depth"] == r["length"]), "fc vs depth == length", r["fc"], (r["depth"], r["length"]))
    expect(
        r["boolean"] == (r["length"] == r["rlength"]), "boolean vs length == rlength", r["boolean"], (r["length"], r["rlength"])
    )
    expect(r["certificate"], "shallow certificate", r["certificate"], True)
    expect(r["phi_inverse"] == w, "phi inverse of phi(w)", r["phi_inverse"], w)
    expect(r["des"] == r["phi_exc"], "des(w) vs exc(phi(w))", r["des"], r["phi_exc"])
    expect(r["drop"] == r["phi_depth"], "drop(w) vs depth(phi(w))", r["drop"], r["phi_depth"])
    expect(r["inverse_depth"] == r["depth"], "depth(w^-1) vs depth(w)", r["inverse_depth"], r["depth"])
    expect(r["reparsed"] == w, "parse(format(w))", r["reparsed"], w)
    expect(len(r["dyck"]) == 2 * len(w), "Dyck path steps", len(r["dyck"]), 2 * len(w))
    return fails


def queries_run(windows, ops):
    """One closed-loop caller: each query starts when the previous one returned."""
    failures = []
    for label, w in windows:
        with ops.op(label):
            try:
                fails = check_query(w, query(w))
            except Exception as exc:  # a raising query counts as failed, with its window
                fails = ["w=%s: raised %r" % (" ".join(map(str, w)), exc)]
        if fails:
            failures.append("%s n=%d: %s" % (label, len(w), "; ".join(fails)))
    ops.attempted += len(windows)
    return failures


WORKLOADS = {
    "verify-n8": (verify_inputs, verify_run),
    "cayley-a8b5": (cayley_inputs, cayley_run),
    "queries-large-n": (query_inputs, queries_run),
}
