"""Acceptance checks: one test per criterion, run in order.

Each test records one "criterion K: PASS/FAIL" line, and every failure
path records its FAIL line before the test fails; the conftest hook
echoes the collected lines after the run. Criteria 2 and 4-11 run the
property checks of coxdepth.checks, the registry `coxdepth verify`
runs, at the sizes each test lists, and a FAIL line carries the check's
witness. Criterion 3 checks the signed-group depth rows twice over: the
reference rows must equal the rows derived inside this file from the
definition of depth (the Björner–Brenti length formula and a
shortest-path search that use no coxdepth code) and obey closed-form
counts, and the library's rows must equal the reference rows."""

import heapq
import math
import time
from collections import Counter
from itertools import combinations, product

import pytest

from coxdepth import checks
from coxdepth.perm_core import parse
from coxdepth.stats import depth, length, reflection_length
from coxdepth.groups import build_backend
from coxdepth.oracle import depth_oracle, factorization_counts, reflection_length_oracle
from coxdepth.enumeration import count_class, depth_distribution

RESULTS = []


def _report(k, ok, detail=""):
    line = "criterion %d: %s" % (k, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    RESULTS.append(line)
    print(line)


def _fail(k, detail):
    """Record criterion k as failed, naming why, and fail the test."""
    _report(k, False, detail)
    pytest.fail("criterion %d: %s" % (k, detail))


def _require(k, name, sizes):
    """Run the registry check `name` at each size; fail criterion k on a witness."""
    for n in sizes:
        witness = checks.run(name, n)
        if witness is not None:
            _fail(k, "%s at n=%d: %s" % (name, n, witness))


def _within_budget(k, t0, budget_s):
    elapsed = time.monotonic() - t0
    if elapsed >= budget_s:
        _fail(k, "took %.2fs, budget %ds" % (elapsed, budget_s))


# (reflection length, depth, length) for every element of the two
# smallest symmetric groups
REFERENCE_TRIPLES_S3 = {
    "123": (0, 0, 0),
    "213": (1, 1, 1),
    "132": (1, 1, 1),
    "312": (2, 2, 2),
    "231": (2, 2, 2),
    "321": (1, 2, 3),
}

REFERENCE_TRIPLES_S4 = {
    "1234": (0, 0, 0),
    "2134": (1, 1, 1),
    "1324": (1, 1, 1),
    "1243": (1, 1, 1),
    "2314": (2, 2, 2),
    "2143": (2, 2, 2),
    "3124": (2, 2, 2),
    "1342": (2, 2, 2),
    "1423": (2, 2, 2),
    "3214": (1, 2, 3),
    "1432": (1, 2, 3),
    "2341": (3, 3, 3),
    "2413": (3, 3, 3),
    "3142": (3, 3, 3),
    "4123": (3, 3, 3),
    "3241": (2, 3, 4),
    "2431": (2, 3, 4),
    "4132": (2, 3, 4),
    "4213": (2, 3, 4),
    "3412": (2, 4, 4),
    "4231": (1, 3, 5),
    "4312": (3, 4, 5),
    "3421": (3, 4, 5),
    "4321": (2, 4, 6),
}

# the order-12 dihedral group, elements named by generator words
REFERENCE_TRIPLES_DIHEDRAL6 = {
    "": (0, 0, 0),
    "1": (1, 1, 1),
    "2": (1, 1, 1),
    "12": (2, 2, 2),
    "21": (2, 2, 2),
    "121": (1, 2, 3),
    "212": (1, 2, 3),
    "1212": (2, 3, 4),
    "2121": (2, 3, 4),
    "12121": (1, 3, 5),
    "21212": (1, 3, 5),
    "121212": (2, 4, 6),
}

# depth rows of the signed groups B_1..B_5; test_c03 re-derives them
# from the definition with _signed_depth_row
REFERENCE_SIGNED_DEPTH_ROWS = {
    1: (1, 1),
    2: (1, 2, 4, 1),
    3: (1, 3, 8, 13, 14, 8, 1),
    4: (1, 4, 13, 29, 55, 66, 90, 53, 60, 12, 1),
    5: (1, 5, 19, 52, 120, 219, 340, 457, 594, 556, 505, 466, 325, 164, 16, 1),
}


def _signed_length(w):
    """Coxeter length of a signed window in B_n: inv + neg + nsp
    (Björner–Brenti, Combinatorics of Coxeter Groups, Prop. 8.1.1)."""
    pairs = list(combinations(w, 2))
    return (
        sum(1 for a, b in pairs if a > b)
        + sum(1 for a in w if a < 0)
        + sum(1 for a, b in pairs if a + b < 0)
    )


def _signed_reflections(n):
    """The n^2 reflections of B_n as windows: the n sign changes, then
    for each i < j the swap (i j) and the signed swap (i -j)."""
    e = list(range(1, n + 1))
    out = []
    for i in range(n):
        t = e[:]
        t[i] = -t[i]
        out.append(tuple(t))
    for i, j in combinations(range(n), 2):
        for sign in (1, -1):
            t = e[:]
            t[i], t[j] = sign * (j + 1), sign * (i + 1)
            out.append(tuple(t))
    return out


def _signed_depth_row(n):
    """Depth row of B_n straight from the definition, using no coxdepth
    code: Dijkstra from the identity over right multiplication by the
    reflections, a reflection of length l costing (l + 1) / 2."""
    steps = [(t, (_signed_length(t) + 1) // 2) for t in _signed_reflections(n)]
    e = tuple(range(1, n + 1))
    best = {e: 0}
    heap = [(0, e)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > best[x]:
            continue
        for t, cost in steps:
            y = tuple(x[a - 1] if a > 0 else -x[-a - 1] for a in t)
            if y not in best or d + cost < best[y]:
                best[y] = d + cost
                heapq.heappush(heap, (d + cost, y))
    counts = Counter(best.values())
    return tuple(counts[k] for k in range(max(counts) + 1))


def _signed_closed_form_misses(n, row):
    """Closed-form counts every B_n depth row obeys, as messages for
    those that fail. Depth 1: the n simple reflections. Depth 2: a
    cost-2 factorization is one reflection of length 3 (the sign change
    at 2, the n - 2 swaps (i i+2) and the signed swap (1 -2)) or two
    distinct simple reflections, whose products are the
    (n + 2)(n - 1)/2 elements of length 2 counted by the Poincare
    polynomial prod [2i]_q. Top: only -id, the product of the n sign
    changes, at depth 1 + 2 + ... + n."""
    checks = [
        ("sum", sum(row), 2**n * math.factorial(n)),
        ("depth 0", row[0], 1),
        ("depth 1", row[1], n),
        ("top depth, count", (len(row) - 1, row[-1]), (n * (n + 1) // 2, 1)),
    ]
    if n >= 2:
        checks.append(("depth 2", row[2], (n + 2) * (n - 1) // 2 + n))
    return [
        "n=%d %s: %s, expected %s" % (n, name, got, want)
        for name, got, want in checks
        if got != want
    ]


def _first_difference(rows, reference):
    """First (n, depth k, count, reference count) where two families of
    rows differ, or None."""
    for n in sorted(reference):
        a, b = rows[n], reference[n]
        for k in range(max(len(a), len(b))):
            x = a[k] if k < len(a) else 0
            y = b[k] if k < len(b) else 0
            if x != y:
                return n, k, x, y
    return None


def test_c01_statistic_triples_of_the_small_groups():
    t0 = time.monotonic()
    for text, expected in {**REFERENCE_TRIPLES_S3, **REFERENCE_TRIPLES_S4}.items():
        w = parse(text)
        got = (reflection_length(w), depth(w), length(w))
        if got != expected:
            _report(1, False, "window %s gave %s, expected %s" % (text, got, expected))
            pytest.fail("triple mismatch at %s: %s != %s" % (text, got, expected))
    b = build_backend("I2", 6)
    s1, s2 = b.simples
    depths = depth_oracle(b)
    rlens = reflection_length_oracle(b)
    for word, expected in REFERENCE_TRIPLES_DIHEDRAL6.items():
        x = b.identity
        for ch in word:
            x = b.multiply(x, s1 if ch == "1" else s2)
        got = (rlens[b.rank(x)], depths[b.rank(x)], b.lengths[b.rank(x)])
        if got != expected:
            _report(1, False, "word %r gave %s, expected %s" % (word, got, expected))
            pytest.fail("triple mismatch at dihedral word %r" % word)
    _within_budget(1, t0, 1)
    _report(1, True, "42 elements")


def test_c02_depth_distribution_rows():
    t0 = time.monotonic()
    _require(2, "depth-table-row", range(1, 9))
    _within_budget(2, t0, 30)
    _report(2, True, "n=1..8")


def test_c03_signed_depth_distribution_rows():
    derived = {n: _signed_depth_row(n) for n in range(1, 6)}
    witness = _first_difference(derived, REFERENCE_SIGNED_DEPTH_ROWS)
    if witness is not None:
        detail = "n=%d depth %d: definition %d, reference %d" % witness
        _report(3, False, detail)
        pytest.fail("reference rows differ from the definition at " + detail)
    for n, row in REFERENCE_SIGNED_DEPTH_ROWS.items():
        misses = _signed_closed_form_misses(n, row)
        if misses:
            _report(3, False, misses[0])
            pytest.fail("reference rows break closed forms: %s" % "; ".join(misses))

    t0 = time.monotonic()
    computed = {n: depth_distribution("B", n).counts for n in range(1, 6)}
    _within_budget(3, t0, 60)

    maxima = {n: len(row) - 1 for n, row in computed.items()}
    print("observed signed-group depth maxima:", maxima)
    if maxima != {n: (n + 1) * n // 2 for n in range(1, 6)}:
        _fail(3, "depth maxima %s, expected n(n+1)/2" % maxima)

    witness = _first_difference(computed, REFERENCE_SIGNED_DEPTH_ROWS)
    if witness is not None:
        n = witness[0]
        detail = "n=%d depth %d: computed %d, reference %d" % witness
        _report(3, False, detail)
        pytest.fail(
            "signed-group depth rows disagree with the reference rows, first at "
            "%s\n  n=%d computed:  %s\n  n=%d reference: %s"
            % (detail, n, computed[n], n, REFERENCE_SIGNED_DEPTH_ROWS[n])
        )
    _report(3, True, "n=1..5")


def test_c04_depth_three_ways():
    _require(4, "depth-three-ways", range(1, 8))
    _report(4, True, "n=1..7")


def test_c05_greedy_certificates():
    _require(5, "shallow-certificates", range(1, 9))
    _report(5, True, "n=1..8")


def test_c06_equidistribution_and_bijection():
    _require(6, "joint-tables-equal", range(1, 9))
    _require(6, "phi-bijective", range(1, 9))
    _require(6, "phi-transports-stats", range(1, 9))
    _report(6, True, "n=1..8")


def test_c07_pattern_class_counts():
    # the checks compare each exhaustive count_class value against its
    # closed form and name the first disagreement as their witness
    _require(7, "class-counts-match-closed-forms", range(1, 9))
    _require(7, "boolean-length-refined-counts", range(1, 9))
    for cls, expected in (("fc", 1430), ("boolean", 610)):
        got = count_class(8, cls)
        if got != expected:
            _fail(7, "%s at n=8: counted %d, expected %d" % (cls, got, expected))
    _report(7, True, "classes n=1..8, refined n=1..8")


def test_c08_extremal_depth():
    _require(8, "max-depth-extremes", range(1, 9))
    _report(8, True, "n=1..8")


def test_c09_dihedral_closed_form():
    # the check covers m = 2..12 whatever size it is given
    _require(9, "dihedral-formula-match", [8])
    _report(9, True, "m=2..12")


def test_c10_minimal_factorizations_simple_iff_free():
    t0 = time.monotonic()
    _require(10, "min-factorizations-free-iff-simple", range(1, 8))
    # the displayed witness: 231 factors as s1.s2, t13.s1 and s2.t13,
    # found by multiplying out every pair of reflections of S_3 in order
    # (1 2), (1 3), (2 3); the first is its one reduced word
    b3 = build_backend("A", 3)
    w = parse("231")
    pairs = [(i, j) for i, j in product(range(3), repeat=2)
             if b3.multiply(b3.reflections[i], b3.reflections[j]) == w]
    assert pairs == [(0, 2), (1, 0), (2, 1)], pairs
    assert factorization_counts(b3, [(t, 1) for t in b3.reflections])[b3.rank(w)] == 3
    assert factorization_counts(b3, [(s, 1) for s in b3.simples])[b3.rank(w)] == 1
    _within_budget(10, t0, 60)
    _report(10, True, "n=1..7 with witness")


def test_c11_depth_delta_after_transposition():
    _require(11, "depth-delta-formula", range(1, 7))
    _report(11, True, "n=1..6")
