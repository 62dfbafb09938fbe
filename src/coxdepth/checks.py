"""The property checks behind `coxdepth verify` and the acceptance tests.

CHECKS lists every check as a row (name, suite, cap, check), in the
order `verify` prints them. check(k) sweeps the group or groups of size
k and returns None when the property holds, or a one-line witness that
names the element (or the size) and the values that disagree. Witness
text is built only when a check fails, from the values compared. The
statistics of S_k's windows are read from `enumeration.columns(k)`;
the backend of a group and its oracle depths from
`oracle.group_columns(kind, size)`, built once per group.

No other module compares a computed result against an independent
derivation, and the class counts' closed forms live only here. The
registry loops over class_count_witness and dihedral_witness, which
`coxdepth table class` and `coxdepth dihedral` also ask.

Seven rows share three sweeps over S_k, each run once per k by
_shared, which caches the tuple of its rows' witnesses, not the
images, which would hold memory for the rest of the run: phi for
phi-bijective, phi-transports-stats and phi-round-trip; the inverse
for compose-inverse-identity and depth-of-inverse; the Dyck path for
fiber-unique-minimal and dyck-path-count. Each row keeps the first
witness a loop of its own would find, but a map that raises fails
every row of its sweep. A sweep's time, like that of a column or group
record, is billed to the first row that reads it:
compose-inverse-identity (which also pays for columns(k) in a full
run), phi-bijective and fiber-unique-minimal.

run(name, n) calls a check at min(n, cap); a cap of None runs it at n.
Six checks keep a cap, measured at n = 8 in one process (Python 3.11.7
on a shared VM with 2 vCPUs, where `verify --n 8` takes 2.3-2.7 s):
depth-delta-formula stays at 6, as the 564,480 transpositions of S_8
take 0.84-0.96 s; the four A-backend oracle checks stay at 7, as at 8
they take 0.74-0.88 s against 0.07-0.08 s at 7, and raise the run's
peak memory from 21.5 to 30.3 MB; and
min-factorizations-free-iff-simple stays at 7 too: there it reuses
their A7 record, while at 8 it would need the A8 record, whose
backend alone takes 0.28-0.29 s to build. The two dihedral checks
ignore n: they cover every I2(m) within the I2 cap of groups._CAPS,
2..12, and I2(4) against B2, at every size."""

from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from .perm_core import apply_transposition_right, compose, identity, inverse, parse
from .perm_core import format as format_window
from .stats import depth, depth_after_transposition, excedances, max_depth_bound, max_depth_count
from .decomp import selection_factorization, shallow_decomp, sorting_index, verify_factorization
from .groups import _CAPS, dihedral_depth_formula, dihedral_gf, joint_length_depth, reflection_depth
from .oracle import factorization_counts, group_columns, reflection_length_oracle
from .bijections import dyck_of_perm, lr_maxima, minimal_fiber_rep, steingrimsson_phi, steingrimsson_phi_inverse
from .patterns import cycles_are_intervals, support
from .enumeration import KNOWN_DEPTH_ROWS_A, columns, count_class, depth_distribution, joint_distribution


def _windows(k):
    return permutations(range(1, k + 1))


def _rows(k, *names):
    # each window of S_k with its entries in the named columns
    return zip(_windows(k), *(getattr(columns(k), name) for name in names))


def _triple(w, rl, d, ln):
    return "%s: rlength %d, depth %d, length %d" % (format_window(w), rl, d, ln)


def _first(witnesses):
    # the first witness a sequence of checks yields, or None
    return next((w for w in witnesses if w is not None), None)


@lru_cache(maxsize=None)
def _shared(sweep, k):
    # the tuple of witnesses of a sweep that several rows read, one sweep per k
    return sweep(k)


# ---------------------------------------------------------- closed forms

def _catalan(n):
    return comb(2 * n, n) // (n + 1)


def _fibonacci(i):
    # convention F_1 = F_2 = 1
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


def _class_formula(n, cls, k):
    # Catalan, F_{2n-1}, F_{n+1}, (n+3)(n-2)/2 and a binomial double sum;
    # None where no closed form is known
    if cls == "fc":
        return _catalan(n)
    if cls == "boolean":
        return _fibonacci(2 * n - 1)
    if cls == "free":
        return _fibonacci(n + 1)
    if cls == "depth_eq":
        return (n + 3) * (n - 2) // 2 if k == 2 and n >= 3 else None
    if k >= 1:  # boolean_by_length
        return sum(comb(n - i, k + 1 - i) * comb(k - 1, i - 1) for i in range(1, min(k, n) + 1))
    return None


def class_count_witness(n, cls, k=None):
    """A witness when count_class(n, cls, k) differs from its closed form, else None.

    Bad arguments raise ValueError, as in count_class.
    """
    count = count_class(n, cls, k)
    formula = _class_formula(n, cls, k)
    if formula is None or count == formula:
        return None
    return "closed form disagrees for %s (n=%d%s): counted %d, formula %d" % (
        cls, n, "" if k is None else ", k=%d" % k, count, formula)


def dihedral_witness(m):
    """A witness when the oracle disagrees with I2(m)'s depth formula or polynomial, else None."""
    b, depths = group_columns("I2", m)
    for x, oracle in zip(b.elements, depths):
        formula = dihedral_depth_formula(b, x)
        if oracle != formula:
            return "I2(%d) element %s: oracle %d, formula %d" % (m, x, oracle, formula)
    if dihedral_gf(m) != joint_length_depth(b, depths):
        return "I2(%d): the closed-form polynomial differs from the oracle's" % m
    return None


# ------------------------------------------------------------------ core

def _parse_format_round_trip(k):
    for w in _windows(k):
        text = format_window(w)
        if parse(text) != w:
            return "%s formats as %r, which parses as %s" % (w, text, parse(text))
    return None


def _inverse_sweep(k):
    # w^-1 of each window once, for compose-inverse-identity and
    # depth-of-inverse, each keeping its first witness
    e = identity(k)
    composed = inverted = None
    for w, d in _rows(k, "depth"):
        v = inverse(w)
        if composed is None and (compose(w, v) != e or compose(v, w) != e):
            composed = "%s with inverse %s: w w^-1 = %s, w^-1 w = %s" % tuple(
                map(format_window, (w, v, compose(w, v), compose(v, w))))
        if inverted is None and d != depth(v):
            inverted = "depth(%s) = %d, depth(%s) = %d" % (format_window(w), d, format_window(v), depth(v))
    return composed, inverted


def _compose_inverse_identity(k):
    return _shared(_inverse_sweep, k)[0]


def _bounds_chain(k):
    for w, rl, d, ln in _rows(k, "rlength", "depth", "length"):
        if not rl <= d <= ln:
            return _triple(w, rl, d, ln)
    return None


def _depth_rlength_collapse(k):
    # depth hits its lower bound exactly when length does
    for w, rl, d, ln in _rows(k, "rlength", "depth", "length"):
        if (d == rl) != (ln == rl):
            return _triple(w, rl, d, ln)
    return None


def _depth_of_inverse(k):
    return _shared(_inverse_sweep, k)[1]


def _excedance_cover_bound(k):
    # each excedance value w(i) needs at least w(i) - i larger-then-smaller
    # crossings after it, with equality exactly at left-to-right maxima
    for w in _windows(k):
        maxima = {i for i, _ in lr_maxima(w)}
        for i in excedances(w):
            x = w[i - 1]
            crossings = sum(y < x for y in w[i:])
            if crossings < x - i or (crossings == x - i) != (i in maxima):
                return "%s, excedance at %d: %d crossings, w(i) - i = %d, left-to-right maximum %s" % (
                    format_window(w), i, crossings, x - i, i in maxima)
    return None


def _max_depth_extremes(k):
    row = depth_distribution("A", k).counts
    if len(row) - 1 != max_depth_bound(k) or row[-1] != max_depth_count(k):
        return "S_%d: top depth %d held by %d, formulas %d held by %d" % (
            k, len(row) - 1, row[-1], max_depth_bound(k), max_depth_count(k))
    return None


def _depth_table_row(k):
    row = depth_distribution("A", k).counts
    if row != KNOWN_DEPTH_ROWS_A[k]:
        return "S_%d depth row %s, reference %s" % (k, row, KNOWN_DEPTH_ROWS_A[k])
    return None


def _shallow_certificates(k):
    for w in _windows(k):
        report = verify_factorization(w, shallow_decomp(w))
        if not report.ok:
            return "%s: %s" % (format_window(w), report)
    return None


def _selection_dominates(k):
    for w, d, rl in _rows(k, "depth", "rlength"):
        index, factors = sorting_index(w), len(selection_factorization(w).factors)
        if index < d or factors != rl:
            return "%s: sorting index %d, depth %d, %d selection factors, rlength %d" % (
                format_window(w), index, d, factors, rl)
    return None


def _depth_delta_formula(k):
    # each w with w(i) < w(j) is v t_ij for exactly one v with v(i) > v(j),
    # so the direct depth of w t_ij = v is v's column entry
    for v, direct in _rows(k, "depth"):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                if v[i - 1] > v[j - 1]:
                    w = apply_transposition_right(v, i, j)
                    formula = depth_after_transposition(w, i, j)
                    if formula != direct:
                        return "%s t(%d,%d): delta formula %d, direct %d" % (
                            format_window(w), i, j, formula, direct)
    return None


# ------------------------------------------------------------- bijection

def _phi_sweep(k):
    # phi of each window once, for phi-bijective, phi-transports-stats
    # and phi-round-trip, each keeping its first witness; the image set
    # stops growing at the first repeat
    images, bijective, transports, round_trip = set(), None, None, None
    for w, des, dr in _rows(k, "des", "drop"):
        v = steingrimsson_phi(w)
        if bijective is None:
            image = bytes(v)  # under half the memory of the tuple
            if image in images:
                bijective = "phi(%s) = %s repeats an earlier image" % (format_window(w), format_window(v))
            images.add(image)
        if transports is None:
            exc, dp = len(excedances(v)), depth(v)
            if des != exc or dr != dp:
                transports = "phi(%s) = %s: des %d, exc %d, drop %d, depth %d" % (
                    format_window(w), format_window(v), des, exc, dr, dp)
        if round_trip is None:
            back = steingrimsson_phi_inverse(v)
            if back != w:
                round_trip = "phi^-1(phi(%s)) = %s" % (format_window(w), format_window(back))
    if bijective is None and len(images) != factorial(k):
        bijective = "phi takes %d values on S_%d, expected %d" % (len(images), k, factorial(k))
    return bijective, transports, round_trip


def _phi_bijective(k):
    return _shared(_phi_sweep, k)[0]


def _phi_transports_stats(k):
    return _shared(_phi_sweep, k)[1]


def _phi_round_trip(k):
    return _shared(_phi_sweep, k)[2]


def _joint_tables_equal(k):
    by_drop = dict(joint_distribution(k, ("drop", "des")).coeffs)
    by_depth = dict(joint_distribution(k, ("dep", "exc")).coeffs)
    if by_drop != by_depth:
        q, t = min(key for key in by_drop.keys() | by_depth.keys() if by_drop.get(key) != by_depth.get(key))
        return "S_%d, q^%d t^%d: drop/des %d, dep/exc %d" % (
            k, q, t, by_drop.get((q, t), 0), by_depth.get((q, t), 0))
    return None


def _dyck_sweep(k):
    # the Dyck path of each window once, for fiber-unique-minimal and
    # dyck-path-count: reps ends up keyed by every path reached
    reps, fiber = {}, None
    for w, d, ln in _rows(k, "depth", "length"):
        path = dyck_of_perm(w)
        if path not in reps:
            reps[path] = minimal_fiber_rep(path)
        if fiber is None and (d == ln) != (w == reps[path]):
            fiber = "%s: depth %d, length %d, its fiber's minimal element %s" % (
                format_window(w), d, ln, format_window(reps[path]))
    found, catalan = len(reps), _catalan(k)
    if found != catalan:
        return fiber, "S_%d reaches %d Dyck paths, Catalan number %d" % (k, found, catalan)
    return fiber, None


def _fiber_unique_minimal(k):
    return _shared(_dyck_sweep, k)[0]


def _lr_maxima_lower_bound(k):
    for w, d, ln in _rows(k, "depth", "length"):
        base = sum(x - i for i, x in lr_maxima(w))
        if not base <= d <= ln:
            return "%s: left-to-right maxima bound %d, depth %d, length %d" % (format_window(w), base, d, ln)
    return None


def _dyck_path_count(k):
    return _shared(_dyck_sweep, k)[1]


# ---------------------------------------------------------------- oracle

def _depth_three_ways(k):
    b, depths = group_columns("A", k)
    for w, d, oracle in zip(b.elements, columns(k).depth, depths):
        greedy = shallow_decomp(w).total_weight
        if not d == oracle == greedy:
            return "%s: formula %d, oracle %d, greedy %d" % (format_window(w), d, oracle, greedy)
    return None


def _rlength_two_ways(k):
    b = group_columns("A", k).backend
    for w, oracle, rl in zip(b.elements, reflection_length_oracle(b), columns(k).rlength):
        if oracle != rl:
            return "%s: oracle %d, cycle count %d" % (format_window(w), oracle, rl)
    return None


def _backend_length_is_inversions(k):
    b = group_columns("A", k).backend
    for w, backend_length, ln in zip(b.elements, b.lengths, columns(k).length):
        if backend_length != ln:
            return "%s: backend length %d, inversions %d" % (format_window(w), backend_length, ln)
    return None


def _reflections_are_transpositions(k):
    b = group_columns("A", k).backend
    seen = set()
    for t in b.reflections:
        moved = [i for i, x in enumerate(t, start=1) if x != i]
        if len(moved) != 2:
            return "reflection %s moves %d points" % (format_window(t), len(moved))
        i, j = moved
        if b.lengths[b.rank(t)] % 2 == 0:
            return "reflection %s has even length %d" % (format_window(t), b.lengths[b.rank(t)])
        if reflection_depth(b, t) != j - i:
            return "reflection %s: depth %d, j - i = %d" % (format_window(t), reflection_depth(b, t), j - i)
        seen.add((i, j))
    if len(seen) != k * (k - 1) // 2:
        return "S_%d has %d reflections, expected %d" % (k, len(seen), k * (k - 1) // 2)
    return None


def _signed_dihedral_cross_check(k):
    # the rank two signed group is the dihedral group of order 8
    signed = Counter(group_columns("B", 2).depth)
    dihedral = Counter({d: c for d, c in enumerate(depth_distribution("I2", 4).counts) if c})
    if signed != dihedral:
        return "depth counts B2 %s, I2(4) %s" % (sorted(signed.items()), sorted(dihedral.items()))
    return None


def _dihedral_formula_match(k):
    lo, hi = _CAPS["I2"]
    return _first(map(dihedral_witness, range(lo, hi + 1)))


def _min_factorizations_free_iff_simple(k):
    # at length = rlength every reduced word is a minimal reflection
    # factorization, and an all-simple one is a reduced word, so every
    # minimal factorization is simple iff the two counts agree
    b = group_columns("A", k).backend
    words = factorization_counts(b, [(s, 1) for s in b.simples])
    minimal = factorization_counts(b, [(t, 1) for t in b.reflections])
    c = columns(k)
    for w, ln, rl, free, nw, nm in zip(b.elements, c.length, c.rlength, c.free, words, minimal):
        if ln == rl and (nw == nm) != free:
            return "%s: %d reduced words, %d minimal reflection factorizations, free %s" % (
                format_window(w), nw, nm, bool(free))
    return None


# -------------------------------------------------------------- patterns

def _fc_is_depth_eq_length(k):
    for w, fc, d, ln in _rows(k, "fc", "depth", "length"):
        if fc != (d == ln):
            return "%s: fc %s, depth %d, length %d" % (format_window(w), bool(fc), d, ln)
    return None


def _boolean_is_length_eq_rlength(k):
    for w, boolean, ln, rl in _rows(k, "boolean", "length", "rlength"):
        if boolean != (ln == rl):
            return "%s: boolean %s, length %d, rlength %d" % (format_window(w), bool(boolean), ln, rl)
    return None


def _class_counts_match_closed_forms(k):
    classes = (("fc", None), ("boolean", None), ("free", None), ("depth_eq", 2))
    return _first(class_count_witness(k, cls, param) for cls, param in classes)


def _boolean_support_length(k):
    for w, boolean, ln in _rows(k, "boolean", "length"):
        s = support(w)
        if boolean != (ln == len(s)):
            return "%s: boolean %s, length %d, support %s" % (format_window(w), bool(boolean), ln, sorted(s))
    return None


def _boolean_length_refined_counts(k):
    lengths = range(1, k * (k - 1) // 2 + 1)
    return _first(class_count_witness(k, "boolean_by_length", ell) for ell in lengths)


def _boolean_cycles_are_intervals(k):
    for w, boolean in _rows(k, "boolean"):
        if boolean and not cycles_are_intervals(w):
            return "%s is boolean but has a cycle that is not an interval" % format_window(w)
    return None


def _free_support_gaps(k):
    for w, free, boolean in _rows(k, "free", "boolean"):
        if free:
            s = support(w)
            if not boolean or any(i + 1 in s for i in s):
                return "%s is free, boolean %s, support %s" % (format_window(w), bool(boolean), sorted(s))
    return None


CHECKS = (
    ("parse-format-round-trip", "core", None, _parse_format_round_trip),
    ("compose-inverse-identity", "core", None, _compose_inverse_identity),
    ("bounds-chain", "core", None, _bounds_chain),
    ("depth-rlength-collapse", "core", None, _depth_rlength_collapse),
    ("depth-of-inverse", "core", None, _depth_of_inverse),
    ("excedance-cover-bound", "core", None, _excedance_cover_bound),
    ("max-depth-extremes", "core", None, _max_depth_extremes),
    ("depth-table-row", "core", None, _depth_table_row),
    ("shallow-certificates", "core", None, _shallow_certificates),
    ("selection-dominates", "core", None, _selection_dominates),
    ("depth-delta-formula", "core", 6, _depth_delta_formula),
    ("phi-bijective", "bijection", None, _phi_bijective),
    ("phi-transports-stats", "bijection", None, _phi_transports_stats),
    ("phi-round-trip", "bijection", None, _phi_round_trip),
    ("joint-tables-equal", "bijection", None, _joint_tables_equal),
    ("fiber-unique-minimal", "bijection", None, _fiber_unique_minimal),
    ("lr-maxima-lower-bound", "bijection", None, _lr_maxima_lower_bound),
    ("dyck-path-count", "bijection", None, _dyck_path_count),
    ("depth-three-ways", "oracle", 7, _depth_three_ways),
    ("rlength-two-ways", "oracle", 7, _rlength_two_ways),
    ("backend-length-is-inversions", "oracle", 7, _backend_length_is_inversions),
    ("reflections-are-transpositions", "oracle", 7, _reflections_are_transpositions),
    ("signed-dihedral-cross-check", "oracle", None, _signed_dihedral_cross_check),
    ("dihedral-formula-match", "oracle", None, _dihedral_formula_match),
    ("min-factorizations-free-iff-simple", "oracle", 7, _min_factorizations_free_iff_simple),
    ("fc-is-depth-eq-length", "patterns", None, _fc_is_depth_eq_length),
    ("boolean-is-length-eq-rlength", "patterns", None, _boolean_is_length_eq_rlength),
    ("class-counts-match-closed-forms", "patterns", None, _class_counts_match_closed_forms),
    ("boolean-support-length", "patterns", None, _boolean_support_length),
    ("boolean-length-refined-counts", "patterns", None, _boolean_length_refined_counts),
    ("boolean-cycles-are-intervals", "patterns", None, _boolean_cycles_are_intervals),
    ("free-support-gaps", "patterns", None, _free_support_gaps),
)

SUITES = tuple(dict.fromkeys(suite for _, suite, _, _ in CHECKS))

_ROWS = {row[0]: row for row in CHECKS}


def run(name, n):
    """The witness of check `name` at size min(n, cap), or None when it holds."""
    _, _, cap, check = _ROWS[name]
    return check(n if cap is None else min(n, cap))
