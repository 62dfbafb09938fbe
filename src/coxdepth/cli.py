"""Command line interface.

Subcommands:

  stat PERM        statistics and class flags of one window
  decompose PERM   a transposition factorization, optionally traced
  table WHICH      depth, joint, or class-count tables
  verify           exhaustive property suites with PASS/FAIL lines
  dihedral         the joint length/depth polynomial of a dihedral group

Exit codes: 0 success, 1 a verification failed, 2 usage or parse error.
Output is deterministic: the same invocation prints the same bytes.
"""

import argparse
import json
import sys
from collections import Counter
from itertools import permutations

from . import perm_core
from .perm_core import ParseError, compose, identity, inverse, parse
from .stats import (
    depth,
    depth_after_transposition,
    descents,
    drop,
    excedances,
    length,
    max_depth_bound,
    max_depth_count,
    reflection_length,
)
from .decomp import (
    selection_factorization,
    selection_sort_trace,
    shallow_decomp,
    shallow_trace,
    sorting_index,
    verify_factorization,
)
from .groups import (
    build_backend,
    check_size,
    dihedral_depth_formula,
    dihedral_gf,
    joint_length_depth,
    reflection_depth,
)
from .oracle import depth_oracle, enumerate_min_factorizations, reflection_length_oracle
from .bijections import dyck_of_perm, lr_maxima, minimal_fiber_rep, steingrimsson_phi, steingrimsson_phi_inverse
from .patterns import is_boolean, is_fc, is_free, support, cycles_are_intervals
from .enumeration import (
    KNOWN_DEPTH_ROWS_A,
    count_class,
    depth_distribution,
    export_table,
    joint_distribution,
)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


def _build_parser():
    p = argparse.ArgumentParser(
        prog="coxdepth",
        description="Depth statistics for permutations, signed permutations, and dihedral elements.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("stat", help="statistics and class flags of a permutation")
    q.add_argument("perm", help="window text such as 3412 or '3 4 1 2'")
    q.add_argument("--format", choices=("plain", "json"), default="plain")
    q.set_defaults(func=_cmd_stat)

    q = sub.add_parser("decompose", help="transposition factorization of a permutation")
    q.add_argument("perm")
    q.add_argument("--method", choices=("shallow", "selection"), default="shallow")
    q.add_argument("--trace", action="store_true", help="also print the sorting steps")
    q.add_argument("--format", choices=("plain", "json"), default="plain")
    q.set_defaults(func=_cmd_decompose)

    q = sub.add_parser("table", help="distribution tables")
    q.add_argument("which", choices=("depth", "joint", "class"))
    q.add_argument("--group", choices=("A", "B", "I2"), default="A")
    q.add_argument("--n", type=int)
    q.add_argument("--m", type=int, help="dihedral order parameter, for --group I2")
    q.add_argument("--cls", choices=("fc", "boolean", "free", "depth_eq", "boolean_by_length"))
    q.add_argument("--k", type=int, help="parameter for depth_eq and boolean_by_length")
    q.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    q.set_defaults(func=_cmd_table)

    q = sub.add_parser("verify", help="run exhaustive property suites")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--suite", choices=("all", "core", "bijection", "oracle", "patterns"), default="all")
    q.set_defaults(func=_cmd_verify)

    q = sub.add_parser("dihedral", help="joint length/depth polynomial of a dihedral group")
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=_cmd_dihedral)

    return p


# ------------------------------------------------------------------ stat

def _flag(v):
    return "true" if v else "false"


def _cmd_stat(args):
    w = parse(args.perm)
    pairs = (
        ("length", length(w)),
        ("rlength", reflection_length(w)),
        ("depth", depth(w)),
        ("drop", drop(w)),
        ("des", len(descents(w))),
        ("exc", len(excedances(w))),
        ("fc", is_fc(w)),
        ("boolean", is_boolean(w)),
        ("free", is_free(w)),
    )
    if args.format == "json":
        print(json.dumps(dict(pairs), sort_keys=True))
    else:
        print(" ".join("%s=%s" % (k, _flag(v) if isinstance(v, bool) else v) for k, v in pairs))
    return 0


# ------------------------------------------------------------- decompose

def _cycles_text(factors):
    if not factors:
        return "e"
    return "".join("(%d %d)" % f for f in factors)


def _trace_lines(trace):
    windows = [step.window for step in trace.steps] + [trace.final]
    lines = []
    for step, nxt in zip(trace.steps, windows[1:]):
        i, j = step.transposition
        lines.append(
            "%s --(%d %d)%s--> %s"
            % (perm_core.format(step.window), i, j, step.side, perm_core.format(nxt))
        )
    return lines


def _cmd_decompose(args):
    w = parse(args.perm)
    if args.method == "shallow":
        fact = shallow_decomp(w)
        trace = shallow_trace(w)
    else:
        fact = selection_factorization(w)
        trace = selection_sort_trace(w)
    if args.format == "json":
        obj = {
            "method": args.method,
            "factors": [list(f) for f in fact.factors],
            "sides": list(fact.side_tags),
            "weights": list(fact.depth_weights),
            "weight": fact.total_weight,
        }
        if args.trace:
            obj["trace"] = _trace_lines(trace)
        print(json.dumps(obj, sort_keys=True))
        return 0
    if args.method == "shallow":
        print(
            "u = %s; v = %s; weight %d"
            % (_cycles_text(fact.u_factors), _cycles_text(fact.v_factors), fact.total_weight)
        )
    else:
        print("w = %s; weight %d" % (_cycles_text(fact.factors), fact.total_weight))
    if fact.factors:
        print("factor weights: %s" % " ".join(str(x) for x in fact.depth_weights))
    if args.trace:
        for line in _trace_lines(trace):
            print(line)
    return 0


# ----------------------------------------------------------------- table

def _cmd_table(args):
    if args.which == "depth":
        if args.group == "I2":
            if args.m is None:
                raise ValueError("depth tables for group I2 need --m")
            size = args.m
        else:
            if args.n is None:
                raise ValueError("depth tables need --n")
            size = args.n
        print(export_table(depth_distribution(args.group, size), args.format))
        return 0
    if args.which == "joint":
        if args.n is None:
            raise ValueError("joint tables need --n")
        by_drop = joint_distribution(args.n, ("drop", "des"))
        by_depth = joint_distribution(args.n, ("dep", "exc"))
        if by_drop.coeffs != by_depth.coeffs:
            print("error: drop/des and dep/exc tables disagree at n=%d" % args.n, file=sys.stderr)
            return 1
        print(export_table(by_depth, args.format))
        return 0
    if args.cls is None:
        raise ValueError("class tables need --cls")
    if args.n is None:
        raise ValueError("class tables need --n")
    print(count_class(args.n, args.cls, args.k))
    return 0


# -------------------------------------------------------------- dihedral

def _poly_text(gf):
    parts = []
    for (lq, td), c in sorted(gf.items()):
        factors = []
        if c != 1 or (lq == 0 and td == 0):
            factors.append(str(c))
        if lq:
            factors.append("q" if lq == 1 else "q^%d" % lq)
        if td:
            factors.append("t" if td == 1 else "t^%d" % td)
        parts.append("*".join(factors))
    return " + ".join(parts)


def _cmd_dihedral(args):
    backend = build_backend("I2", args.m)
    closed = dihedral_gf(args.m)
    from_formula = joint_length_depth(
        backend, [dihedral_depth_formula(backend, x) for x in backend.elements]
    )
    from_oracle = joint_length_depth(backend, depth_oracle(backend))
    print(_poly_text(closed))
    if closed != from_formula or closed != from_oracle:
        print("error: dihedral polynomial mismatch at m=%d" % args.m, file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- verify

def _windows(n):
    return permutations(range(1, n + 1))


def _core_checks(n):
    def parse_format_round_trip():
        k = min(n, 6)
        return all(parse(perm_core.format(w)) == w for w in _windows(k))

    def compose_inverse_identity():
        k = min(n, 6)
        e = identity(k)
        return all(compose(w, inverse(w)) == e and compose(inverse(w), w) == e for w in _windows(k))

    def bounds_chain():
        return all(reflection_length(w) <= depth(w) <= length(w) for w in _windows(n))

    def depth_rlength_collapse():
        # depth hits its lower bound exactly when length does
        return all((depth(w) == reflection_length(w)) == (length(w) == reflection_length(w)) for w in _windows(n))

    def depth_of_inverse():
        k = min(n, 7)
        return all(depth(w) == depth(inverse(w)) for w in _windows(k))

    def excedance_cover_bound():
        # each excedance value w(i) needs at least w(i) - i larger-then-smaller
        # crossings after it, with equality exactly at left-to-right maxima
        k = min(n, 7)
        for w in _windows(k):
            maxima = {i for i, _ in lr_maxima(w)}
            for i in excedances(w):
                crossings = sum(1 for j in range(i + 1, k + 1) if w[j - 1] < w[i - 1])
                if crossings < w[i - 1] - i:
                    return False
                if (crossings == w[i - 1] - i) != (i in maxima):
                    return False
        return True

    def max_depth_extremes():
        row = depth_distribution("A", n).counts
        return len(row) - 1 == max_depth_bound(n) and row[-1] == max_depth_count(n)

    def depth_table_row():
        return depth_distribution("A", n).counts == KNOWN_DEPTH_ROWS_A[n]

    def shallow_certificates():
        return all(verify_factorization(w, shallow_decomp(w)).ok for w in _windows(n))

    def selection_dominates():
        k = min(n, 7)
        for w in _windows(k):
            if sorting_index(w) < depth(w):
                return False
            if len(selection_factorization(w).factors) != reflection_length(w):
                return False
        return True

    def depth_delta_formula():
        k = min(n, 6)
        for w in _windows(k):
            for i in range(1, k + 1):
                for j in range(i + 1, k + 1):
                    if w[i - 1] < w[j - 1]:
                        direct = depth(perm_core.apply_transposition_right(w, i, j))
                        if depth_after_transposition(w, i, j) != direct:
                            return False
        return True

    return [
        ("parse-format-round-trip", parse_format_round_trip),
        ("compose-inverse-identity", compose_inverse_identity),
        ("bounds-chain", bounds_chain),
        ("depth-rlength-collapse", depth_rlength_collapse),
        ("depth-of-inverse", depth_of_inverse),
        ("excedance-cover-bound", excedance_cover_bound),
        ("max-depth-extremes", max_depth_extremes),
        ("depth-table-row", depth_table_row),
        ("shallow-certificates", shallow_certificates),
        ("selection-dominates", selection_dominates),
        ("depth-delta-formula", depth_delta_formula),
    ]


def _bijection_checks(n):
    def phi_bijective():
        return len({steingrimsson_phi(w) for w in _windows(n)}) == sum(1 for _ in _windows(n))

    def phi_transports_stats():
        for w in _windows(n):
            v = steingrimsson_phi(w)
            if len(descents(w)) != len(excedances(v)) or drop(w) != depth(v):
                return False
        return True

    def phi_round_trip():
        return all(steingrimsson_phi_inverse(steingrimsson_phi(w)) == w for w in _windows(n))

    def joint_tables_equal():
        return joint_distribution(n, ("drop", "des")).coeffs == joint_distribution(n, ("dep", "exc")).coeffs

    def fiber_unique_minimal():
        k = min(n, 7)
        fibers = {}
        for w in _windows(k):
            fibers.setdefault(dyck_of_perm(w), []).append(w)
        for path, fiber in fibers.items():
            rep = minimal_fiber_rep(path)
            for w in fiber:
                tight = depth(w) == length(w)
                if tight != (w == rep):
                    return False
        return True

    def lr_maxima_lower_bound():
        k = min(n, 7)
        for w in _windows(k):
            base = sum(x - i for i, x in lr_maxima(w))
            if not base <= depth(w) <= length(w):
                return False
        return True

    def dyck_path_count():
        k = min(n, 7)
        catalan = 1
        for i in range(k):
            catalan = catalan * 2 * (2 * i + 1) // (i + 2)
        return len({dyck_of_perm(w) for w in _windows(k)}) == catalan

    return [
        ("phi-bijective", phi_bijective),
        ("phi-transports-stats", phi_transports_stats),
        ("phi-round-trip", phi_round_trip),
        ("joint-tables-equal", joint_tables_equal),
        ("fiber-unique-minimal", fiber_unique_minimal),
        ("lr-maxima-lower-bound", lr_maxima_lower_bound),
        ("dyck-path-count", dyck_path_count),
    ]


def _oracle_checks(n):
    k = min(n, 7)
    backend = build_backend("A", k)

    def depth_three_ways():
        depths = depth_oracle(backend)
        for w in backend.elements:
            if not depth(w) == depths[backend.rank(w)] == shallow_decomp(w).total_weight:
                return False
        return True

    def rlength_two_ways():
        table = reflection_length_oracle(backend)
        return all(table[backend.rank(w)] == reflection_length(w) for w in backend.elements)

    def backend_length_is_inversions():
        return all(backend.length(w) == length(w) for w in backend.elements)

    def reflections_are_transpositions():
        seen = set()
        for t in backend.reflections:
            moved = [i for i, x in enumerate(t, start=1) if x != i]
            if len(moved) != 2:
                return False
            i, j = moved
            if backend.lengths[backend.rank(t)] % 2 == 0:
                return False
            if reflection_depth(backend, t) != j - i:
                return False
            seen.add((i, j))
        return len(seen) == k * (k - 1) // 2

    def signed_dihedral_cross_check():
        # the rank two signed group is the dihedral group of order 8
        signed = Counter(depth_oracle(build_backend("B", 2)))
        dihedral = Counter(
            {d: c for d, c in enumerate(depth_distribution("I2", 4).counts) if c}
        )
        return signed == dihedral

    def dihedral_formula_match():
        for m in range(2, 13):
            b = build_backend("I2", m)
            depths = depth_oracle(b)
            for x in b.elements:
                if depths[b.rank(x)] != dihedral_depth_formula(b, x):
                    return False
            if dihedral_gf(m) != joint_length_depth(b, depths):
                return False
        return True

    def min_factorizations_free_iff_simple():
        kk = min(n, 6)
        b = build_backend("A", kk)
        simple_idx = {b.reflections.index(s) for s in b.simples}
        for w in b.elements:
            if length(w) != reflection_length(w):
                continue
            seqs = enumerate_min_factorizations(b, w)
            all_simple = all(idx in simple_idx for seq in seqs for idx in seq)
            if all_simple != is_free(w):
                return False
        return True

    return [
        ("depth-three-ways", depth_three_ways),
        ("rlength-two-ways", rlength_two_ways),
        ("backend-length-is-inversions", backend_length_is_inversions),
        ("reflections-are-transpositions", reflections_are_transpositions),
        ("signed-dihedral-cross-check", signed_dihedral_cross_check),
        ("dihedral-formula-match", dihedral_formula_match),
        ("min-factorizations-free-iff-simple", min_factorizations_free_iff_simple),
    ]


def _pattern_checks(n):
    def fc_is_depth_eq_length():
        return all(is_fc(w) == (depth(w) == length(w)) for w in _windows(n))

    def boolean_is_length_eq_rlength():
        return all(is_boolean(w) == (length(w) == reflection_length(w)) for w in _windows(n))

    def class_counts_match_closed_forms():
        # count_class raises AssertionError when a closed form disagrees
        try:
            count_class(n, "fc")
            count_class(n, "boolean")
            count_class(n, "free")
            if n >= 3:
                count_class(n, "depth_eq", 2)
        except AssertionError:
            return False
        return True

    def boolean_support_length():
        k = min(n, 7)
        return all(is_boolean(w) == (length(w) == len(support(w))) for w in _windows(k))

    def boolean_length_refined_counts():
        k = min(n, 7)
        top = k * (k - 1) // 2
        try:
            for ell in range(1, top + 1):
                count_class(k, "boolean_by_length", ell)
        except AssertionError:
            return False
        return True

    def boolean_cycles_are_intervals():
        k = min(n, 7)
        return all(cycles_are_intervals(w) for w in _windows(k) if is_boolean(w))

    def free_support_gaps():
        k = min(n, 7)
        for w in _windows(k):
            if is_free(w):
                s = support(w)
                if not is_boolean(w) or any(i + 1 in s for i in s):
                    return False
        return True

    return [
        ("fc-is-depth-eq-length", fc_is_depth_eq_length),
        ("boolean-is-length-eq-rlength", boolean_is_length_eq_rlength),
        ("class-counts-match-closed-forms", class_counts_match_closed_forms),
        ("boolean-support-length", boolean_support_length),
        ("boolean-length-refined-counts", boolean_length_refined_counts),
        ("boolean-cycles-are-intervals", boolean_cycles_are_intervals),
        ("free-support-gaps", free_support_gaps),
    ]


def _cmd_verify(args):
    n = args.n
    check_size("A", n, "verify")
    checks = []
    if args.suite in ("all", "core"):
        checks += _core_checks(n)
    if args.suite in ("all", "bijection"):
        checks += _bijection_checks(n)
    if args.suite in ("all", "oracle"):
        checks += _oracle_checks(n)
    if args.suite in ("all", "patterns"):
        checks += _pattern_checks(n)
    failures = 0
    for name, fn in checks:
        ok = fn()
        print("%s %s" % ("PASS" if ok else "FAIL", name))
        if not ok:
            failures += 1
    return 1 if failures else 0
