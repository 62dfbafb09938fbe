"""Command line interface.

Subcommands:

  stat PERM        statistics and class flags of one window
  decompose PERM   a transposition factorization, optionally traced
  table WHICH      depth, joint, or class-count tables
  verify           exhaustive property suites with PASS/FAIL lines; each
                   FAIL line is followed by an indented witness line
                   naming the element and the values that disagree
  dihedral         the joint length/depth polynomial of a dihedral group

The commands compare nothing themselves. `table joint`, `table class`
and `dihedral` first ask coxdepth.checks for a witness; on one they
print `error: <witness>` on stderr, nothing on stdout, and exit 1.

Exit codes: 0 success, 1 a verification failed, 2 usage or parse error.
Output is deterministic: the same invocation prints the same bytes.
"""

import argparse
import json
import sys

from . import checks, perm_core
from .perm_core import ParseError, parse
from .decomp import selection_factorization, selection_sort_trace, shallow_decomp, shallow_trace
from .groups import check_size, dihedral_gf
from .enumeration import Columns, count_class, depth_distribution, export_table, joint_distribution, stat_row


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


def _refuse(witness):
    print("error: " + witness, file=sys.stderr)
    return 1


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
    q.add_argument("--suite", choices=("all",) + checks.SUITES, default="all")
    q.set_defaults(func=_cmd_verify)

    q = sub.add_parser("dihedral", help="joint length/depth polynomial of a dihedral group")
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=_cmd_dihedral)

    return p


# ------------------------------------------------------------------ stat

def _cmd_stat(args):
    pairs = tuple(zip(Columns._fields, stat_row(parse(args.perm))))
    if args.format == "json":
        print(json.dumps(dict(pairs), sort_keys=True))
    else:
        # JSON spells the counts as digits and the class flags as true/false
        print(" ".join("%s=%s" % (k, json.dumps(v)) for k, v in pairs))
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
        witness = checks.run("joint-tables-equal", args.n)
        if witness is not None:
            return _refuse(witness)
        print(export_table(joint_distribution(args.n, ("dep", "exc")), args.format))
        return 0
    if args.cls is None:
        raise ValueError("class tables need --cls")
    if args.n is None:
        raise ValueError("class tables need --n")
    witness = checks.class_count_witness(args.n, args.cls, args.k)
    if witness is not None:
        return _refuse(witness)
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
    witness = checks.dihedral_witness(args.m)
    if witness is not None:
        return _refuse(witness)
    print(_poly_text(dihedral_gf(args.m)))
    return 0


# ---------------------------------------------------------------- verify

def _cmd_verify(args):
    check_size("A", args.n, "verify")
    failures = 0
    for name, suite, _, _ in checks.CHECKS:
        if args.suite not in ("all", suite):
            continue
        witness = checks.run(name, args.n)
        if witness is None:
            print("PASS " + name)
        else:
            print("FAIL " + name)
            print("  " + witness)
            failures += 1
    return 1 if failures else 0
