"""Exact distribution tables over whole groups.

Everything here is exhaustive. columns(n) sweeps S_n once, cached per
n; the type-A depth table, the joint tables, the class counts and the
property checks fold its columns. The B and I2 depth tables fold the
oracle's depth column of oracle.group_columns, cached per group.
coxdepth.checks compares the results.
"""

import json
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, permutations

from .groups import check_size
from .oracle import group_columns
from .patterns import is_boolean, is_fc, is_free
from .stats import depth, descents, drop, excedances, length, reflection_length

# Counts of windows in S_n by depth (OEIS entry A062869), used by the
# verification suites as an independent reference.
KNOWN_DEPTH_ROWS_A = {
    1: (1,),
    2: (1, 1),
    3: (1, 2, 3),
    4: (1, 3, 7, 9, 4),
    5: (1, 4, 12, 24, 35, 24, 20),
    6: (1, 5, 18, 46, 93, 137, 148, 136, 100, 36),
    7: (1, 6, 25, 76, 187, 366, 591, 744, 884, 832, 716, 360, 252),
    8: (1, 7, 33, 115, 327, 765, 1523, 2553, 3696, 4852, 5708, 5892,
        5452, 4212, 2844, 1764, 576),
}


# Per-window statistics of S_n, one byte per window in lexicographic
# order, which is also the rank order of the type-A backend. des and
# exc count descents and excedances; fc, boolean and free are 1 or 0,
# from the pattern scans. `coxdepth stat` prints them in this order.
Columns = namedtuple("Columns", "length rlength depth drop des exc fc boolean free")


def stat_row(w):
    """The statistics of window w in Columns order, the class flags as bools."""
    # boolean and free windows avoid 321, so only fc windows need their scans
    fc = is_fc(w)
    return (length(w), reflection_length(w), depth(w), drop(w), len(descents(w)),
            len(excedances(w)), fc, fc and is_boolean(w), fc and is_free(w))


@lru_cache(maxsize=None)
def columns(n):
    """The Columns of S_n, from one sweep over its n! windows."""
    check_size("A", n, "the columns of S_n")
    cols = [bytearray() for _ in Columns._fields]
    for w in permutations(range(1, n + 1)):
        for col, value in zip(cols, stat_row(w)):
            col.append(value)
    return Columns(*map(bytes, cols))


@dataclass(frozen=True)
class DepthTable:
    """counts[k] = number of elements with the statistic equal to k."""

    kind: str
    n: int
    stat: str
    counts: tuple


@dataclass(frozen=True)
class JointTable:
    """Coefficients of a bivariate polynomial q^pair[0] * t^pair[1].

    coeffs is a sorted tuple of ((q_exp, t_exp), coefficient) pairs, so
    two tables are equal exactly when their polynomials are.
    """

    n: int
    pair: tuple
    coeffs: tuple


def depth_distribution(kind, n):
    """Counts of group elements by depth.

    kind "A" folds the depth column of S_n (n up to 8); kinds "B" (n
    up to 5) and "I2" (m = n up to 12) fold the weighted shortest-path
    oracle's depths over every group element.
    """
    check_size(kind, n, "a kind %s depth table" % kind)
    if kind == "A":
        counts = Counter(columns(n).depth)
    else:
        counts = Counter(group_columns(kind, n).depth)
    table = tuple(counts.get(k, 0) for k in range(max(counts) + 1))
    return DepthTable(kind, n, "depth", table)


def joint_distribution(n, pair):
    """The bivariate table q^first * t^second folded over all of S_n.

    pair is ("drop", "des") or ("dep", "exc").
    """
    check_size("A", n, "a joint table")
    pair = tuple(pair)
    c = columns(n)
    if pair == ("drop", "des"):
        counts = Counter(zip(c.drop, c.des))
    elif pair == ("dep", "exc"):
        counts = Counter(zip(c.depth, c.exc))
    else:
        raise ValueError("pair must be ('drop', 'des') or ('dep', 'exc'), got %r" % (pair,))
    return JointTable(n, pair, tuple(sorted(counts.items())))


def count_class(n, cls, k=None):
    """Count a class of windows in S_n by folding its columns.

    cls is one of "fc", "boolean", "free", "depth_eq" or
    "boolean_by_length"; the last two need the extra parameter k, and
    the first three raise ValueError when given one. The closed forms
    these counts obey live in coxdepth.checks.
    """
    check_size("A", n, "a class count")
    if k is not None and cls in ("fc", "boolean", "free"):
        raise ValueError("class %s takes no parameter k" % cls)
    c = columns(n)
    if cls in ("fc", "boolean", "free"):
        return sum(getattr(c, cls))
    if cls not in ("depth_eq", "boolean_by_length"):
        raise ValueError("unknown class %r" % (cls,))
    if k is None:
        raise ValueError("class %s needs the parameter k" % cls)
    if cls == "depth_eq":
        return Counter(c.depth)[k]
    return Counter(compress(c.length, c.boolean))[k]


def export_table(table, fmt):
    """Serialize a table deterministically.

    plain: one line; depth tables as space-separated counts, joint
    tables as q,t:coeff tokens. csv: header plus one row per entry
    (n,k,count for depth tables, n,q,t,coeff for joint tables). json:
    one object with sorted keys.
    """
    joint = isinstance(table, JointTable)
    if fmt == "plain":
        if joint:
            return " ".join("%d,%d:%d" % (q, t, c) for (q, t), c in table.coeffs)
        return " ".join(str(c) for c in table.counts)
    if fmt == "csv":
        if joint:
            lines = ["n,q,t,coeff"]
            lines += ["%d,%d,%d,%d" % (table.n, q, t, c) for (q, t), c in table.coeffs]
        else:
            lines = ["n,k,count"]
            lines += ["%d,%d,%d" % (table.n, k, c) for k, c in enumerate(table.counts)]
        return "\n".join(lines)
    if fmt == "json":
        if joint:
            obj = {
                "stat": "%s_%s" % table.pair,
                "n": table.n,
                "coeffs": [[q, t, c] for (q, t), c in table.coeffs],
            }
        else:
            obj = {
                "kind": table.kind,
                "stat": table.stat,
                "n": table.n,
                "counts": list(table.counts),
            }
        return json.dumps(obj, sort_keys=True)
    raise ValueError("unknown format %r (expected plain, csv or json)" % (fmt,))
