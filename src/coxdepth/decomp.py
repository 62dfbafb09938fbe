"""Transposition factorizations read off one sorting walk.

Straight selection sort drives a window to the identity: each step
takes the largest out-of-place value m, at position j = w^-1(m), and
swaps positions j and m. The walk is computed once and read two ways.

Read as right factors t_jm, the steps are the selection sort
factorization. Its total transposition cost is the sorting index, an
upper bound for depth; its step count always equals the reflection
length.

The shallow decomposition reads each step by comparing a = w(m) with
j: when a < j it records the right factor t_jm, otherwise the left
factor t_am, since swapping positions j and m is the same as swapping
the values a and m. The factors assemble into blocks u and v with
w = u * v, the factor count equals reflection_length(w), and the total
cost sum(j - i) equals depth(w), so the factorization is optimal in
both senses at once.
"""

from dataclasses import dataclass

from .perm_core import apply_transposition_right, identity
from .stats import depth, reflection_length


@dataclass(frozen=True)
class Factorization:
    """A product of transpositions equal to some window.

    factors holds (i, j) pairs in product order, side_tags marks each
    factor as part of the left block "u" or the right block "v", and
    depth_weights stores each factor's cost j - i.
    """

    factors: tuple
    side_tags: tuple
    depth_weights: tuple

    @property
    def total_weight(self):
        return sum(self.depth_weights)

    @property
    def u_factors(self):
        return tuple(f for f, s in zip(self.factors, self.side_tags) if s == "u")

    @property
    def v_factors(self):
        return tuple(f for f, s in zip(self.factors, self.side_tags) if s == "v")


@dataclass(frozen=True)
class TraceStep:
    window: tuple  # state before the step
    transposition: tuple  # the (i, j) applied
    side: str  # "L" swaps the values i and j, "R" swaps the positions


@dataclass(frozen=True)
class SortTrace:
    steps: tuple
    final: tuple  # the window the sort ended on, always the identity


def _sort_walk(w):
    # the steps (window, j, m) of straight selection sort and the window
    # it ends on; each step swaps positions j = w^-1(m) and m
    steps = []
    cur = w
    for m in range(len(w), 1, -1):
        if cur[m - 1] != m:
            j = cur.index(m) + 1
            steps.append((cur, j, m))
            cur = apply_transposition_right(cur, j, m)
    return steps, cur


def _shallow_reading(win, j, m):
    # the transposition and side the shallow decomposition records
    a = win[m - 1]
    return ((j, m), "R") if a < j else ((a, m), "L")


def selection_sort_trace(w):
    """The steps of straight selection sort on w.

    Every step swaps the largest out-of-place value into its home
    position, acting on positions (right multiplication).
    """
    steps, final = _sort_walk(w)
    return SortTrace(tuple(TraceStep(win, (j, m), "R") for win, j, m in steps), final)


def sorting_index(w):
    """Total cost sum(j - i) of the selection sort transpositions."""
    steps, _ = _sort_walk(w)
    return sum(m - j for _, j, m in steps)


def selection_factorization(w):
    """w as the product of the selection sort transpositions.

    The sort computes w * t_1 * ... * t_k = e, so w = t_k * ... * t_1:
    the factors are the steps in reverse. All of them are tagged "u".
    """
    steps, _ = _sort_walk(w)
    factors = tuple((j, m) for _, j, m in reversed(steps))
    return Factorization(factors, ("u",) * len(factors), tuple(m - j for j, m in factors))


def shallow_decomp(w):
    """The shallow factorization of w: blocks u and v with w = u * v.

    Left factors collect in processing order and right factors in
    reverse, so factors reads in product order. The factor count equals
    reflection_length(w) and the total weight equals depth(w).
    """
    read = [_shallow_reading(*step) for step in _sort_walk(w)[0]]
    u = [f for f, side in read if side == "L"]
    v = [f for f, side in read if side == "R"][::-1]
    factors = tuple(u + v)
    tags = ("u",) * len(u) + ("v",) * len(v)
    return Factorization(factors, tags, tuple(j - i for i, j in factors))


def shallow_trace(w):
    """The shallow decomposition as a step-by-step trace.

    The steps and windows are those of selection_sort_trace(w); only
    the recorded transposition and side differ, "L" (a, m) or "R" (j, m).
    """
    steps, final = _sort_walk(w)
    return SortTrace(tuple(TraceStep(win, *_shallow_reading(win, j, m)) for win, j, m in steps), final)


@dataclass(frozen=True)
class VerifyReport:
    product_ok: bool
    count_ok: bool
    weight_ok: bool

    @property
    def ok(self):
        return self.product_ok and self.count_ok and self.weight_ok


def verify_factorization(w, factorization):
    """Check a factorization's three certificates against w.

    product_ok: the factors multiply to w in the listed order.
    count_ok: the factor count equals reflection_length(w).
    weight_ok: every stored weight is the cost j - i of its factor and
    the weights sum to depth(w).
    """
    prod = identity(len(w))
    for i, j in factorization.factors:
        prod = apply_transposition_right(prod, i, j)
    count_ok = len(factorization.factors) == reflection_length(w)
    weights = factorization.depth_weights
    weight_ok = (
        len(weights) == len(factorization.factors)
        and all(wt == j - i for wt, (i, j) in zip(weights, factorization.factors))
        and sum(weights) == depth(w)
    )
    return VerifyReport(prod == w, count_ok, weight_ok)
