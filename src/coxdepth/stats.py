"""Permutation statistics: length, reflection length, depth, and friends.

For a window w in S_n:

- length(w) is the inversion count, the least number of adjacent
  transpositions whose product is w;
- reflection_length(w) is n minus the number of cycles, the least
  number of arbitrary transpositions;
- depth(w) is the total excedance displacement, the sum of w(i) - i
  over positions with w(i) > i. It equals the least total cost of a
  transposition factorization of w when t_ij costs j - i, which places
  it between the other two: reflection_length <= depth <= length.

depth_after_transposition gives the depth after a single right
multiplication that swaps a smaller value forward: depth(w), which
costs O(n), plus a correction found in O(1).
"""

from math import factorial

from .perm_core import cycle_decomposition

_MAX_N = 20  # cap for the closed-form extremal helpers


def length(w):
    """Inversion count of w."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def reflection_length(w):
    return len(w) - len(cycle_decomposition(w))


def depth(w):
    return sum(x - i for i, x in enumerate(w, start=1) if x > i)


def excedances(w):
    """Positions i with w(i) > i, ascending."""
    return tuple(i for i, x in enumerate(w, start=1) if x > i)


def descents(w):
    """Positions i with w(i) > w(i+1), ascending."""
    return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])


def drop(w):
    """Total descent drop: the sum of w(i) - w(i+1) over descents."""
    return sum(w[i - 1] - w[i] for i in descents(w))


def depth_after_transposition(w, i, j):
    """depth(w * t_ij) for i < j with w(i) < w(j), from depth(w) in O(n).

    Swapping the smaller value forward adds min(w(j), j) - max(w(i), i)
    to the depth when that difference is positive and leaves the depth
    unchanged when j <= w(i) or w(j) < i.
    """
    n = len(w)
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n, got i=%d, j=%d, n=%d" % (i, j, n))
    a, b = w[i - 1], w[j - 1]
    if a >= b:
        raise ValueError("need w(i) < w(j), got w(%d)=%d, w(%d)=%d" % (i, a, j, b))
    base = depth(w)
    if j <= a or b < i:
        return base
    return base + min(b, j) - max(a, i)


def max_depth_bound(n):
    """The largest depth attained in S_n: floor(n^2 / 4)."""
    _check_n(n)
    return n * n // 4


def max_depth_count(n):
    """How many w in S_n attain the maximal depth.

    With k = floor(n / 2) the count is (k!)^2 for even n and n * (k!)^2
    for odd n.
    """
    _check_n(n)
    k = n // 2
    square = factorial(k) ** 2
    return square if n % 2 == 0 else n * square


def _check_n(n):
    if not 1 <= n <= _MAX_N:
        raise ValueError("n must be in 1..%d, got %d" % (_MAX_N, n))
