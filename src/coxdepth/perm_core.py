"""Permutations as windows.

A permutation w of {1, ..., n} is stored as a tuple of length n whose
entry at index i - 1 is w(i). All public functions speak 1-indexed
positions. Products follow the function-composition convention
(u * v)(i) = u(v(i)), so multiplying by a transposition on the right
swaps two entries (positions) and on the left swaps two values.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Raised when permutation text cannot be read."""


def identity(n):
    return tuple(range(1, n + 1))


def compose(u, v):
    """The product u * v, where (u * v)(i) = u(v(i))."""
    if len(u) != len(v):
        raise ValueError("size mismatch: %d vs %d" % (len(u), len(v)))
    return tuple(u[x - 1] for x in v)


def inverse(w):
    inv = [0] * len(w)
    for i, x in enumerate(w, start=1):
        inv[x - 1] = i
    return tuple(inv)


def cycle_decomposition(w):
    """The cycles of w, fixed points included.

    Each cycle starts at its smallest element and the cycles come
    sorted by those elements, so the result is canonical:
    cycle_decomposition((3, 4, 1, 2)) == ((1, 3), (2, 4)).
    """
    n = len(w)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        cyc = [start]
        x = w[start - 1]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = w[x - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def apply_transposition_right(w, i, j):
    """w * t_ij: the window with the entries at positions i and j swapped."""
    n = len(w)
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n, got i=%d, j=%d, n=%d" % (i, j, n))
    out = list(w)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def parse(text):
    """Read a permutation from text.

    Two forms are accepted: contiguous digits like "3412" (which caps n
    at 9), or values separated by spaces or commas like "3 4 1 2" or
    "3,4,1,2". The values must be exactly 1..n in some order. Digits
    are the ASCII 0-9 only; other Unicode digits are malformed tokens.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty permutation text")
    if "," in s or any(ch.isspace() for ch in s):
        tokens = s.replace(",", " ").split()
    else:
        tokens = list(s)
    values = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError("malformed token %r" % tok)
        values.append(int(tok))
    n = len(values)
    seen = set()
    for x in values:
        if x in seen:
            raise ParseError("repeated value %d" % x)
        seen.add(x)
        if not 1 <= x <= n:
            raise ParseError("value %d out of range 1..%d" % (x, n))
    return tuple(values)


def format(w):
    """Render a window as text; parse(format(w)) == w.

    Small windows (n <= 9) render as contiguous digits, larger ones
    space-separated.
    """
    sep = "" if len(w) <= 9 else " "
    return sep.join(str(x) for x in w)
