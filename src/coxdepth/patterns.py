"""Pattern containment and the classes where depth collapses.

contains_pattern is the general reference: it finds the
lexicographically least witness of any classical pattern by a
backtracking subsequence search, O(n^k) for a pattern of length k;
the windows that avoid the pattern are its slow case, since the search
runs to the end on them. Three classes get named predicates:

- fully commutative (is_fc): avoids 321; exactly the windows with
  depth equal to length;
- boolean (is_boolean): avoids 321 and 3412; exactly the windows with
  length equal to reflection length (and depth equal to both); their
  reduced words repeat no letter;
- free (is_free): avoids 231, 312 and 321; the products of pairwise
  commuting simple transpositions, i.e. boolean with no two adjacent
  support indices.

The predicates do not call contains_pattern. Each pattern has its own
avoidance scan: 321, 231 and 312 in O(n), 3412 in O(n^2). The
predicates accept only windows, tuples that are permutations of 1..n,
and raise ValueError for anything else.

support computes the set of simple-transposition indices occurring in
every reduced word without building one, via prefix sets.
"""

from bisect import bisect_left

from .perm_core import cycle_decomposition, inverse


def contains_pattern(w, pattern):
    """The lexicographically least witness that `pattern` occurs in w.

    A witness is a tuple of positions i_1 < ... < i_k whose values
    appear in the same relative order as the pattern (itself given as a
    window). Returns None when w avoids the pattern. The search is a
    plain subsequence scan with early pruning, O(n^k) in the worst case;
    it is the general reference against which the dedicated scans behind
    is_fc, is_boolean and is_free are tested.
    """
    n, k = len(w), len(pattern)
    if k == 0:
        return ()
    pos = [0] * k

    def search(t, start):
        for i in range(start, n - (k - t) + 1):
            ok = True
            for s in range(t):
                if (pattern[s] < pattern[t]) != (w[pos[s]] < w[i]):
                    ok = False
                    break
            if ok:
                pos[t] = i
                if t + 1 == k or search(t + 1, i + 1):
                    return True
        return False

    if search(0, 0):
        return tuple(i + 1 for i in pos)
    return None


def avoids(w, pattern):
    return contains_pattern(w, pattern) is None


def _require_window(w):
    """Raise ValueError unless w is a permutation of 1..len(w); O(n)."""
    if set(w) != set(range(1, len(w) + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (len(w), w))


def _has_321(w):
    """Whether w contains 321, in O(n).

    w avoids 321 exactly when the values that are not left-to-right
    maxima increase: a non-maximum x has a larger value before it, so a
    later non-maximum below x completes a 321.
    """
    top = low = 0
    for x in w:
        if x > top:
            top = x
        elif x < low:
            return True
        else:
            low = x
    return False


def _has_231(w):
    """Whether w contains 231, in O(n): Knuth's stack sort.

    w avoids 231 exactly when one stack sorts it (TAOCP vol. 1, 2.2.1).
    Each value pops the smaller values off the top of the stack and is
    then pushed. The pops come out increasing unless a later x falls
    below a value b already popped; b, the larger value that popped it,
    and x form a 231.
    """
    stack = []
    low = 0  # the last value popped; pops increase while w avoids 231
    for x in w:
        if x < low:
            return True
        while stack and stack[-1] < x:
            low = stack.pop()
        stack.append(x)
    return False


def _has_312(w):
    """Whether w contains 312, in O(n): 231 = 312^-1, so scan w^-1."""
    return _has_231(inverse(w))


def _has_3412(w):
    """Whether w contains 3412, in O(n^2): the sorted-list inserts move O(n) each.

    With left[b] the largest w(a) < w(b) at some a < b and right[c] the
    smallest w(d) > w(c) at some d > c, w contains 3412 iff some b < c
    has left[b] > right[c]; then w(c) < right[c] < left[b] < w(b)
    follows, so (a, b, c, d) is an occurrence. A forward pass keeps the
    running maximum of left over b < c, and a backward pass compares it
    with right[c].
    """
    before, best, seen = [], 0, []
    for x in w:
        before.append(best)
        i = bisect_left(seen, x)
        if i and seen[i - 1] > best:
            best = seen[i - 1]
        seen.insert(i, x)
    seen = []
    for c in range(len(w) - 1, -1, -1):
        i = bisect_left(seen, w[c])
        if i < len(seen) and before[c] > seen[i]:
            return True
        seen.insert(i, w[c])
    return False


def is_fc(w):
    """Fully commutative: avoids 321; depth(w) == length(w). O(n).

    ValueError unless w is a permutation of 1..len(w).
    """
    _require_window(w)
    return not _has_321(w)


def is_boolean(w):
    """Avoids 321 and 3412; length(w) == reflection_length(w). O(n^2).

    ValueError unless w is a permutation of 1..len(w).
    """
    _require_window(w)
    return not _has_321(w) and not _has_3412(w)


def is_free(w):
    """Avoids 231, 312 and 321: a product of distant commuting simples. O(n).

    ValueError unless w is a permutation of 1..len(w).
    """
    _require_window(w)
    return not _has_321(w) and not _has_231(w) and not _has_312(w)


def cycles_are_intervals(w):
    """Whether every cycle's value set is a run of consecutive integers.

    True for every boolean window; the converse fails (3421 is a single
    4-cycle but contains 321).
    """
    for cyc in cycle_decomposition(w):
        if max(cyc) - min(cyc) + 1 != len(cyc):
            return False
    return True


def support(w):
    """The simple-transposition indices k appearing in reduced words of w.

    Computed without words: k lies in the support exactly when the
    prefix w(1..k) is not the set {1..k}, i.e. when its maximum exceeds
    k.
    """
    out = set()
    seen_max = 0
    for k in range(1, len(w)):
        if w[k - 1] > seen_max:
            seen_max = w[k - 1]
        if seen_max > k:
            out.add(k)
    return out
