"""Depth, length, reflection length, and the other window statistics."""

from itertools import permutations

import pytest

from coxdepth.perm_core import apply_transposition_right, cycle_decomposition, inverse, parse
from coxdepth.stats import (
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


def windows(n):
    return permutations(range(1, n + 1))


def test_depth_goldens():
    assert depth(parse("3715246")) == 8
    assert depth(parse("2431756")) == 5
    assert depth(parse("3412")) == 4
    assert depth(parse("321")) == 2
    assert depth(parse("1234")) == 0


def test_drop_goldens():
    # descent pairs of 7213645 are 7>2, 2>1, 6>4, so drop is 5+1+2
    assert drop(parse("7213645")) == 8
    assert drop(parse("3241")) == 4
    assert drop(parse("1234")) == 0
    assert drop(parse("3412")) == 3


def test_drop_equidistributed_with_depth():
    from collections import Counter

    for n in range(1, 7):
        by_drop = Counter(drop(w) for w in windows(n))
        by_depth = Counter(depth(w) for w in windows(n))
        assert by_drop == by_depth


def test_excedances_and_descents():
    assert excedances(parse("3241")) == (1, 3)
    assert descents(parse("3241")) == (1, 3)
    assert excedances(parse("3412")) == (1, 2)
    assert descents(parse("3412")) == (2,)
    assert excedances(parse("1234")) == ()
    assert descents(parse("1234")) == ()


def test_length_is_inversion_count():
    assert length(parse("3715246")) == 9
    assert length(parse("2431756")) == 6
    assert length(parse("321")) == 3
    for n in range(1, 6):
        for w in windows(n):
            direct = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if w[i] > w[j]
            )
            assert length(w) == direct


def test_reflection_length_is_size_minus_cycles():
    for n in range(1, 7):
        for w in windows(n):
            assert reflection_length(w) == n - len(cycle_decomposition(w))


def test_bounds_chain():
    for n in range(1, 7):
        for w in windows(n):
            assert reflection_length(w) <= depth(w) <= length(w)


def test_depth_collapse_iff_length_collapse():
    for n in range(1, 8):
        for w in windows(n):
            assert (depth(w) == reflection_length(w)) == (length(w) == reflection_length(w))


def test_depth_of_inverse():
    for n in range(1, 7):
        for w in windows(n):
            assert depth(w) == depth(inverse(w))


def test_max_depth_bound_and_count():
    assert [max_depth_bound(n) for n in range(1, 9)] == [0, 1, 2, 4, 6, 9, 12, 16]
    # n even: (k!)^2 maximizers; n odd: n (k!)^2, with k = n // 2
    assert [max_depth_count(n) for n in range(1, 9)] == [1, 1, 3, 4, 20, 36, 252, 576]
    for n in range(1, 7):
        tops = [w for w in windows(n) if depth(w) == max_depth_bound(n)]
        assert all(depth(w) <= max_depth_bound(n) for w in windows(n))
        assert len(tops) == max_depth_count(n)


def test_depth_after_transposition_matches_recompute():
    for n in range(1, 6):
        for w in windows(n):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if w[i - 1] < w[j - 1]:
                        expected = depth(apply_transposition_right(w, i, j))
                        assert depth_after_transposition(w, i, j) == expected


def test_depth_after_transposition_rejects_bad_arguments():
    w = parse("2431")
    with pytest.raises(ValueError):
        depth_after_transposition(w, 3, 1)
    with pytest.raises(ValueError):
        depth_after_transposition(w, 2, 2)
    with pytest.raises(ValueError):
        depth_after_transposition(w, 0, 2)


def test_depth_after_transposition_requires_increasing_values():
    w = parse("2431")
    # w(2)=4 > w(3)=3, so positions (2,3) are rejected
    with pytest.raises(ValueError):
        depth_after_transposition(w, 2, 3)
    # w(1)=2 < w(2)=4 is accepted
    assert depth_after_transposition(w, 1, 2) == depth(parse("4231"))


def test_large_n_depth_of_inverse(large_windows):
    for w in large_windows:
        assert depth(w) == depth(inverse(w)), w


def test_diaconis_graham_bound(large_windows):
    # Diaconis–Graham (1977): I + T <= D, that is length + rlength <= 2 depth
    small = [w for n in range(1, 7) for w in windows(n)]
    for w in small + large_windows:
        assert length(w) + reflection_length(w) <= 2 * depth(w), w
