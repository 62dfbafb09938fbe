"""Greedy factorizations, sorting traces, and certificate checking.

Exhaustive over S_1..S_6, plus seeded windows at n = 10..200."""

from itertools import permutations

import pytest

from coxdepth.perm_core import identity, parse
from coxdepth.stats import depth, length, reflection_length
from coxdepth.decomp import (
    Factorization,
    selection_factorization,
    selection_sort_trace,
    shallow_decomp,
    shallow_trace,
    sorting_index,
    verify_factorization,
)


def windows(n):
    return permutations(range(1, n + 1))


def same_walk(w):
    # both traces visit the windows of one selection sort walk
    sel, sh = selection_sort_trace(w), shallow_trace(w)
    return (
        [s.window for s in sel.steps] == [s.window for s in sh.steps]
        and sel.final == sh.final == identity(len(w))
    )


def test_shallow_golden_3715246():
    f = shallow_decomp(parse("3715246"))
    assert f.factors == ((6, 7), (4, 6), (2, 4), (1, 3), (4, 5))
    assert f.side_tags == ("u", "u", "u", "u", "v")
    assert f.depth_weights == (1, 2, 2, 2, 1)
    assert f.total_weight == 8
    assert f.u_factors == ((6, 7), (4, 6), (2, 4), (1, 3))
    assert f.v_factors == ((4, 5),)


def test_shallow_golden_2431756():
    f = shallow_decomp(parse("2431756"))
    assert f.factors == ((6, 7), (5, 6), (1, 2), (2, 4))
    assert f.side_tags == ("u", "u", "u", "v")
    assert f.depth_weights == (1, 1, 1, 2)
    assert f.total_weight == 5


def test_shallow_identity():
    f = shallow_decomp(identity(5))
    assert f.factors == ()
    assert f.total_weight == 0
    assert verify_factorization(identity(5), f).ok


def test_shallow_weight_is_depth_and_count_is_reflection_length():
    for n in range(1, 7):
        for w in windows(n):
            f = shallow_decomp(w)
            assert f.total_weight == depth(w)
            assert len(f.factors) == reflection_length(w)


def test_shallow_certificates_verify():
    for n in range(1, 7):
        for w in windows(n):
            report = verify_factorization(w, shallow_decomp(w))
            assert report.product_ok and report.count_ok and report.weight_ok
            assert report.ok


def test_shallow_trace_windows_end_sorted():
    # trace steps run in processing order (largest value first), so the
    # single v factor appears mid-trace, not last
    tr = shallow_trace(parse("3715246"))
    assert tr.final == identity(7)
    assert [s.transposition for s in tr.steps] == [(6, 7), (4, 6), (4, 5), (2, 4), (1, 3)]
    assert [s.side for s in tr.steps] == ["L", "L", "R", "L", "L"]
    assert [tuple(s.window) for s in tr.steps] == [
        parse("3715246"),
        parse("3615247"),
        parse("3415267"),
        parse("3412567"),
        parse("3214567"),
    ]


def test_selection_golden_2431756():
    tr = selection_sort_trace(parse("2431756"))
    assert [s.transposition for s in tr.steps] == [(5, 7), (5, 6), (2, 4), (1, 2)]
    assert [tuple(s.window) for s in tr.steps] == [
        parse("2431756"),
        parse("2431657"),
        parse("2431567"),
        parse("2134567"),
    ]
    assert tr.final == identity(7)
    assert sorting_index(parse("2431756")) == 6
    f = selection_factorization(parse("2431756"))
    assert f.factors == ((1, 2), (2, 4), (5, 6), (5, 7))
    assert f.side_tags == ("u", "u", "u", "u")
    assert f.total_weight == 6


def test_selection_golden_3715246():
    tr = selection_sort_trace(parse("3715246"))
    assert [s.transposition for s in tr.steps] == [(2, 7), (2, 6), (4, 5), (2, 4), (1, 3)]
    assert sorting_index(parse("3715246")) == 14


def test_selection_step_count_is_reflection_length():
    for n in range(1, 7):
        for w in windows(n):
            f = selection_factorization(w)
            assert len(f.factors) == reflection_length(w)
            assert verify_factorization(w, f).product_ok
            assert verify_factorization(w, f).count_ok


def test_sorting_index_dominates_depth():
    for n in range(1, 7):
        for w in windows(n):
            assert depth(w) <= sorting_index(w) <= length(w) * (n - 1)
            assert sorting_index(w) == selection_factorization(w).total_weight


def test_verify_rejects_wrong_product():
    w = parse("2431756")
    good = shallow_decomp(w)
    tampered = Factorization(
        factors=good.factors[:-1],
        side_tags=good.side_tags[:-1],
        depth_weights=good.depth_weights[:-1],
    )
    report = verify_factorization(w, tampered)
    assert not report.product_ok
    assert not report.ok


def test_verify_rejects_excess_weight():
    # the selection factorization of 2431756 multiplies back correctly and
    # has minimal count, but weighs 6 > depth 5
    w = parse("2431756")
    report = verify_factorization(w, selection_factorization(w))
    assert report.product_ok
    assert report.count_ok
    assert not report.weight_ok
    assert not report.ok


def test_verify_rejects_wrong_weights():
    w = parse("321")
    good = shallow_decomp(w)
    padded = Factorization(
        factors=good.factors,
        side_tags=good.side_tags,
        depth_weights=tuple(x + 1 for x in good.depth_weights),
    )
    report = verify_factorization(w, padded)
    assert not report.weight_ok


def test_verify_rejects_inflated_count():
    # same product as the 2-factor shallow answer for 321 but using
    # three adjacent swaps, so the count check fails
    w = parse("321")
    triple = Factorization(
        factors=((1, 2), (2, 3), (1, 2)),
        side_tags=("u", "u", "u"),
        depth_weights=(1, 1, 1),
    )
    report = verify_factorization(w, triple)
    assert report.product_ok
    assert not report.count_ok


def test_factorization_weight_rule():
    for n in range(2, 7):
        for w in windows(n):
            f = shallow_decomp(w)
            for (i, j), dw in zip(f.factors, f.depth_weights):
                assert dw == j - i


def test_traces_walk_the_same_windows():
    for n in range(1, 7):
        for w in windows(n):
            assert same_walk(w), w


@pytest.mark.parametrize("factors", [
    ((0, 2),),
    ((2, 4),),
    ((2, 2),),
    ((3, 1),),
    ((1, 2), (2, 2)),
])
def test_verify_refuses_factors_outside_the_window(factors):
    f = Factorization(factors, ("u",) * len(factors), tuple(j - i for i, j in factors))
    with pytest.raises(ValueError, match="need 1 <= i < j <= n"):
        verify_factorization(parse("321"), f)


def test_large_n_shallow_certificates_verify(large_windows):
    for w in large_windows:
        assert verify_factorization(w, shallow_decomp(w)).ok, w


def test_large_n_traces_walk_the_same_windows(large_windows):
    for w in large_windows:
        assert same_walk(w), w


def test_large_n_sorting_index_dominates_depth(large_windows):
    for w in large_windows:
        assert sorting_index(w) == selection_factorization(w).total_weight >= depth(w), w


def test_large_n_selection_step_count_is_reflection_length(large_windows):
    for w in large_windows:
        assert len(selection_factorization(w).factors) == reflection_length(w), w
