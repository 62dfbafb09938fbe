"""The descent-to-excedance bijection and the Dyck path fiber map."""

from collections import Counter
from itertools import permutations

import pytest

from coxdepth.perm_core import parse
from coxdepth.stats import depth, descents, drop, excedances, length
from coxdepth.bijections import (
    dyck_of_perm,
    lr_maxima,
    minimal_fiber_rep,
    steingrimsson_phi,
    steingrimsson_phi_inverse,
)
from coxdepth.patterns import is_fc


def windows(n):
    return permutations(range(1, n + 1))


def test_phi_golden():
    assert steingrimsson_phi(parse("7213645")) == parse("2736541")
    assert steingrimsson_phi_inverse(parse("2736541")) == parse("7213645")


def test_phi_golden_carries_stats():
    w = parse("7213645")
    v = parse("2736541")
    assert len(descents(w)) == 3
    assert len(excedances(v)) == 3
    assert drop(w) == 8
    assert depth(v) == 8


def test_phi_is_bijection():
    for n in range(1, 7):
        seen = set()
        for w in windows(n):
            v = steingrimsson_phi(w)
            assert v not in seen
            seen.add(v)
        assert len(seen) == len(set(windows(n)))


def test_phi_round_trip():
    for n in range(1, 7):
        for w in windows(n):
            assert steingrimsson_phi_inverse(steingrimsson_phi(w)) == w
            assert steingrimsson_phi(steingrimsson_phi_inverse(w)) == w


def test_phi_transports_des_to_exc_and_drop_to_depth():
    for n in range(1, 7):
        for w in windows(n):
            v = steingrimsson_phi(w)
            assert len(descents(w)) == len(excedances(v))
            assert drop(w) == depth(v)


def test_phi_fixes_identity_and_small_cases():
    assert steingrimsson_phi((1,)) == (1,)
    assert steingrimsson_phi((1, 2, 3)) == (1, 2, 3)
    # the adjacent descent 21 maps to the excedance pattern 21
    assert steingrimsson_phi((2, 1)) == (2, 1)


def test_lr_maxima():
    assert lr_maxima(parse("23176845")) == ((1, 2), (2, 3), (4, 7), (6, 8))
    assert lr_maxima(parse("1234")) == ((1, 1), (2, 2), (3, 3), (4, 4))
    assert lr_maxima(parse("4321")) == ((1, 4),)


def test_dyck_golden():
    assert dyck_of_perm(parse("23176845")) == "NNENEENNNNEENEEE"


def test_dyck_path_shape():
    for n in range(1, 7):
        for w in windows(n):
            p = dyck_of_perm(w)
            assert len(p) == 2 * n
            assert p.count("N") == n and p.count("E") == n
            height = 0
            for ch in p:
                height += 1 if ch == "N" else -1
                assert height >= 0
            assert height == 0


def test_dyck_fiber_count_is_catalan():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 7):
        paths = {dyck_of_perm(w) for w in windows(n)}
        assert len(paths) == catalan[n]


def test_minimal_fiber_rep_golden():
    assert minimal_fiber_rep("NNENEENNNNEENEEE") == parse("23174856")


def test_minimal_fiber_rep_is_the_fc_member():
    # within each fiber the unique 321-avoiding window is the one whose
    # depth meets its length
    for n in range(1, 7):
        fibers = {}
        for w in windows(n):
            fibers.setdefault(dyck_of_perm(w), []).append(w)
        for path, members in fibers.items():
            rep = minimal_fiber_rep(path)
            assert rep in members
            assert is_fc(rep)
            for w in members:
                assert (w == rep) == (depth(w) == length(w))
            assert depth(rep) == min(depth(w) for w in members)


def test_depth_of_fiber_floor():
    # the left-to-right maxima fix the unavoidable part of the depth
    for n in range(1, 7):
        for w in windows(n):
            floor = sum(x - i for i, x in lr_maxima(w))
            assert floor == depth(minimal_fiber_rep(dyck_of_perm(w)))
            assert depth(w) >= floor


def test_minimal_fiber_rep_round_trip():
    for n in range(1, 7):
        for w in windows(n):
            if is_fc(w):
                assert minimal_fiber_rep(dyck_of_perm(w)) == w


def test_minimal_fiber_rep_rejects_bad_paths():
    with pytest.raises(ValueError):
        minimal_fiber_rep("")
    with pytest.raises(ValueError):
        minimal_fiber_rep("NEN")
    with pytest.raises(ValueError):
        minimal_fiber_rep("NEXE")
    with pytest.raises(ValueError, match="dips"):
        minimal_fiber_rep("NEEN")
    with pytest.raises(ValueError):
        minimal_fiber_rep("NNNE")


def test_phi_distribution_identity():
    # the two joint generating functions coincide coefficient by
    # coefficient, which is exactly what a stat-carrying bijection buys
    for n in range(1, 7):
        lhs = Counter((drop(w), len(descents(w))) for w in windows(n))
        rhs = Counter((depth(w), len(excedances(w))) for w in windows(n))
        assert lhs == rhs


def test_large_n_phi_round_trip_and_transport(large_windows):
    for w in large_windows:
        v = steingrimsson_phi(w)
        assert steingrimsson_phi_inverse(v) == w
        assert len(descents(w)) == len(excedances(v))
        assert drop(w) == depth(v)
