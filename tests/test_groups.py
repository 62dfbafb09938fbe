"""Group backends: windows, signed windows, dihedral pairs."""

from itertools import permutations
from math import factorial

import pytest

from coxdepth.perm_core import parse
from coxdepth.stats import length as window_length
from coxdepth.groups import (
    GroupBackend,
    build_backend,
    dihedral_depth_formula,
    dihedral_gf,
    joint_length_depth,
    reflection_depth,
)


def test_backend_a_enumeration_and_rank():
    b = build_backend("A", 4)
    assert len(b.elements) == 24
    assert b.identity == (1, 2, 3, 4)
    assert b.elements[0] == b.identity
    for i, w in enumerate(b.elements):
        assert b.rank(w) == i
    assert list(b.elements) == sorted(b.elements)


def test_backend_a_lengths_are_inversions():
    b = build_backend("A", 4)
    for w in b.elements:
        assert b.lengths[b.rank(w)] == window_length(w)


def test_backend_a_simples_and_reflections():
    b = build_backend("A", 4)
    assert b.simples == ((2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3))
    moved = []
    for t in b.reflections:
        assert b.is_reflection(t)
        pair = tuple(i for i, x in enumerate(t, start=1) if x != i)
        assert len(pair) == 2
        assert t[pair[0] - 1] == pair[1]
        moved.append(pair)
    assert moved == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_backend_a_reflection_depth():
    b = build_backend("A", 5)
    for t in b.reflections:
        i, j = (k for k, x in enumerate(t, start=1) if x != k)
        assert reflection_depth(b, t) == j - i
        assert b.lengths[b.rank(t)] == 2 * (j - i) - 1
    with pytest.raises(ValueError):
        reflection_depth(b, b.identity)
    with pytest.raises(ValueError):
        reflection_depth(b, (2, 3, 1, 4, 5))


def _assert_reflection_tables_are_involutions(b):
    for g in b.reflections:
        table = b.table(g)
        assert all(table[table[r]] == r for r in range(len(b.elements))), g


def test_backend_a_multiply_matches_window_compose():
    from coxdepth.perm_core import compose

    b = build_backend("A", 4)
    for u in permutations(range(1, 5)):
        for v in ((2, 1, 3, 4), (4, 3, 2, 1), (2, 3, 4, 1)):
            assert b.multiply(u, v) == compose(u, v)
    _assert_reflection_tables_are_involutions(b)


def _lehmer_rank(w):
    # Lehmer code folded in the factorial base: the lexicographic rank of w
    n = len(w)
    r = 0
    for i in range(n):
        r = r * (n - i) + sum(1 for j in range(i + 1, n) if w[j] < w[i])
    return r


def test_backend_b_order_and_identity():
    b = build_backend("B", 3)
    assert len(b.elements) == 48
    assert b.identity == (1, 2, 3)


def test_backend_b_rank_order():
    # rank = Lehmer rank of |w| times 2^n, plus the sign bits read from
    # position 1 (high bit) to position n (low bit)
    for n in range(1, 5):
        b = build_backend("B", n)
        assert len(b.elements) == 2 ** n * factorial(n)
        for x in b.elements:
            bits = int("".join("1" if v < 0 else "0" for v in x), 2)
            assert b.rank(x) == _lehmer_rank(tuple(abs(v) for v in x)) * 2 ** n + bits


def test_backend_b_simples():
    b = build_backend("B", 3)
    # the sign-change generator, then the adjacent swaps
    assert b.simples == ((-1, 2, 3), (2, 1, 3), (1, 3, 2))
    s0 = b.simples[0]
    # right action: x . s0 negates the first entry of x
    assert b.multiply((3, -1, 2), s0) == (-3, -1, 2)


def test_backend_b_reflections():
    b = build_backend("B", 3)
    assert len(b.reflections) == 9
    # sign changes come first, then plain swaps, then signed swaps
    negs = [t for t in b.reflections if sorted(abs(x) for x in t) == [1, 2, 3] and any(x < 0 for x in t)]
    assert len(negs) == 6
    for t in b.reflections:
        assert b.is_reflection(t)
        assert b.multiply(t, t) == b.identity
        assert b.lengths[b.rank(t)] % 2 == 1


def test_backend_b_reflection_lengths():
    b = build_backend("B", 4)
    lengths = {}
    for t in b.reflections:
        lengths[t] = b.lengths[b.rank(t)]
    # sign change at i has length 2i - 1
    for i in range(1, 5):
        t = tuple(-k if k == i else k for k in range(1, 5))
        assert lengths[t] == 2 * i - 1
    # plain swap of i < j has length 2(j - i) - 1
    t = (1, 4, 3, 2)
    assert lengths[t] == 2 * (4 - 2) - 1
    # signed swap of i < j has length 2(i + j) - 3
    t = (1, -4, 3, -2)
    assert lengths[t] == 2 * (2 + 4) - 3


def test_backend_b_group_axioms_sampled():
    b = build_backend("B", 2)
    members = set(b.elements)
    for x in b.elements:
        assert b.multiply(x, b.identity) == x
        assert b.multiply(b.identity, x) == x
        for y in b.elements:
            assert b.multiply(x, y) in members
        assert any(b.multiply(x, y) == b.identity for y in b.elements), x
    _assert_reflection_tables_are_involutions(b)


def test_backend_i2_orders_and_lengths():
    for m in (2, 3, 5, 6, 12):
        b = build_backend("I2", m)
        assert len(b.elements) == 2 * m
        assert sorted(b.lengths) == sorted(
            [0, m] + [k for k in range(1, m) for _ in (0, 1)]
        )
        assert len(b.reflections) == m
        for t in b.reflections:
            assert b.multiply(t, t) == b.identity
        _assert_reflection_tables_are_involutions(b)


def test_backend_i2_rank_order():
    # rank of (r, f), rotation r then flip f, is f * m + r
    for m in range(2, 13):
        b = build_backend("I2", m)
        assert [b.rank((r, f)) for f in (0, 1) for r in range(m)] == list(range(2 * m))
        assert b.elements == [(r, f) for f in (0, 1) for r in range(m)]


def test_rank_refuses_non_elements_a():
    a4 = build_backend("A", 4)
    with pytest.raises(ValueError, match=r"not an element of A4: \(5, 5\)"):
        a4.rank((5, 5))
    for x in ((5, 5), (1, 2, 3), (1, 2, 3, 3), [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="not an element of A4"):
            a4.length(x)
    with pytest.raises(ValueError, match=r"not an element of A4: \(2, 1\)"):
        a4.is_reflection((2, 1))
    with pytest.raises(ValueError, match="not an element of A4"):
        reflection_depth(a4, (2, 1))


def test_rank_refuses_non_elements_b():
    b2 = build_backend("B", 2)
    with pytest.raises(ValueError, match=r"not an element of B2: \(3, -3\)"):
        b2.length((3, -3))
    with pytest.raises(ValueError, match="not an element of B2"):
        b2.is_reflection((1, 2, 3))


def test_rank_refuses_non_elements_i2():
    i4 = build_backend("I2", 4)
    with pytest.raises(ValueError, match=r"not an element of I2\(4\): \(7, 1\)"):
        dihedral_depth_formula(i4, (7, 1))
    with pytest.raises(ValueError, match="not an element of I2"):
        i4.distances([((4, 0), 1)])


def test_tables_widen_past_sixteen_bits():
    # two-byte tables hold every capped group; a larger order needs 'I'
    assert build_backend("A", 5).table((2, 1, 3, 4, 5)).typecode == "H"
    order = (1 << 16) + 5
    cyclic = GroupBackend(
        "Z", order, list(range(order)), (1,),
        lambda a, b: (a + b) % order, None,
    )
    assert cyclic.table(1).typecode == "I"
    assert cyclic.lengths[-1] == order - 1


def test_dihedral_depth_formula_values():
    b = build_backend("I2", 6)
    for x in b.elements:
        ell = b.lengths[b.rank(x)]
        d = dihedral_depth_formula(b, x)
        if ell == 0:
            assert d == 0
        elif ell % 2 == 1:
            assert d == (ell + 1) // 2
        else:
            assert d == ell // 2 + 1


def test_dihedral_gf_small_cases():
    assert dihedral_gf(2) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert dihedral_gf(3) == {(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 2): 1}
    gf4 = dihedral_gf(4)
    assert sum(gf4.values()) == 8
    # depth marginal of the order-8 dihedral group
    marginal = {}
    for (ell, d), c in gf4.items():
        marginal[d] = marginal.get(d, 0) + c
    assert marginal == {0: 1, 1: 2, 2: 4, 3: 1}


def test_dihedral_gf_matches_elementwise_fold():
    for m in range(2, 13):
        b = build_backend("I2", m)
        depths = [dihedral_depth_formula(b, x) for x in b.elements]
        assert dihedral_gf(m) == joint_length_depth(b, depths)


def test_dihedral_gf_mass():
    for m in range(2, 13):
        assert sum(dihedral_gf(m).values()) == 2 * m


def test_build_backend_caps():
    with pytest.raises(ValueError, match="1..8"):
        build_backend("A", 9)
    with pytest.raises(ValueError, match="1..5"):
        build_backend("B", 6)
    with pytest.raises(ValueError, match="2..12"):
        build_backend("I2", 13)
    with pytest.raises(ValueError, match="2..12"):
        build_backend("I2", 1)
    with pytest.raises(ValueError):
        build_backend("H3", 3)


def test_dihedral_depth_formula_rejects_other_kinds():
    a = build_backend("A", 3)
    with pytest.raises(ValueError):
        dihedral_depth_formula(a, a.identity)
