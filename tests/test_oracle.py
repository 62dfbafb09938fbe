"""Cayley-graph oracles and bounded factorization enumeration."""

from collections import Counter, defaultdict
from functools import reduce
from itertools import permutations, product

import pytest

from coxdepth.perm_core import identity, parse
from coxdepth.stats import depth, length, reflection_length
from coxdepth.groups import GroupBackend, build_backend, dihedral_depth_formula
from coxdepth.oracle import (
    depth_oracle,
    enumerate_min_factorizations,
    reflection_length_oracle,
)
from coxdepth.patterns import is_free


def test_depth_oracle_matches_formula():
    for n in range(1, 6):
        b = build_backend("A", n)
        depths = depth_oracle(b)
        for w in b.elements:
            assert depths[b.rank(w)] == depth(w)


def test_reflection_length_oracle_matches_cycle_count():
    for n in range(1, 6):
        b = build_backend("A", n)
        table = reflection_length_oracle(b)
        for w in b.elements:
            assert table[b.rank(w)] == reflection_length(w)


def _signed_reflection_length(w):
    # Carter's lemma: the codimension of the fixed space, which is n minus
    # the number of cycles of |w| carrying an even number of negative entries
    seen = set()
    even_cycles = 0
    for start in range(1, len(w) + 1):
        if start in seen:
            continue
        negatives = 0
        i = start
        while i not in seen:
            seen.add(i)
            negatives += w[i - 1] < 0
            i = abs(w[i - 1])
        if negatives % 2 == 0:
            even_cycles += 1
    return len(w) - even_cycles


def test_reflection_length_oracle_signed_matches_fixed_space():
    for n in range(1, 5):
        b = build_backend("B", n)
        table = reflection_length_oracle(b)
        for w in b.elements:
            assert table[b.rank(w)] == _signed_reflection_length(w), w


def test_reflection_length_oracle_dihedral():
    for m in range(2, 13):
        b = build_backend("I2", m)
        table = reflection_length_oracle(b)
        for r, f in b.elements:
            want = 1 if f else (0 if r == 0 else 2)
            assert table[b.rank((r, f))] == want, (m, r, f)


def test_reflection_length_table_computed_once(monkeypatch):
    b = build_backend("A", 4)
    calls = []
    engine = GroupBackend.distances

    def counted(self, steps):
        calls.append(len(steps))
        return engine(self, steps)

    monkeypatch.setattr(GroupBackend, "distances", counted)
    first = enumerate_min_factorizations(b, parse("2341"))
    second = enumerate_min_factorizations(b, parse("2341"))
    assert first == second
    assert calls == [len(b.reflections)]
    assert reflection_length_oracle(b) is not reflection_length_oracle(b)
    assert calls == [len(b.reflections)]


def test_depth_oracle_dihedral_matches_closed_form():
    for m in range(2, 13):
        b = build_backend("I2", m)
        depths = depth_oracle(b)
        for x in b.elements:
            assert depths[b.rank(x)] == dihedral_depth_formula(b, x)


def test_depth_oracle_signed_distributions():
    assert tuple(sorted(Counter(depth_oracle(build_backend("B", 2))).items())) == (
        (0, 1), (1, 2), (2, 4), (3, 1),
    )
    b3 = Counter(depth_oracle(build_backend("B", 3)))
    assert [b3[k] for k in range(7)] == [1, 3, 8, 13, 14, 8, 1]


def test_enumerate_golden_three_cycle():
    b = build_backend("A", 3)
    # reflections are ordered (1 2), (1 3), (2 3); the three minimal
    # factorizations of 231 are s1.s2, t13.s1, s2.t13
    assert enumerate_min_factorizations(b, parse("231")) == [(0, 2), (1, 0), (2, 1)]


def test_enumerate_identity_and_reflections():
    b = build_backend("A", 4)
    assert enumerate_min_factorizations(b, identity(4)) == [()]
    for idx, t in enumerate(b.reflections):
        assert enumerate_min_factorizations(b, t) == [(idx,)]


def test_enumerate_products_multiply_back():
    b = build_backend("A", 4)
    for w in b.elements:
        for seq in enumerate_min_factorizations(b, w):
            prod = b.identity
            for idx in seq:
                prod = b.multiply(prod, b.reflections[idx])
            assert prod == w
            assert len(seq) == reflection_length(w)


def test_enumerate_respects_budget():
    b = build_backend("A", 3)
    w = parse("231")
    # the budget asks for products of exactly that many reflections
    assert enumerate_min_factorizations(b, w, budget=1) == []
    assert enumerate_min_factorizations(b, w, budget=2) == [(0, 2), (1, 0), (2, 1)]
    # three reflections can never multiply to an even element
    assert enumerate_min_factorizations(b, w, budget=3) == []
    # the 2-factor products equal to the identity pair each reflection
    # with itself
    pairs = enumerate_min_factorizations(b, identity(3), budget=2)
    assert pairs == [(0, 0), (1, 1), (2, 2)]


@pytest.mark.parametrize("kind, size", [("A", 4), ("B", 3)])
def test_enumerate_matches_brute_force(kind, size):
    # every reflection product of length k, grouped by its value, in
    # lexicographic order of the index sequences
    b = build_backend(kind, size)
    refl = b.reflections
    rl = reflection_length_oracle(b)
    top = min(max(rl) + 2, 6)
    brute = {}
    for k in range(top + 1):
        by_value = defaultdict(list)
        for seq in product(range(len(refl)), repeat=k):
            by_value[reduce(b.multiply, (refl[i] for i in seq), b.identity)].append(seq)
        brute[k] = by_value
    for w in b.elements:
        least = rl[b.rank(w)]
        assert enumerate_min_factorizations(b, w) == brute[least][w]
        for k in range(least, min(least + 2, 6) + 1):
            assert enumerate_min_factorizations(b, w, budget=k) == brute[k].get(w, []), (w, k)


@pytest.mark.parametrize("kind, size", [("A", 5), ("B", 3), ("I2", 6)])
def test_searches_walk_tables_not_multiply(kind, size):
    b = build_backend(kind, size)
    calls = []
    multiply = b.multiply

    def counted(x, y):
        calls.append((x, y))
        return multiply(x, y)

    b.multiply = counted
    depth_oracle(b)
    reflection_length_oracle(b)
    for w in b.elements[:: max(1, len(b.elements) // 20)]:
        enumerate_min_factorizations(b, w)
        enumerate_min_factorizations(b, w, budget=4)
    assert calls == []
    # a second search on the same backend reuses every table
    tables = dict(b._tables)
    assert set(tables) == set(b.simples) | set(b.reflections)
    depth_oracle(b)
    assert b._tables.keys() == tables.keys()
    assert all(b._tables[g] is tables[g] for g in tables)


def test_enumerate_caps():
    with pytest.raises(ValueError):
        enumerate_min_factorizations(build_backend("A", 3), parse("231"), budget=7)
    with pytest.raises(ValueError):
        enumerate_min_factorizations(build_backend("A", 7), identity(7))


def test_free_iff_all_minimal_factorizations_simple():
    for n in range(2, 5):
        b = build_backend("A", n)
        simple_idx = {b.reflections.index(s) for s in b.simples}
        for w in b.elements:
            if length(w) != reflection_length(w):
                continue
            seqs = enumerate_min_factorizations(b, w)
            all_simple = all(i in simple_idx for seq in seqs for i in seq)
            assert all_simple == is_free(w)


def test_oracle_depth_never_below_reflection_length():
    for n in range(1, 6):
        b = build_backend("A", n)
        depths = depth_oracle(b)
        rls = reflection_length_oracle(b)
        assert all(r <= d for r, d in zip(rls, depths))
