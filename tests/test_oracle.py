"""Cayley-graph oracles and the pass that counts cheapest factorizations."""

from collections import Counter, defaultdict
from functools import reduce
from itertools import product
from math import comb, factorial, prod

import pytest

from coxdepth.perm_core import cycle_decomposition, parse
from coxdepth.stats import depth, length, reflection_length
from coxdepth.groups import build_backend, dihedral_depth_formula, reflection_depth
from coxdepth.enumeration import columns
from coxdepth.oracle import depth_oracle, factorization_counts, group_columns, reflection_length_oracle
from coxdepth.patterns import is_free

def unit(generators):
    return [(g, 1) for g in generators]


def depth_costs(b):
    return [(t, reflection_depth(b, t)) for t in b.reflections]


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
    r = b.rank(parse("231"))
    # the three minimal factorizations of 231 are s1.s2, t13.s1 and
    # s2.t13; only the first is a reduced word
    assert factorization_counts(b, unit(b.reflections))[r] == 3
    assert factorization_counts(b, unit(b.simples))[r] == 1


def test_enumerate_identity_and_reflections():
    for kind, size in (("A", 4), ("B", 3), ("I2", 6)):
        b = build_backend(kind, size)
        counts = factorization_counts(b, unit(b.reflections))
        assert counts[0] == 1
        for t in b.reflections:
            assert counts[b.rank(t)] == 1, (kind, t)


def _cheapest_products(b, steps, top):
    # {x: (least cost, number of step sequences of that cost)}, by
    # multiplying out every sequence of total cost at most top
    found = defaultdict(Counter)  # x -> {cost: sequences}

    def extend(x, cost):
        found[x][cost] += 1
        for g, c in steps:
            if cost + c <= top:
                extend(b.multiply(x, g), cost + c)

    extend(b.identity, 0)
    return {x: (min(by_cost), by_cost[min(by_cost)]) for x, by_cost in found.items()}


def test_enumerate_products_multiply_back():
    # the depth-costed counts against sequences multiplied out
    for kind, size in (("A", 4), ("B", 3), ("I2", 6)):
        b = build_backend(kind, size)
        steps = depth_costs(b)
        depths = depth_oracle(b)
        brute = _cheapest_products(b, steps, max(depths))
        assert len(brute) == len(b.elements)
        counts = factorization_counts(b, steps)
        for x in b.elements:
            assert (depths[b.rank(x)], counts[b.rank(x)]) == brute[x], (kind, x)


@pytest.mark.parametrize("kind, size", [("A", 4), ("B", 3), ("I2", 6)])
def test_enumerate_matches_brute_force(kind, size):
    # every product of k reflections, and of k simples, grouped by its
    # value, in lexicographic order of the index sequences
    b = build_backend(kind, size)
    for gens, least in ((b.reflections, reflection_length_oracle(b)), (b.simples, b.lengths)):
        brute = {}
        for k in range(max(least) + 1):
            by_value = defaultdict(list)
            for seq in product(range(len(gens)), repeat=k):
                by_value[reduce(b.multiply, (gens[i] for i in seq), b.identity)].append(seq)
            brute[k] = by_value
        counts = factorization_counts(b, unit(gens))
        for w in b.elements:
            r = b.rank(w)
            assert counts[r] == len(brute[least[r]][w]), (w, gens)


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
    for steps in (unit(b.reflections), depth_costs(b), unit(b.simples)):
        factorization_counts(b, steps)
    assert calls == []
    # a second search on the same backend reuses every table
    tables = dict(b._tables)
    assert set(tables) == set(b.simples) | set(b.reflections)
    depth_oracle(b)
    assert b._tables.keys() == tables.keys()
    assert all(b._tables[g] is tables[g] for g in tables)


def test_free_iff_all_minimal_factorizations_simple():
    # the minimal factorizations found by multiplying out every product
    # of rlength(w) reflections
    for n in range(2, 5):
        b = build_backend("A", n)
        refl = b.reflections
        simple_idx = {refl.index(s) for s in b.simples}
        minimal = defaultdict(list)
        for k in range(n):
            for seq in product(range(len(refl)), repeat=k):
                w = reduce(b.multiply, (refl[i] for i in seq), b.identity)
                if reflection_length(w) == k:
                    minimal[w].append(seq)
        for w in b.elements:
            if length(w) != reflection_length(w):
                continue
            all_simple = all(i in simple_idx for seq in minimal[w] for i in seq)
            assert all_simple == is_free(w), w


def test_oracle_depth_never_below_reflection_length():
    for n in range(1, 6):
        b = build_backend("A", n)
        depths = depth_oracle(b)
        rls = reflection_length_oracle(b)
        assert all(r <= d for r, d in zip(rls, depths))


def _w0(n):
    return tuple(range(n, 0, -1))


def test_counts_denes_minimal_factorizations():
    # Dénes (1959): w with cycle lengths k_i has
    # rl! * prod k_i^(k_i - 2) / (k_i - 1)! minimal factorizations
    for n in range(1, 7):
        b = group_columns("A", n).backend
        counts = factorization_counts(b, unit(b.reflections))
        for w in b.elements:
            ks = [len(c) for c in cycle_decomposition(w) if len(c) > 1]
            num = factorial(reflection_length(w)) * prod(k ** (k - 2) for k in ks)
            den = prod(factorial(k - 1) for k in ks)
            assert counts[b.rank(w)] * den == num, w


def test_counts_stanley_reduced_words_of_w0():
    # Stanley (1984): w0 of S_n has C(n,2)! / prod (2i-1)^(n-i) reduced words
    got = []
    for n in range(2, 8):
        b = group_columns("A", n).backend
        words = factorization_counts(b, unit(b.simples))[b.rank(_w0(n))]
        assert words * prod((2 * i - 1) ** (n - i) for i in range(1, n)) == factorial(comb(n, 2))
        got.append(words)
    assert got == [1, 2, 16, 768, 292864, 1100742656]


def test_counts_deligne_coxeter_element():
    # Deligne: a Coxeter element of a rank r group with Coxeter number h
    # has r! h^r / |W| minimal reflection factorizations
    groups = [("A", n, n - 1, n) for n in range(1, 8)]
    groups += [("B", n, n, 2 * n) for n in range(1, 6)]
    groups += [("I2", m, 2, m) for m in range(3, 13)]
    for kind, size, r, h in groups:
        b = group_columns(kind, size).backend
        c = reduce(b.multiply, b.simples, b.identity)
        count = factorization_counts(b, unit(b.reflections))[b.rank(c)]
        assert count * len(b.elements) == factorial(r) * h ** r, (kind, size)


def test_counts_depth_attaining_factorizations_of_w0():
    # regression row, no closed form claimed
    got = []
    for n in range(2, 8):
        b = group_columns("A", n).backend
        got.append(factorization_counts(b, depth_costs(b))[b.rank(_w0(n))])
    assert got == [1, 1, 2, 2, 6, 6]


# every group the backends build within the caps, A8 aside
GROUPS = [("A", n) for n in range(1, 8)] + [("B", n) for n in range(1, 6)] + [("I2", m) for m in range(2, 13)]


def _length_rlength_depth(kind, size):
    b, depths = group_columns(kind, size)
    return list(zip(b.lengths, reflection_length_oracle(b), depths))


@pytest.mark.parametrize("kind, size", GROUPS)
def test_group_columns_is_the_oracle_once(kind, size):
    record = group_columns(kind, size)
    assert group_columns(kind, size) is record
    assert isinstance(record.depth, bytes)
    assert list(record.depth) == depth_oracle(build_backend(kind, size))


@pytest.mark.parametrize("kind, size", GROUPS)
def test_family_free_statements(kind, size):
    # these hold in every Coxeter group: each reflection costs at least
    # 1 and only a simple exactly 1, and a reflection of length l costs
    # (l + 1) / 2 while length is subadditive
    for r, (ln, rl, dp) in enumerate(_length_rlength_depth(kind, size)):
        assert rl <= dp <= ln, (kind, size, r)
        assert (dp == rl) == (ln == rl), (kind, size, r)
        assert ln + rl <= 2 * dp, (kind, size, r)  # Diaconis-Graham


def _diaconis_graham_equalities(rows):
    return sum(ln + rl == 2 * dp for ln, rl, dp in rows)


def test_diaconis_graham_equality_rows():
    # regression rows, no closed form claimed; in I2(m) every element
    # attains the bound
    got = [_diaconis_graham_equalities(_length_rlength_depth("A", n)) for n in range(1, 8)]
    c = columns(8)
    got.append(_diaconis_graham_equalities(zip(c.length, c.rlength, c.depth)))
    assert got == [1, 2, 6, 23, 103, 511, 2719, 15205]
    got = [_diaconis_graham_equalities(_length_rlength_depth("B", n)) for n in range(1, 6)]
    assert got == [2, 8, 46, 316, 2358]
    for m in range(2, 13):
        assert _diaconis_graham_equalities(_length_rlength_depth("I2", m)) == 2 * m
