"""Pattern containment and the depth-related permutation classes.

The dedicated avoidance scans behind is_fc, is_boolean and is_free are
checked against the general contains_pattern exhaustively over
S_0..S_7, and on seeded windows at n = 16..64 with planted occurrences."""

import random
from itertools import permutations

import pytest

from coxdepth.perm_core import compose, cycle_decomposition, identity, parse
from coxdepth.stats import depth, length, reflection_length
from coxdepth.bijections import minimal_fiber_rep
from coxdepth.patterns import (
    _has_231,
    _has_312,
    _has_321,
    _has_3412,
    avoids,
    contains_pattern,
    cycles_are_intervals,
    is_boolean,
    is_fc,
    is_free,
    support,
)


SCANS = (
    (_has_321, (3, 2, 1)),
    (_has_231, (2, 3, 1)),
    (_has_312, (3, 1, 2)),
    (_has_3412, (3, 4, 1, 2)),
)


def windows(n):
    return permutations(range(1, n + 1))


def reduced_word(w):
    # peel right descents; the letters come out reversed
    letters = []
    cur = list(w)
    n = len(cur)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                letters.append(i + 1)
                changed = True
    return tuple(reversed(letters))


def test_contains_pattern_goldens():
    assert contains_pattern(parse("3241576"), parse("1234")) == (1, 3, 5, 6)
    assert contains_pattern(parse("321"), parse("21")) == (1, 2)
    assert contains_pattern(parse("123"), parse("21")) is None
    assert contains_pattern(parse("3412"), parse("3412")) == (1, 2, 3, 4)
    assert contains_pattern(parse("12"), parse("123")) is None


def test_contains_pattern_empty_pattern():
    assert contains_pattern(parse("321"), ()) == ()


def test_contains_pattern_picks_lex_least_witness():
    # 2143 holds 21 at (1,2), (1,4), (3,4); the first wins
    assert contains_pattern(parse("2143"), parse("21")) == (1, 2)
    assert contains_pattern(parse("35142"), parse("312")) == (1, 3, 5)


def test_avoids():
    assert avoids(parse("2413"), parse("321"))
    assert not avoids(parse("321"), parse("321"))
    assert avoids(parse("1234"), parse("21"))


def test_witness_is_order_isomorphic():
    for n in range(1, 6):
        for w in windows(n):
            for p in (parse("21"), parse("231"), parse("321"), parse("3412")):
                if len(p) > n:
                    continue
                hit = contains_pattern(w, p)
                if hit is None:
                    continue
                assert all(a < b for a, b in zip(hit, hit[1:]))
                picked = [w[i - 1] for i in hit]
                rel = sorted(range(len(p)), key=lambda k: picked[k])
                pat = sorted(range(len(p)), key=lambda k: p[k])
                assert rel == pat


def test_scans_match_reference_exhaustively():
    for n in range(8):
        for w in windows(n):
            for scan, p in SCANS:
                assert scan(w) == (not avoids(w, p)), (w, p)


def test_predicates_match_reference_conjunctions():
    for n in range(8):
        for w in windows(n):
            no321 = avoids(w, (3, 2, 1))
            assert is_fc(w) == no321, w
            assert is_boolean(w) == (no321 and avoids(w, (3, 4, 1, 2))), w
            assert is_free(w) == (
                no321 and avoids(w, (2, 3, 1)) and avoids(w, (3, 1, 2))
            ), w


@pytest.mark.parametrize("bad", [(9, 9, 9), (5, 5), (0, 1), (1, 3)])
def test_predicates_reject_non_windows(bad):
    for predicate in (is_fc, is_boolean, is_free):
        with pytest.raises(ValueError, match="not a permutation of 1..%d" % len(bad)):
            predicate(bad)


def free_window(rng, m):
    # disjoint adjacent swaps of the identity: avoids 321, 3412, 231, 312
    w = list(range(1, m + 1))
    i = 0
    while i < m - 1:
        if rng.random() < 0.3:
            w[i], w[i + 1] = w[i + 1], w[i]
            i += 2
        else:
            i += 1
    return tuple(w)


def avoiding_321(rng, m):
    # the 321-avoiding representative of a Dyck path from the cycle lemma:
    # rotate m ups and m + 1 downs to start after the first lowest point,
    # then drop the final down
    if m == 0:
        return ()
    steps = ["N"] * m + ["E"] * (m + 1)
    rng.shuffle(steps)
    height = low = at = 0
    for i, s in enumerate(steps, start=1):
        height += 1 if s == "N" else -1
        if height < low:
            low, at = height, i
    return minimal_fiber_rep("".join((steps[at:] + steps[:at])[:-1]))


def direct_sum(*parts):
    out, shift = [], 0
    for part in parts:
        out.extend(x + shift for x in part)
        shift += len(part)
    return tuple(out)


def planted_windows(seed):
    # each pattern p sits once, at consecutive positions, between flanks
    # that avoid it: p is sum-indecomposable, so every occurrence in a
    # direct sum lies in one summand. The left flank has 0, 1, half,
    # all but one or all of the other entries, so p lands at both ends
    # and in the middle. Flanks are free, or 321-avoiding around a 321.
    rng = random.Random(seed)
    for _, p in SCANS:
        kinds = [free_window] + ([avoiding_321] if p == (3, 2, 1) else [])
        for kind in kinds:
            n = rng.randint(16, 64)
            m = n - len(p)
            for a in (0, 1, m // 2, m - 1, m):
                w = direct_sum(kind(rng, a), p, kind(rng, m - a))
                yield w, p, tuple(range(a + 1, a + len(p) + 1))


@pytest.mark.parametrize("seed", range(3))
def test_scans_find_planted_occurrences(seed):
    for w, p, planted in planted_windows(seed):
        assert contains_pattern(w, p) == planted, (w, p)
        for scan, q in SCANS:
            assert scan(w) == (contains_pattern(w, q) is not None), (w, q)


def test_fc_matches_depth_equals_length():
    for n in range(1, 7):
        for w in windows(n):
            assert is_fc(w) == (depth(w) == length(w))


def test_boolean_matches_length_equals_reflection_length():
    for n in range(1, 7):
        for w in windows(n):
            assert is_boolean(w) == (length(w) == reflection_length(w))


def test_boolean_support_size():
    for n in range(1, 7):
        for w in windows(n):
            if is_boolean(w):
                assert length(w) == len(support(w))


def test_free_implies_boolean_with_gapped_support():
    for n in range(1, 8):
        for w in windows(n):
            if is_free(w):
                assert is_boolean(w)
                s = support(w)
                assert all(i + 1 not in s for i in s)


def test_gapped_boolean_not_always_free():
    # freeness is about patterns, not only support gaps: 321 has support
    # {1, 2} and is not free, while 2143 is free with support {1, 3}
    assert not is_free(parse("321"))
    assert is_free(parse("2143"))
    assert support(parse("2143")) == {1, 3}


def test_free_members_small():
    assert [w for w in windows(3) if is_free(w)] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3),
    ]
    free4 = [w for w in windows(4) if is_free(w)]
    assert len(free4) == 5
    assert parse("2143") in free4


def test_support_examples():
    assert support(parse("1234")) == set()
    assert support(parse("2143")) == {1, 3}
    assert support(parse("2341")) == {1, 2, 3}
    assert support(parse("1324")) == {2}


def test_support_matches_reduced_word_letters():
    for n in range(1, 6):
        for w in windows(n):
            word = reduced_word(w)
            assert len(word) == length(w)
            prod = identity(n)
            for k in word:
                s = list(range(1, n + 1))
                s[k - 1], s[k] = s[k], s[k - 1]
                prod = compose(prod, tuple(s))
            assert prod == w
            assert set(support(w)) == set(word)


def test_cycles_are_intervals_examples():
    assert cycles_are_intervals(parse("2341"))
    assert not cycles_are_intervals(parse("3412"))
    assert cycles_are_intervals(parse("1234"))
    # 1432 splits into the fixed points 1, 3 and the gapped cycle (2 4)
    assert not cycles_are_intervals(parse("1432"))
    # 2413 is one 4-cycle covering {1..4}, an interval despite the jumps
    assert cycles_are_intervals(parse("2413"))


def test_boolean_implies_interval_cycles_but_not_conversely():
    for n in range(1, 8):
        for w in windows(n):
            if is_boolean(w):
                assert cycles_are_intervals(w)
    # 3421 has the single interval cycle (1 3 2 4) on {1..4} yet
    # contains 321, so the converse fails
    witness = parse("3421")
    assert cycles_are_intervals(witness)
    assert not is_boolean(witness)


def test_interval_cycle_structure_of_boolean_elements():
    for w in windows(5):
        if is_boolean(w):
            for cyc in cycle_decomposition(w):
                assert max(cyc) - min(cyc) + 1 == len(cyc)
