"""Window parsing, formatting, and group arithmetic."""

from itertools import permutations

import pytest

from coxdepth.perm_core import (
    ParseError,
    apply_transposition_right,
    compose,
    cycle_decomposition,
    identity,
    inverse,
    parse,
)
from coxdepth import perm_core


def windows(n):
    return permutations(range(1, n + 1))


def test_parse_contiguous_digits():
    assert parse("3412") == (3, 4, 1, 2)
    assert parse("1") == (1,)
    assert parse("123456789") == tuple(range(1, 10))


def test_parse_separated_tokens():
    assert parse("3 4 1 2") == (3, 4, 1, 2)
    assert parse("3,4,1,2") == (3, 4, 1, 2)
    assert parse(" 10 2 3 4 5 6 7 8 9 1 ") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)


def test_parse_empty():
    with pytest.raises(ParseError, match="empty"):
        parse("   ")


def test_parse_malformed_token():
    # non-ASCII digits count as malformed: Arabic-Indic two, fullwidth
    # two, superscript two
    for text in ("1 2 x", "\u0662\u0661", "1\uff12", "\u00b21"):
        with pytest.raises(ParseError, match="malformed token"):
            parse(text)


def test_parse_repeated_value():
    with pytest.raises(ParseError, match="repeated value 3"):
        parse("3413")


def test_parse_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("125")
    with pytest.raises(ParseError, match="out of range"):
        parse("0 1")


def test_format_round_trip():
    for n in range(1, 7):
        for w in windows(n):
            assert parse(perm_core.format(w)) == w


def test_format_wide_windows_use_spaces():
    w = tuple(range(1, 11))
    assert perm_core.format(w) == "1 2 3 4 5 6 7 8 9 10"
    assert parse(perm_core.format(w)) == w


def test_identity():
    assert identity(4) == (1, 2, 3, 4)
    assert identity(1) == (1,)


def test_compose_applies_right_first():
    u = (2, 1, 3)
    v = (1, 3, 2)
    # (u . v)(i) = u(v(i))
    assert compose(u, v) == (2, 3, 1)
    assert compose(v, u) == (3, 1, 2)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_inverse_golden():
    assert inverse(parse("3715246")) == parse("3516472")


def test_compose_inverse_exhaustive():
    for n in range(1, 6):
        e = identity(n)
        for w in windows(n):
            assert compose(w, inverse(w)) == e
            assert compose(inverse(w), w) == e
            assert inverse(inverse(w)) == w


def test_cycles_canonical_form():
    # each cycle starts at its minimum, cycles sorted by minimum,
    # fixed points included
    assert cycle_decomposition((1, 2, 3)) == ((1,), (2,), (3,))
    assert cycle_decomposition((2, 1, 3)) == ((1, 2), (3,))
    assert cycle_decomposition((2, 3, 1)) == ((1, 2, 3),)
    assert cycle_decomposition((3, 1, 2)) == ((1, 3, 2),)
    assert cycle_decomposition(parse("3715246")) == ((1, 3), (2, 7, 6, 4, 5),)


def test_cycles_multiply_back():
    for n in range(1, 6):
        for w in windows(n):
            prod = identity(n)
            for cyc in cycle_decomposition(w):
                lifted = list(range(1, n + 1))
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    lifted[a - 1] = b
                prod = compose(prod, tuple(lifted))
            assert prod == w


def test_apply_transposition_right_swaps_positions():
    w = (3, 1, 4, 2)
    assert apply_transposition_right(w, 1, 3) == (4, 1, 3, 2)
    assert apply_transposition_right(w, 2, 4) == (3, 2, 4, 1)


def test_apply_transposition_right_validates():
    w = (2, 1, 3)
    with pytest.raises(ValueError):
        apply_transposition_right(w, 2, 2)
    with pytest.raises(ValueError):
        apply_transposition_right(w, 3, 1)
    with pytest.raises(ValueError):
        apply_transposition_right(w, 1, 4)
    with pytest.raises(ValueError):
        apply_transposition_right(w, 0, 2)


def test_large_n_parse_format_round_trip(large_windows):
    for w in large_windows:
        text = perm_core.format(w)
        assert " " in text
        assert parse(text) == w
