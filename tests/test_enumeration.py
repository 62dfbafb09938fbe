"""Distribution tables, class counts, and serialization."""

import json
from fractions import Fraction
from itertools import permutations

import pytest

from coxdepth.groups import build_backend
from coxdepth.patterns import is_boolean, is_fc, is_free
from coxdepth.stats import depth, descents, drop, excedances, length, reflection_length
from coxdepth.enumeration import (
    KNOWN_DEPTH_ROWS_A,
    columns,
    count_class,
    depth_distribution,
    export_table,
    joint_distribution,
)


REFERENCE_B_DEPTH_ROWS = {
    1: (1, 1),
    2: (1, 2, 4, 1),
    3: (1, 3, 8, 13, 14, 8, 1),
    4: (1, 4, 13, 29, 55, 66, 90, 53, 60, 12, 1),
    5: (1, 5, 19, 52, 120, 219, 340, 457, 594, 556, 505, 466, 325, 164, 16, 1),
}


DIRECT_STATISTICS = {
    "length": length,
    "rlength": reflection_length,
    "depth": depth,
    "des": lambda w: len(descents(w)),
    "drop": drop,
    "exc": lambda w: len(excedances(w)),
    "fc": is_fc,
    "boolean": is_boolean,
    "free": is_free,
}


def test_columns_match_the_direct_statistics():
    for n in range(1, 7):
        c = columns(n)
        # the oracle checks zip the columns against the backend's elements
        elements = build_backend("A", n).elements
        assert elements == list(permutations(range(1, n + 1)))
        for name, stat in DIRECT_STATISTICS.items():
            column = getattr(c, name)
            assert isinstance(column, bytes)
            assert list(column) == [stat(w) for w in elements], (n, name)
        assert columns(n) is c


def test_depth_rows_a_match_reference():
    for n in range(1, 7):
        t = depth_distribution("A", n)
        assert t.kind == "A" and t.n == n and t.stat == "depth"
        assert t.counts == KNOWN_DEPTH_ROWS_A[n]


def test_depth_rows_a_mass_and_support():
    import math

    for n in range(1, 7):
        counts = depth_distribution("A", n).counts
        assert sum(counts) == math.factorial(n)
        assert counts[0] == 1
        if n >= 2:
            assert counts[1] == n - 1
        assert len(counts) == n * n // 4 + 1


def test_depth_rows_b_regression():
    for n in range(1, 6):
        t = depth_distribution("B", n)
        assert t.counts == REFERENCE_B_DEPTH_ROWS[n]
        assert sum(t.counts) == 2**n * __import__("math").factorial(n)


def test_depth_rows_i2_match_gf():
    from coxdepth.groups import dihedral_gf

    for m in range(2, 13):
        counts = depth_distribution("I2", m).counts
        marginal = {}
        for (_, d), c in dihedral_gf(m).items():
            marginal[d] = marginal.get(d, 0) + c
        assert counts == tuple(marginal[k] for k in range(max(marginal) + 1))
        assert sum(counts) == 2 * m


def test_depth_distribution_validates():
    with pytest.raises(ValueError):
        depth_distribution("A", 9)
    with pytest.raises(ValueError):
        depth_distribution("B", 6)
    with pytest.raises(ValueError):
        depth_distribution("I2", 13)
    with pytest.raises(ValueError):
        depth_distribution("Z", 3)


def test_joint_tables_agree():
    for n in range(1, 7):
        a = joint_distribution(n, ("drop", "des"))
        b = joint_distribution(n, ("dep", "exc"))
        assert a.coeffs == b.coeffs
        assert a.pair == ("drop", "des")
        assert b.pair == ("dep", "exc")


def test_joint_table_hand_coefficients():
    t = dict(joint_distribution(3, ("dep", "exc")).coeffs)
    # S3: identity; two depth-1 swaps; 312 and 321 at (2,1); 231 at (2,2)
    assert t == {(0, 0): 1, (1, 1): 2, (2, 1): 2, (2, 2): 1}
    t4 = dict(joint_distribution(4, ("dep", "exc")).coeffs)
    assert t4[(1, 1)] == 3
    assert sum(t4.values()) == 24


def test_joint_distribution_validates_pair():
    with pytest.raises(ValueError):
        joint_distribution(3, ("dep", "des"))


def test_count_class_values():
    assert count_class(4, "fc") == 14
    assert count_class(8, "fc") == 1430
    assert count_class(4, "boolean") == 13
    assert count_class(8, "boolean") == 610
    assert count_class(4, "free") == 5
    assert count_class(8, "free") == 34
    assert count_class(3, "free") == 3


def test_count_class_depth_eq():
    for n in range(3, 8):
        assert count_class(n, "depth_eq", 2) == (n + 3) * (n - 2) // 2
    assert count_class(4, "depth_eq", 0) == 1
    assert count_class(4, "depth_eq", 1) == 3


def test_count_class_parameter_out_of_range():
    for k in (-1, 300):
        assert count_class(4, "depth_eq", k) == 0
        assert count_class(4, "boolean_by_length", k) == 0
    assert count_class(4, "boolean_by_length", 0) == 1


def test_count_class_boolean_by_length():
    assert count_class(4, "boolean_by_length", 1) == 3
    assert count_class(4, "boolean_by_length", 2) == 5
    assert count_class(4, "boolean_by_length", 3) == 4
    assert count_class(4, "boolean_by_length", 4) == 0
    for n in range(2, 7):
        total = 1 + sum(
            count_class(n, "boolean_by_length", k)
            for k in range(1, n * (n - 1) // 2 + 1)
        )
        assert total == count_class(n, "boolean")


def test_count_class_validates():
    with pytest.raises(ValueError):
        count_class(9, "fc")
    with pytest.raises(ValueError):
        count_class(4, "nope")
    with pytest.raises(ValueError):
        count_class(4, "depth_eq")
    with pytest.raises(ValueError):
        count_class(4, "boolean_by_length")
    for cls in ("fc", "boolean", "free"):
        with pytest.raises(ValueError, match="class %s takes no parameter k" % cls):
            count_class(3, cls, 5)


def test_export_plain():
    assert export_table(depth_distribution("A", 2), "plain") == "1 1"
    assert export_table(depth_distribution("A", 4), "plain") == "1 3 7 9 4"


def test_export_csv():
    assert export_table(depth_distribution("A", 2), "csv") == "n,k,count\n2,0,1\n2,1,1"
    rows = export_table(joint_distribution(3, ("dep", "exc")), "csv").splitlines()
    assert rows[0] == "n,q,t,coeff"
    assert rows[1] == "3,0,0,1"
    assert len(rows) == 5


def test_export_json_round_trip():
    out = export_table(depth_distribution("A", 2), "json")
    assert out == '{"counts": [1, 1], "kind": "A", "n": 2, "stat": "depth"}'
    parsed = json.loads(out)
    assert parsed["counts"] == [1, 1]
    joint = json.loads(export_table(joint_distribution(3, ("dep", "exc")), "json"))
    assert joint["n"] == 3
    assert {tuple(entry[:2]): entry[2] for entry in joint["coeffs"]} == {
        (0, 0): 1, (1, 1): 2, (2, 1): 2, (2, 2): 1,
    }


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        export_table(depth_distribution("A", 2), "yaml")


def test_plain_export_matches_fixture_bytes():
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "depth_rows_a.txt"
    rendered = "".join(
        export_table(depth_distribution("A", n), "plain") + "\n" for n in range(1, 9)
    )
    assert rendered.encode() == fixture.read_bytes()


def test_depth_distribution_agrees_with_direct_count():
    from collections import Counter

    for n in range(1, 6):
        direct = Counter(depth(w) for w in permutations(range(1, n + 1)))
        row = depth_distribution("A", n).counts
        assert row == tuple(direct[k] for k in range(max(direct) + 1))


def test_depth_moments_diaconis_graham():
    # over S_n the mean depth is (n^2 - 1)/6 and the variance
    # (n + 1)(2n^2 + 7)/180; the variance formula fails at n = 1
    for n in range(2, 9):
        column = columns(n).depth
        size = len(column)
        mean = Fraction(sum(column), size)
        variance = Fraction(sum(d * d for d in column), size) - mean ** 2
        assert mean == Fraction(n * n - 1, 6), n
        assert variance == Fraction((n + 1) * (2 * n * n + 7), 180), n
