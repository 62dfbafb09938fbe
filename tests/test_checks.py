"""The check registry: it catches planted faults in the statistics, in
the pattern scans, in the maps the shared sweeps call and in the
Cayley-graph oracle, each shared sweep calls its map once per window,
it keeps the names and order that the benchmark's verify gate compares
line by line, and its caps stay the measured six."""

import importlib.util
from itertools import permutations
from pathlib import Path

import pytest

from coxdepth import checks, enumeration, oracle
from coxdepth.bijections import (
    dyck_of_perm,
    lr_maxima,
    minimal_fiber_rep,
    steingrimsson_phi,
    steingrimsson_phi_inverse,
)
from coxdepth.patterns import is_fc, is_free
from coxdepth.perm_core import inverse
from coxdepth.stats import depth

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize(
    "name",
    ["bounds-chain", "depth-of-inverse", "fc-is-depth-eq-length", "lr-maxima-lower-bound"],
)
def test_planted_depth_fault_is_named(monkeypatch, fresh_columns, name):
    # depth one too high at 231 only: 2 -> 3, past its length 2 and
    # unequal to the depth 2 of its inverse 312; planted both in the
    # column sweep and where a check still calls depth itself
    def faulty(w):
        return depth(w) + (w == (2, 3, 1))

    monkeypatch.setattr(enumeration, "depth", faulty)
    monkeypatch.setattr(checks, "depth", faulty)
    witness = checks.run(name, 3)
    assert witness is not None and "231" in witness


@pytest.mark.parametrize("name", ["fc-is-depth-eq-length", "class-counts-match-closed-forms"])
def test_planted_pattern_scan_fault_is_named(monkeypatch, fresh_columns, name):
    # the fc flag wrong at 321 only: a flag read off depth == length
    # instead of the pattern scan would hide this
    monkeypatch.setattr(enumeration, "is_fc", lambda w: is_fc(w) != (w == (3, 2, 1)))
    assert checks.run(name, 3) is not None


def test_planted_free_scan_fault_is_named(monkeypatch, fresh_columns):
    # 231 has three minimal factorizations but one reduced word, so a
    # free flag set there disagrees with the factorization counts
    monkeypatch.setattr(enumeration, "is_free", lambda w: is_free(w) != (w == (2, 3, 1)))
    witness = checks.run("min-factorizations-free-iff-simple", 3)
    assert witness is not None and "231" in witness


def _one_too_high(search, kind, size, x):
    # search, with its value at element x of group (kind, size) raised by 1
    def faulty(b):
        values = search(b)
        if (b.kind, b.size) == (kind, size):
            values[b.rank(x)] += 1
        return values

    return faulty


def test_planted_oracle_depth_fault_is_named(monkeypatch, fresh_columns):
    monkeypatch.setattr(oracle, "depth_oracle", _one_too_high(oracle.depth_oracle, "A", 3, (2, 3, 1)))
    witness = checks.run("depth-three-ways", 3)
    assert witness is not None and "231" in witness


def test_planted_oracle_rlength_fault_is_named(monkeypatch, fresh_columns):
    faulty = _one_too_high(oracle.reflection_length_oracle, "A", 3, (2, 3, 1))
    monkeypatch.setattr(checks, "reflection_length_oracle", faulty)
    witness = checks.run("rlength-two-ways", 3)
    assert witness is not None and "231" in witness


def test_planted_signed_depth_fault_is_caught(monkeypatch, fresh_columns):
    monkeypatch.setattr(oracle, "depth_oracle", _one_too_high(oracle.depth_oracle, "B", 2, (-1, -2)))
    assert checks.run("signed-dihedral-cross-check", 3) is not None


def test_planted_dihedral_depth_fault_is_named(monkeypatch, fresh_columns):
    monkeypatch.setattr(oracle, "depth_oracle", _one_too_high(oracle.depth_oracle, "I2", 6, (3, 1)))
    witness = checks.run("dihedral-formula-match", 3)
    assert witness is not None and "I2(6) element (3, 1)" in witness


PHI_ROWS = ("phi-bijective", "phi-transports-stats", "phi-round-trip")
INVERSE_ROWS = ("compose-inverse-identity", "depth-of-inverse")
DYCK_ROWS = ("fiber-unique-minimal", "dyck-path-count")

# 1243 -> 1324 -> 1342 -> 1243: 1243 and 1324 share des 1 and drop 1,
# 1342 has drop 2
_CYCLE = {(1, 2, 4, 3): (1, 3, 2, 4), (1, 3, 2, 4): (1, 3, 4, 2), (1, 3, 4, 2): (1, 2, 4, 3)}

# (fault, name in checks, faulty map, size, rows of its sweep, the
# witnesses of those rows); each witness is the one the rows gave when
# each ran its own loop over the windows
SHARED_SWEEP_FAULTS = [
    ("phi collision at 321", "steingrimsson_phi",
     lambda w: (1, 2, 3) if w == (3, 2, 1) else steingrimsson_phi(w), 3, PHI_ROWS,
     ("phi(321) = 123 repeats an earlier image",
      "phi(321) = 123: des 2, exc 0, drop 2, depth 0",
      "phi^-1(phi(321)) = 123")),
    # still a bijection; the round trip first breaks at 1243, the
    # transport at 1324, whose image is now that of 1342
    ("phi images moved round a cycle", "steingrimsson_phi",
     lambda w: steingrimsson_phi(_CYCLE.get(w, w)), 4, PHI_ROWS,
     (None,
      "phi(1324) = 1423: des 1, exc 1, drop 1, depth 2",
      "phi^-1(phi(1243)) = 1324")),
    ("phi^-1 wrong at phi(231)", "steingrimsson_phi_inverse",
     lambda v: (3, 2, 1) if v == steingrimsson_phi((2, 3, 1)) else steingrimsson_phi_inverse(v), 3, PHI_ROWS,
     (None, None, "phi^-1(phi(231)) = 321")),
    # an inverse of the same depth: only the composition notices
    ("inverse returns its argument", "inverse", lambda w: w, 3, INVERSE_ROWS,
     ("231 with inverse 231: w w^-1 = 312, w^-1 w = 312", None)),
    ("inverse of 231 is 132", "inverse",
     lambda w: (1, 3, 2) if w == (2, 3, 1) else inverse(w), 3, INVERSE_ROWS,
     ("231 with inverse 132: w w^-1 = 213, w^-1 w = 321", "depth(231) = 2, depth(132) = 1")),
    # 2134 is alone in its fiber, so its path is lost from the count too
    ("path of 2134 is that of 1234", "dyck_of_perm",
     lambda w: dyck_of_perm((1, 2, 3, 4) if w == (2, 1, 3, 4) else w), 4, DYCK_ROWS,
     ("2134: depth 1, length 1, its fiber's minimal element 1234",
      "S_4 reaches 13 Dyck paths, Catalan number 14")),
    ("minimal element 312 over the path of 132", "minimal_fiber_rep",
     lambda path: (3, 1, 2) if minimal_fiber_rep(path) == (1, 3, 2) else minimal_fiber_rep(path), 3, DYCK_ROWS,
     ("132: depth 1, length 1, its fiber's minimal element 312", None)),
]


@pytest.mark.parametrize(
    "attr, faulty, k, rows, witnesses",
    [case[1:] for case in SHARED_SWEEP_FAULTS],
    ids=[case[0] for case in SHARED_SWEEP_FAULTS],
)
def test_planted_shared_sweep_fault_is_named(monkeypatch, fresh_columns, attr, faulty, k, rows, witnesses):
    # every row of a sweep names its own first witness, string for string
    monkeypatch.setattr(checks, attr, faulty)
    assert tuple(checks.run(row, k) for row in rows) == witnesses


@pytest.mark.parametrize(
    "attr, rows",
    [("steingrimsson_phi", PHI_ROWS), ("inverse", INVERSE_ROWS), ("dyck_of_perm", DYCK_ROWS)],
)
def test_shared_sweep_calls_its_map_once_per_window(monkeypatch, fresh_columns, attr, rows):
    # one call per window of S_5 for all the rows of a sweep together,
    # where a loop per row would make one per window per row
    real, calls = getattr(checks, attr), []

    def counted(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(checks, attr, counted)
    assert [checks.run(row, 5) for row in rows] == [None] * len(rows)
    assert sorted(calls) == list(permutations(range(1, 6)))


def test_planted_lr_maxima_fault_is_named(monkeypatch):
    # only the first left-to-right maximum reported: 1243's excedance at
    # 3 has w(3) - 3 = 1 crossing, so it must be a maximum
    monkeypatch.setattr(checks, "lr_maxima", lambda w: lr_maxima(w)[:1])
    assert checks.run("excedance-cover-bound", 4) == (
        "1243, excedance at 3: 1 crossings, w(i) - i = 1, left-to-right maximum False")


def test_refined_closed_form_at_a_huge_length():
    # the binomial sum stops at i = n, so k = 10^9 costs four terms
    assert checks.class_count_witness(4, "boolean_by_length", 10**9) is None


def test_caps_are_the_measured_six():
    caps = {name: cap for name, _, cap, _ in checks.CHECKS if cap is not None}
    assert caps == {
        "depth-delta-formula": 6,
        "depth-three-ways": 7,
        "rlength-two-ways": 7,
        "backend-length-is-inversions": 7,
        "reflections-are-transpositions": 7,
        "min-factorizations-free-iff-simple": 7,
    }


def test_registry_matches_the_benchmark_gate():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert tuple(name for name, *_ in checks.CHECKS) == workloads.VERIFY_CHECKS
    assert checks.SUITES == ("core", "bijection", "oracle", "patterns")
    suites = [suite for _, suite, _, _ in checks.CHECKS]
    assert suites == sorted(suites, key=checks.SUITES.index)
