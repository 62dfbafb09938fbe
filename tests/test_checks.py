"""The check registry: it catches planted faults in the statistics, in
the pattern scans and in the Cayley-graph oracle, it keeps the names
and order that the benchmark's verify gate compares line by line, and
its caps stay the measured six."""

import importlib.util
from pathlib import Path

import pytest

from coxdepth import checks, enumeration, oracle
from coxdepth.patterns import is_fc, is_free
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
