"""The check registry: it catches a planted fault, and it keeps the names
and order that the benchmark's verify gate compares line by line."""

import importlib.util
from pathlib import Path

import pytest

from coxdepth import checks
from coxdepth.stats import depth

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize(
    "name",
    ["bounds-chain", "depth-of-inverse", "fc-is-depth-eq-length", "lr-maxima-lower-bound"],
)
def test_planted_depth_fault_is_named(monkeypatch, name):
    # depth one too high at 231 only: 2 -> 3, past its length 2 and
    # unequal to the depth 2 of its inverse 312
    monkeypatch.setattr(checks, "depth", lambda w: depth(w) + (w == (2, 3, 1)))
    witness = checks.run(name, 3)
    assert witness is not None and "231" in witness


def test_registry_matches_the_benchmark_gate():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert tuple(name for name, *_ in checks.CHECKS) == workloads.VERIFY_CHECKS
    assert checks.SUITES == ("core", "bijection", "oracle", "patterns")
    suites = [suite for _, suite, _, _ in checks.CHECKS]
    assert suites == sorted(suites, key=checks.SUITES.index)
