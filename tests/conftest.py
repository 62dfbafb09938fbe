import random
import sys

import pytest

from coxdepth import checks, enumeration, oracle


def _clear_caches():
    # every functools cache of these modules, found by attribute so that
    # a cache added later is cleared too
    for module in (enumeration, oracle, checks):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.fixture
def fresh_columns():
    # a column, group record or shared witness built under a planted
    # fault must not outlive its test
    _clear_caches()
    yield
    _clear_caches()


def _seeded_window(seed):
    # n runs from 10 to 200 over seeds 0..49; odd seeds shuffle
    # uniformly, even seeds swap three random pairs of the identity
    rng = random.Random(seed)
    n = 10 + seed * 190 // 49
    w = list(range(1, n + 1))
    if seed % 2:
        rng.shuffle(w)
    else:
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            w[i], w[j] = w[j], w[i]
    return tuple(w)


@pytest.fixture(scope="session")
def large_windows():
    # fifty seeded windows at n = 10..200, where the exhaustive sweeps
    # cannot reach and format separates entries by spaces
    return [_seeded_window(seed) for seed in range(50)]


def pytest_terminal_summary(terminalreporter):
    results = []
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance" and module is not None:
            results = getattr(module, "RESULTS", [])
            break
    if not results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance summary:")
    for line in results:
        terminalreporter.write_line(line)
