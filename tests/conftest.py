import sys

import pytest

from coxdepth import enumeration


@pytest.fixture
def fresh_columns():
    # a column built under a planted fault must not outlive its test
    enumeration.columns.cache_clear()
    yield
    enumeration.columns.cache_clear()


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
