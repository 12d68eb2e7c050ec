import sys

import pytest

from cayleyspec import groups


def pytest_terminal_summary(terminalreporter):
    # repeat the acceptance verdicts after the test report so they are
    # visible in one block even when per-test output is captured
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "CRITERION_RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        terminalreporter.write_line(
            f"ACCEPTANCE criterion {number}: {results[number]}"
        )


@pytest.fixture(autouse=True)
def nothing_kept():
    """Every test starts with no interned group, and so no memo and no
    kept claim, so none reads what an earlier one built or certified."""
    groups._clear_interned()
