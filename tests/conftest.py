import pytest

# Criterion results recorded by tests/test_acceptance.py: number -> (ok, detail).
# The terminal summary prints one line per criterion so a full run reads as a
# checklist.
_criteria: dict[int, tuple[bool, str]] = {}
_SLOW_CRITERIA = {7, 8}
_ALL_CRITERIA = range(1, 11)


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _criteria[number] = (ok, detail)


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the full-scale slow acceptance checks")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; use --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.section("acceptance checks")
    for num in _ALL_CRITERIA:
        if num in _criteria:
            ok, detail = _criteria[num]
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"criterion {num:2d}: {status} - {detail}")
        elif num in _SLOW_CRITERIA:
            terminalreporter.write_line(
                f"criterion {num:2d}: SKIPPED - slow suite, enable with --runslow")
        else:
            terminalreporter.write_line(f"criterion {num:2d}: NOT RUN")
