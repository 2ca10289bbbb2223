from pathlib import Path

import pytest

from semicurve.semigroup import CurveInstance
from semicurve.survey import Bounds, survey

# Shared enumeration bounds for the corpus-wide checks: every validated
# instance with p in {1,2,3}, m_p <= 25, m_n <= 25.
ACCEPTANCE_BOUNDS = Bounds((1, 2, 3), 25, 25)
ACCEPTANCE_DEPTH = 4
SRC = Path(__file__).resolve().parent.parent / "src"

_acceptance_lines = []


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
    # The src/ line count that ROADMAP.md aim 2 tracks, as wc -l counts it.
    lines = sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))
    terminalreporter.write_line(f"src/ Python lines (wc -l over src/**/*.py): {lines:,}")


@pytest.fixture(scope="session")
def corpus():
    """Full pipeline over the whole corpus, computed once per session."""
    return survey(ACCEPTANCE_BOUNDS, depth=ACCEPTANCE_DEPTH)


@pytest.fixture(scope="session")
def worked_instance():
    return CurveInstance.parse("5,8,11;7")
