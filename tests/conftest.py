"""Shared pytest wiring: echo acceptance criterion verdicts in the summary,
and fail a test that leaves numpy's OpenBLAS pool resized."""

import pytest

from rmtlab.spectral import blas_threads

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def blas_pool_unchanged():
    """A replicate map pins the process-wide BLAS pool to one thread; every
    test must leave it at the size it found."""
    before = blas_threads()
    yield
    if before is not None:
        assert blas_threads() == before, "the OpenBLAS pool size changed"
