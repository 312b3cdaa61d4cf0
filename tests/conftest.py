"""Shared pytest wiring: echo acceptance criterion verdicts in the summary,
and fail a test that leaves numpy's OpenBLAS pool resized or work on the
replicate threads."""

from concurrent.futures import wait

import pytest

from rmtlab import experiments
from rmtlab.spectral import blas_threads

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def replicate_map_cleaned_up():
    """A replicate map pins the process-wide BLAS pool to one thread and
    queues its replicates on `experiments._HELPERS`; every test must leave
    the pool at the size it found and every queued replicate finished."""
    before = blas_threads()
    submitted = []
    submit = experiments._HELPERS.submit

    def tracked(*args, **kwargs):
        future = submit(*args, **kwargs)
        submitted.append(future)
        return future

    # its own patch, undone after the test's monkeypatch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments._HELPERS, "submit", tracked)
        yield
    unfinished = [f for f in submitted if not f.done()]
    wait(unfinished, timeout=30)  # the next test starts on idle threads
    assert not unfinished, "a replicate map returned before its replicates"
    if before is not None:
        assert blas_threads() == before, "the OpenBLAS pool size changed"
