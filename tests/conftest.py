"""Shared pytest wiring: echo acceptance criterion verdicts in the summary,
and fail a test that leaves numpy's OpenBLAS pool resized or work on the
replicate threads; and the test references shared by several modules."""

import math
from concurrent.futures import wait
from fractions import Fraction

import pytest

from rmtlab import experiments
from rmtlab.ensemble import EnsembleSpec, EntryLaw
from rmtlab.spectral import blas_threads
from rmtlab.walks import WalkError, _walk_sum

CRITERION_LINES: list[str] = []


def graph_spec(partition, p, seed=0):
    """The graph ensemble on `partition`: no intra-part edges, cross-part
    ones with probability p."""
    return EnsembleSpec(partition, EntryLaw.constant_zero(),
                        EntryLaw.bernoulli(p), seed)


def limit_gamma_walks(fractions, sigma1sq, sigma2sq, k: int) -> Fraction:
    """Exact limit moment gamma_k by walk enumeration.

    Sums, over shapes of order k/2+1 whose edges each appear exactly twice
    and over all maps of the shape labels to parts, the product of the
    part fractions and of one variance factor per distinct edge (intra
    variance when the endpoints share a part, cross variance otherwise),
    scaled by 2^-k.  It is the walk reference for laws.limit_moments.
    """
    if k % 2 == 1:
        raise WalkError("limit moments are computed for even k only")
    if k == 0:
        return Fraction(1)
    nus = [Fraction(f) for f in fractions]
    variance = {True: Fraction(sigma1sq), False: Fraction(sigma2sq)}
    total = _walk_sum(k, k // 2 + 1, len(nus),
                      lambda parts: math.prod(nus[p] for p in parts),
                      lambda same, mult: variance[same] if mult == 2 else 0)
    return total / 2**k


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
