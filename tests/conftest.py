"""Shared fixtures: the flagship run is expensive, so its stages are
computed once per session and reused by the module tests."""

from __future__ import annotations

import signal

import pytest

from tuttesolve import (PipelineConfig, certify, eliminate_g, expand_series,
                        guess_algeq, parse_equation, run_pipeline,
                        specialize_y0)

from ._frozen import TUTTE_EQ


@pytest.fixture(scope="session")
def tutte_eq():
    return parse_equation(TUTTE_EQ)


@pytest.fixture(scope="session")
def tutte_sx(tutte_eq):
    return expand_series(tutte_eq, 30)


@pytest.fixture(scope="session")
def tutte_seq(tutte_sx):
    return specialize_y0(tutte_sx)


@pytest.fixture(scope="session")
def tutte_p1(tutte_seq):
    p1 = guess_algeq(tutte_seq, 8, 8)
    assert p1 is not None
    return p1


@pytest.fixture(scope="session")
def tutte_p2(tutte_eq, tutte_p1):
    return eliminate_g(tutte_eq, tutte_p1)


@pytest.fixture(scope="session")
def tutte_cert(tutte_eq, tutte_p1, tutte_sx):
    return certify(tutte_eq, tutte_p1, tutte_sx)


@pytest.fixture(scope="session")
def tutte_report():
    cfg = PipelineConfig(TUTTE_EQ, guess_order=30, max_complexity=5,
                         eval_at=1000)
    return run_pipeline(cfg)


@pytest.fixture
def deadline():
    """arm(seconds): past that many seconds the test fails with
    TimeoutError instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its deadline")

    old = signal.signal(signal.SIGALRM, expire)
    try:
        yield signal.alarm
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
