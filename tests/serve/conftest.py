"""Shared fixtures for the continuous-batching server tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.model import OPTLanguageModel


@pytest.fixture
def model() -> OPTLanguageModel:
    """Small eval-mode model with deterministic weights."""
    model = OPTLanguageModel(get_config("opt-test"), rng=np.random.default_rng(12345))
    model.eval()
    return model


class _FixedTimer:
    """Deterministic monotonic clock advancing 1 ms per reading."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.001
        return self.t


@pytest.fixture
def fixed_timer():
    """Deterministic monotonic clock advancing 1 ms per reading."""
    return _FixedTimer()


@pytest.fixture
def fixed_timer_factory():
    """Builds a fresh fixed timer per call, for runs that must not share one.

    Comparisons of step counts across two engines need both on the same
    injected clock: on the wall clock, a slower host batches more arrivals
    into each step, and the count then tracks host load.
    """
    return _FixedTimer


def _serve_checked(engine, requests):
    """``serve()`` driven by hand through ``begin``/``submit``/``step_at``,
    with ``BlockKVPool.check_invariants()`` after every step."""
    pending = sorted(requests, key=lambda r: r.arrival_time)
    engine.begin()
    now, cursor = 0.0, 0
    while cursor < len(pending) or engine.has_work:
        while cursor < len(pending) and pending[cursor].arrival_time <= now:
            engine.submit(pending[cursor])
            cursor += 1
        if not engine.has_work:
            now = pending[cursor].arrival_time
            continue
        now += engine.step_at(now)
        engine.pool.check_invariants()
    return engine.report()


@pytest.fixture
def serve_checked():
    """Serve stepwise, checking the pool's bookkeeping after every step."""
    return _serve_checked
