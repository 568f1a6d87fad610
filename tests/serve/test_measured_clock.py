"""The serving clock charges each step exactly what the timer measures.

The engine advances its clock by the measured step time and never folds
a modeled quantity into it.  So on an injected clock the schedule is a
pure function of the workload and the readings: with a fixed 1 ms timer
every step reads 1 ms, and a compiled engine replays the reference
engine's schedule — the same step timeline, the same metrics and the same
token streams — for every scenario and at both precision extremes.  A
jittered timer's uneven readings pass through unchanged, step for step.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.model import OPTLanguageModel
from repro.serve import ServeEngine, generate_workload
from repro.serve.workload import SCENARIOS

POLICIES = ("fp64-ref", "bf16-fp8kv")


class FixedTimer:
    """Deterministic monotonic clock advancing 1 ms per reading."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.001
        return self.t


class JitterTimer:
    """Deterministic monotonic clock whose increments vary per reading."""

    def __init__(self, seed: int = 3) -> None:
        self.t = 0.0
        self.rng = np.random.default_rng(seed)

    def __call__(self) -> float:
        self.t += float(self.rng.uniform(0.0002, 0.004))
        return self.t


def serve(backend, timer, scenario="steady", policy=None):
    """Serve six requests of ``scenario``; return the report."""
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(11), policy=policy
    )
    model.eval()
    requests = generate_workload(
        scenario, num_requests=6, vocab_size=model.config.vocab_size, seed=0
    )
    engine = ServeEngine(model, backend=backend, max_batch_size=4, timer=timer)
    report = engine.serve(requests)
    assert len(report.completed) == len(requests)
    return report


def assert_same_schedule(compiled, reference):
    """Identical step timeline, metrics and token streams."""
    assert compiled.recorder._step_seconds == reference.recorder._step_seconds
    assert compiled.metrics == reference.metrics
    for done in reference.completed:
        np.testing.assert_array_equal(
            compiled.by_id(done.request_id).tokens, done.tokens
        )


def assert_every_step_is_one_ms(report):
    steps = report.recorder._step_seconds
    assert steps
    assert steps == pytest.approx([1e-3] * len(steps), abs=1e-12)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_compiled_replays_the_reference_schedule(scenario, policy):
    compiled = serve("compiled", FixedTimer(), scenario, policy)
    reference = serve("reference", FixedTimer(), scenario, policy)
    assert_every_step_is_one_ms(compiled)
    assert_every_step_is_one_ms(reference)
    assert_same_schedule(compiled, reference)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_jittered_readings_pass_through(scenario):
    compiled = serve("compiled", JitterTimer(), scenario)
    reference = serve("reference", JitterTimer(), scenario)
    assert len(set(compiled.recorder._step_seconds)) > 1
    assert_same_schedule(compiled, reference)
