"""The serving clock charges a sharded step exactly what it measures.

Logical shards share the host's cores; the engine must not subtract any
modeled overlap from the measured step time.  With a fixed 1 ms timer
every step of a sharded engine therefore reads 1 ms, and the schedule
(hence the step count and every latency metric) is the unsharded
engine's.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.model import OPTLanguageModel
from repro.serve import ServeEngine, generate_workload
from repro.serve.workload import SCENARIOS

SHARD_COUNTS = (1, 2, 4)


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


def serve(backend, timer, scenario="steady", policy=None, hook=None):
    """Serve six requests of ``scenario``; return the report.

    ``hook`` runs on the built engine before serving (to plant attributes
    on its executor).
    """
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(11), policy=policy
    )
    model.eval()
    requests = generate_workload(
        scenario, num_requests=6, vocab_size=model.config.vocab_size, seed=0
    )
    engine = ServeEngine(model, backend=backend, max_batch_size=4, timer=timer)
    if hook is not None:
        hook(engine)
    try:
        report = engine.serve(requests)
    finally:
        engine.close()
    assert len(report.completed) == len(requests)
    return report


def assert_same_schedule(sharded, unsharded):
    """Identical step timeline, metrics and token streams."""
    assert sharded.recorder._step_seconds == unsharded.recorder._step_seconds
    assert sharded.metrics == unsharded.metrics
    for done in unsharded.completed:
        np.testing.assert_array_equal(
            sharded.by_id(done.request_id).tokens, done.tokens
        )


def assert_every_step_is_one_ms(report):
    steps = report.recorder._step_seconds
    assert steps
    assert steps == pytest.approx([1e-3] * len(steps), abs=1e-12)


def test_sharded_steps_are_charged_measured_time():
    sharded = serve("sharded:2:sim", FixedTimer())
    compiled = serve("compiled", FixedTimer())
    assert_every_step_is_one_ms(sharded)
    assert len(sharded.recorder._step_seconds) == len(
        compiled.recorder._step_seconds
    )


class TestScheduleMatchesUnsharded:
    """A sharded engine on an injected clock replays the compiled schedule."""

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_scenario(self, scenario, num_shards):
        sharded = serve(f"sharded:{num_shards}:sim", FixedTimer(), scenario)
        compiled = serve("compiled", FixedTimer(), scenario)
        assert_every_step_is_one_ms(sharded)
        assert_same_schedule(sharded, compiled)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_quantized_preset(self, scenario):
        sharded = serve("sharded:2:sim", FixedTimer(), scenario, "bf16-fp8kv")
        compiled = serve("compiled", FixedTimer(), scenario, "bf16-fp8kv")
        assert_every_step_is_one_ms(sharded)
        assert_same_schedule(sharded, compiled)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_jittered_clock(self, num_shards):
        """Uneven readings pass through unchanged, step for step."""
        sharded = serve(f"sharded:{num_shards}:sim", JitterTimer())
        compiled = serve("compiled", JitterTimer())
        assert len(set(sharded.recorder._step_seconds)) > 1
        assert_same_schedule(sharded, compiled)


class TestProcessDriver:
    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_process_driver_is_charged_measured_time(self, policy):
        sharded = serve("sharded:2:process", FixedTimer(), policy=policy)
        compiled = serve("compiled", FixedTimer(), policy=policy)
        assert_every_step_is_one_ms(sharded)
        assert_same_schedule(sharded, compiled)


class TestNoCreditHook:
    @pytest.mark.parametrize("backend", ["compiled", "sharded:2:sim"])
    def test_engine_ignores_an_overlap_credit_method(self, backend):
        """An executor offering overlap credit is still charged in full."""
        drained = []

        def plant(engine):
            def consume_overlap_credit():
                drained.append(True)
                return 0.0005

            engine.executor.consume_overlap_credit = consume_overlap_credit

        report = serve(backend, FixedTimer(), hook=plant)
        assert_every_step_is_one_ms(report)
        assert not drained
