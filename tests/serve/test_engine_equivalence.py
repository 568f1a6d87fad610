"""Serving never changes a served token, whoever drives the engine.

For every workload scenario, under the exact ``fp64-ref`` policy and the
quantized ``bf16-fp8kv`` policy, on a prefix-caching engine whose bounded
pool forces evictions:

* stepping the engine by hand (``begin`` / ``submit`` / ``step_at``) with
  arrivals delivered at their timestamps reproduces ``serve()`` exactly;
* every request's tokens equal :func:`repro.nn.generation.generate` run
  on that request alone;
* two engines that share one model, each serving a disjoint half of the
  sessions, emit the same tokens as one engine serving all of them — the
  model is read-only under serving and engines share no pool state.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve import ServeEngine
from repro.serve.workload import SCENARIOS, generate_workload

POLICIES = ("fp64-ref", "bf16-fp8kv")
ENGINE_KWARGS = dict(max_batch_size=3, block_size=4, prefix_caching=True, max_blocks=12)


def make_model(policy):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(12345), policy=policy
    )
    model.eval()
    return model


def make_workload(model, scenario):
    return generate_workload(
        scenario, sessions=6, vocab_size=model.config.vocab_size, seed=7
    )


def token_multiset(completed):
    """The order-independent multiset of (request_id, tokens) outputs."""
    return sorted(
        (c.request_id, tuple(int(t) for t in c.tokens)) for c in completed
    )


def drive_by_hand(engine, workload):
    """The serve() loop, written against the stepwise interface."""
    pending = sorted(workload, key=lambda r: r.arrival_time)
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
    return engine.report()


def model_bytes(model):
    return [p.data.tobytes() for p in model.parameters()]


scenario_grid = pytest.mark.parametrize("scenario", sorted(SCENARIOS))
policy_grid = pytest.mark.parametrize("policy", POLICIES)


@policy_grid
@scenario_grid
def test_stepwise_drive_matches_serve(policy, scenario, fixed_timer_factory):
    model = make_model(policy)
    workload = make_workload(model, scenario)
    served = ServeEngine(model, timer=fixed_timer_factory(), **ENGINE_KWARGS).serve(
        workload
    )
    manual = drive_by_hand(
        ServeEngine(model, timer=fixed_timer_factory(), **ENGINE_KWARGS), workload
    )
    assert len(served.completed) == len(workload)
    assert served.pool_stats["prefix_evictions"] > 0
    assert token_multiset(manual.completed) == token_multiset(served.completed)
    assert manual.metrics["steps"] == served.metrics["steps"]
    assert manual.pool_stats == served.pool_stats


@policy_grid
@scenario_grid
def test_served_tokens_match_generate(policy, scenario):
    model = make_model(policy)
    workload = make_workload(model, scenario)
    report = ServeEngine(model, **ENGINE_KWARGS).serve(workload)
    assert len(report.completed) == len(workload)
    for request in workload:
        np.testing.assert_array_equal(
            report.by_id(request.request_id).tokens,
            generate(
                model,
                request.prompt_ids,
                max_new_tokens=request.max_new_tokens,
                temperature=request.temperature,
                top_k=request.top_k,
                rng=np.random.default_rng(request.seed),
                stop_tokens=request.stop_tokens,
            ),
            err_msg=f"{scenario}: request {request.request_id} diverged from generate()",
        )


@policy_grid
@scenario_grid
def test_engines_sharing_a_model_match_one_engine(policy, scenario):
    model = make_model(policy)
    workload = make_workload(model, scenario)
    before = model_bytes(model)
    single = ServeEngine(model, **ENGINE_KWARGS).serve(workload)

    # Independent scenarios leave session_id unset: each request is its
    # own session.
    def session(request):
        return request.session_id or request.request_id

    sessions = sorted({session(r) for r in workload})
    halves = (set(sessions[::2]), set(sessions[1::2]))
    engines = [ServeEngine(model, **ENGINE_KWARGS) for _ in halves]
    assert engines[0].pool is not engines[1].pool
    completed = []
    for engine, half in zip(engines, halves):
        part = [r for r in workload if session(r) in half]
        completed.extend(engine.serve(part).completed)

    assert token_multiset(completed) == token_multiset(single.completed)
    assert model_bytes(model) == before
