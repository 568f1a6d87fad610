"""Acceptance tests: shared-prefix, chunked-prefill, FIFO admission/preemption.

The headline property of the scheduling tentpole: none of the new
mechanisms — adopting another request's KV blocks, splitting a prompt into
budgeted prefill chunks, preempting and deterministically re-running a
request — changes a single served token.  Every scenario below pins served
output against :func:`repro.nn.generation.generate` on the same prompt,
under the reference policy *and* a quantized policy with an FP8 KV cache.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve import Request, ServeEngine, generate_workload


def make_model(policy=None, seed=7):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(seed), policy=policy
    )
    model.eval()
    return model


def reference(model, request):
    return generate(
        model,
        request.prompt_ids,
        max_new_tokens=request.max_new_tokens,
        temperature=request.temperature,
        top_k=request.top_k,
        rng=np.random.default_rng(request.seed),
        stop_tokens=request.stop_tokens,
    )


def assert_served_equals_generate(model, requests, **engine_kwargs):
    engine = ServeEngine(model, **engine_kwargs)
    report = engine.serve(requests)
    assert len(report.completed) == len(requests)
    for request in requests:
        np.testing.assert_array_equal(
            report.by_id(request.request_id).tokens,
            reference(model, request),
            err_msg=f"request {request.request_id} diverged from generate()",
        )
    return report


def shared_prefix_requests():
    """Staggered requests sharing prompt prefixes at several granularities."""
    system = np.arange(1, 13)  # a 12-token "system prompt"
    return [
        Request("writer", system, max_new_tokens=6, arrival_time=0.0),
        # Same prompt entirely: adopts every full block.
        Request("twin", system.copy(), max_new_tokens=8, arrival_time=0.004),
        # Extends the shared prefix: adopts blocks, then writes its own.
        Request(
            "longer",
            np.concatenate([system, [40, 41, 42, 43, 44]]),
            max_new_tokens=5,
            arrival_time=0.008,
        ),
        # Diverges mid-block: partial adoption plus copy-on-write.
        Request(
            "diverge",
            np.concatenate([system[:10], [50, 51, 52]]),
            max_new_tokens=6,
            arrival_time=0.012,
        ),
        # No shared prefix at all.
        Request("fresh", np.array([60, 61, 62]), max_new_tokens=6, arrival_time=0.016),
    ]


class TestSharedPrefixExactness:
    """ISSUE acceptance: bit-identical under fp64-ref and bf16-fp8kv."""

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_adopted_prefixes_do_not_change_tokens(self, policy, fixed_timer):
        model = make_model(policy)
        report = assert_served_equals_generate(
            model,
            shared_prefix_requests(),
            max_batch_size=2,
            block_size=4,
            prefix_caching=True,
            timer=fixed_timer,
        )
        stats = report.pool_stats
        assert stats["blocks_adopted"] > 0  # sharing actually happened
        assert stats["cow_forks"] > 0  # ...including a mid-block divergence
        assert report.metrics["prefix_hit_rate"] > 0

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_prefix_caching_off_is_bitwise_equivalent(self, policy, fixed_timer):
        requests = shared_prefix_requests()
        on = ServeEngine(
            make_model(policy), block_size=4, prefix_caching=True, timer=fixed_timer
        ).serve(requests)
        off = ServeEngine(make_model(policy), block_size=4).serve(requests)
        for request in requests:
            np.testing.assert_array_equal(
                on.by_id(request.request_id).tokens,
                off.by_id(request.request_id).tokens,
            )
        assert on.pool_stats["blocks_adopted"] > 0
        assert off.pool_stats["blocks_adopted"] == 0

    def test_adoption_survives_writer_retirement(self, fixed_timer):
        """Blocks outlive the registering request: the multi-turn property."""
        model = make_model()
        prompt = np.arange(1, 10)
        first = Request("turn0", prompt, max_new_tokens=2, arrival_time=0.0)
        # Arrives long after turn0 retired; its blocks come from the index.
        second = Request(
            "turn1",
            np.concatenate([prompt, [20, 21, 22]]),
            max_new_tokens=4,
            arrival_time=0.05,
        )
        report = assert_served_equals_generate(
            model,
            [first, second],
            max_batch_size=2,
            block_size=4,
            prefix_caching=True,
            timer=fixed_timer,
        )
        assert report.by_id("turn1").prefix_tokens_reused > 0


class TestChunkedPrefill:
    def test_budgeted_prefill_is_bit_identical(self, fixed_timer):
        """A 3-token budget forces multi-step prefills; tokens are unchanged."""
        model = make_model()
        requests = [
            Request("long", np.arange(1, 21), max_new_tokens=6),
            Request("short", np.array([7, 8]), max_new_tokens=8, arrival_time=0.001),
            Request("mid", np.arange(30, 40), max_new_tokens=5, arrival_time=0.002),
        ]
        report = assert_served_equals_generate(
            model,
            requests,
            max_batch_size=3,
            prefill_budget=3,
            timer=fixed_timer,
        )
        # 20 prompt tokens at <=3/step: the run must take many more steps
        # than the unbudgeted version would, proving chunking engaged.
        assert report.metrics["steps"] > 8
        assert report.metrics["prefill_tokens_computed"] == 20 + 2 + 10

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_budget_composes_with_prefix_caching(self, policy, fixed_timer):
        model = make_model(policy)
        assert_served_equals_generate(
            model,
            shared_prefix_requests(),
            max_batch_size=2,
            block_size=4,
            prefix_caching=True,
            prefill_budget=4,
            timer=fixed_timer,
        )

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            ServeEngine(make_model(), prefill_budget=0)


class TestChatScenarioAcceptance:
    """ISSUE acceptance: nonzero hit rate, fewer prefill tokens computed."""

    def test_multiturn_chat_hits_the_prefix_cache(self, fixed_timer):
        model = make_model()
        workload = generate_workload(
            "chat-multiturn", num_requests=9, vocab_size=64, seed=0, rate_scale=0.05
        )

        class _Timer:
            def __init__(self):
                self.t = 0.0

            def __call__(self):
                self.t += 0.001
                return self.t

        shared = ServeEngine(
            model, block_size=4, prefix_caching=True, timer=_Timer()
        ).serve(workload)
        private = ServeEngine(model, block_size=4, timer=_Timer()).serve(workload)

        assert shared.metrics["prefix_hit_rate"] > 0
        assert (
            shared.metrics["prefill_tokens_computed"]
            < private.metrics["prefill_tokens_computed"]
        )
        for request in workload:
            np.testing.assert_array_equal(
                shared.by_id(request.request_id).tokens,
                private.by_id(request.request_id).tokens,
            )


class TestAdmissionAndPreemption:
    def test_queued_requests_admitted_in_arrival_order(self, fixed_timer):
        """With one slot, queued requests wait their turn in arrival order."""
        model = make_model()
        requests = [
            Request("running", np.array([1, 2]), max_new_tokens=12, arrival_time=0.0),
            Request("first", np.array([3, 4]), max_new_tokens=4, arrival_time=0.001),
            Request("second", np.array([5, 6]), max_new_tokens=4, arrival_time=0.002),
        ]
        report = assert_served_equals_generate(
            model, requests, max_batch_size=1, timer=fixed_timer
        )
        assert (
            report.by_id("running").finish_time
            <= report.by_id("first").admitted_time
            < report.by_id("second").admitted_time
        )

    def test_preempted_request_output_is_byte_identical(self, fixed_timer):
        """ISSUE acceptance: preemption + deterministic re-run changes nothing."""
        model = make_model()
        # The victim arrives last, so it is the newest request.
        victim = Request("victim", np.array([9, 10, 11, 12]), max_new_tokens=6)
        hogs = [
            Request(f"hog{i}", np.arange(1 + i, 5 + i), max_new_tokens=8)
            for i in range(2)
        ]
        engine = ServeEngine(
            model,
            max_batch_size=3,
            block_size=2,
            initial_blocks=4,
            max_blocks=8,
            timer=fixed_timer,
        )
        report = engine.serve(hogs + [victim])
        assert report.metrics["preempted_count"] >= 1
        assert "victim" in report.metrics["preempted_ids"]
        assert report.by_id("victim").preemptions >= 1

        # Byte-identical to the unpreempted solo run *and* to generate().
        solo = ServeEngine(make_model(), max_batch_size=1).serve(
            [Request("victim", np.array([9, 10, 11, 12]), max_new_tokens=6)]
        )
        np.testing.assert_array_equal(
            report.by_id("victim").tokens, solo.by_id("victim").tokens
        )
        for request in hogs + [victim]:
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens, reference(model, request)
            )

    def test_preempted_request_reenters_ahead_of_later_arrivals(self, fixed_timer):
        model = make_model()
        hog = Request("hog", np.arange(1, 5), max_new_tokens=10)
        victim = Request("victim", np.array([9, 10, 11, 12]), max_new_tokens=6)
        late = Request("late", np.array([5, 6]), max_new_tokens=4, arrival_time=0.0005)
        report = assert_served_equals_generate(
            model, [hog, victim, late], max_batch_size=2, block_size=2,
            initial_blocks=4, max_blocks=8, timer=fixed_timer,
        )
        assert report.by_id("victim").preemptions >= 1
        assert report.by_id("hog").preemptions == 0
        assert report.by_id("victim").admitted_time <= report.by_id("late").admitted_time

    def test_no_livelock_under_budget_plus_bounded_pool(self, fixed_timer):
        """Regression: the protected state must be one the plan runs.

        With a prefill budget *and* a bounded pool, protecting a
        budget-stalled state while preempting every planned row spun
        forever (preemption_count grew without a single completion).
        The budget is now granted in queue order, the order preemption
        protects, so the never-preempted state always advances and the
        run terminates.
        """
        model = make_model()
        workload = generate_workload("bursty", num_requests=20, vocab_size=64, seed=0)
        engine = ServeEngine(
            model,
            max_batch_size=8,
            block_size=2,
            initial_blocks=13,
            max_blocks=13,  # the largest request's footprint: the tightest pool
            prefix_caching=True,
            prefill_budget=3,
            timer=fixed_timer,
        )
        report = engine.serve(workload)  # must terminate
        assert report.metrics["requests_completed"] == 20
        assert report.metrics["preempted_count"] > 0
        for request in workload:
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens, reference(model, request)
            )

    def test_preemption_times_recorded(self, fixed_timer):
        model = make_model()
        victim = Request("v", np.array([9, 10, 11, 12]), max_new_tokens=6)
        hog = Request("h", np.arange(1, 5), max_new_tokens=10)
        report = ServeEngine(
            model, max_batch_size=2, block_size=2, initial_blocks=4, max_blocks=8,
            timer=fixed_timer,
        ).serve([hog, victim])
        metrics = report.metrics
        assert len(metrics["preemption_times_s"]) == metrics["preempted_count"]
        assert all(t >= 0 for t in metrics["preemption_times_s"])

    def test_unbounded_pool_never_preempts(self, fixed_timer):
        model = make_model()
        requests = [
            Request(f"r{i}", np.arange(1, 10), max_new_tokens=8)
            for i in range(6)
        ]
        report = assert_served_equals_generate(
            model, requests, max_batch_size=3, block_size=2, timer=fixed_timer
        )
        assert report.metrics["preempted_count"] == 0


class TestSchedulingMetrics:
    def test_new_metric_fields_present(self, fixed_timer):
        model = make_model()
        requests = [
            Request("a", np.array([1, 2, 3]), max_new_tokens=4),
            Request("b", np.array([4, 5]), max_new_tokens=4, arrival_time=0.001),
        ]
        report = ServeEngine(model, timer=fixed_timer).serve(requests)
        metrics = report.metrics
        assert metrics["prefill_tokens_computed"] == 5
        assert metrics["prefix_tokens_reused"] == 0
        assert metrics["prefix_hit_rate"] == 0.0
        assert metrics["preempted_count"] == 0
        assert metrics["preempted_ids"] == []
        pool = report.pool_stats
        for key in (
            "blocks_adopted",
            "cow_forks",
            "prefix_blocks_cached",
            "prefix_evictions",
        ):
            assert pool[key] == 0  # prefix caching off, nothing preempted
