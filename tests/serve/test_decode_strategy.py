"""Decode-strategy acceptance: speculation changes steps, never tokens.

The tentpole guarantee of the decode-strategy layer: under
``prompt-lookup`` speculation every request's served token stream is
**bit-identical** to :func:`repro.nn.generation.generate` — across
precision policies, chunked prefill, preemption-and-rerun, prefix
sharing, stop tokens, and the sliding-window spillover — while the
copy-heavy scenario shows acceptance above zero and more than one token
per decode step.  ``GreedyOneToken`` must reproduce the classic loop
exactly.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve import (
    GreedyOneToken,
    PromptLookupSpeculator,
    Request,
    ServeEngine,
    generate_workload,
    resolve_strategy,
)
from repro.serve.request import RequestState


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


def state_for(tokens, temperature=0.0, max_new=64):
    """A minimal RequestState for proposal unit tests (no KV needed)."""
    request = Request(
        "probe",
        np.asarray(tokens[:1], dtype=np.int64),
        max_new_tokens=max_new,
        temperature=temperature,
    )
    return RequestState(
        request=request,
        rng=np.random.default_rng(0),
        kv=None,
        prompt_window=request.prompt_ids,
        tokens=list(tokens),
    )


class TestPromptLookupProposals:
    def test_matches_most_recent_ngram_continuation(self):
        spec = PromptLookupSpeculator(ngram=2, max_draft=3)
        # ... 5 6 [7 8] 9 1 [7 8] -> continuation after the recent [7 8] is 9 1.
        draft = spec.propose(state_for([5, 6, 7, 8, 9, 1, 7, 8]), limit=8)
        assert draft == (9, 1, 7)

    def test_backoff_to_shorter_ngrams(self):
        spec = PromptLookupSpeculator(ngram=3, max_draft=2)
        # No trigram repeats; the 1-gram 4 recurs with continuation 9.
        draft = spec.propose(state_for([4, 9, 2, 3, 4]), limit=4)
        assert draft == (9, 2)

    def test_no_match_proposes_nothing(self):
        spec = PromptLookupSpeculator()
        assert spec.propose(state_for([1, 2, 3, 4]), limit=4) == ()

    def test_limit_and_max_draft_cap(self):
        spec = PromptLookupSpeculator(ngram=1, max_draft=8)
        tokens = [3, 1, 2, 4, 5, 6, 7, 3]
        assert len(spec.propose(state_for(tokens), limit=2)) <= 2
        assert spec.propose(state_for(tokens), limit=0) == ()

    def test_sampled_rows_never_speculate(self):
        """Verification is greedy-only; sampled rows must keep their RNG walk."""
        spec = PromptLookupSpeculator()
        assert spec.propose(state_for([1, 2, 1, 2], temperature=0.8), limit=4) == ()

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            PromptLookupSpeculator(ngram=0)
        with pytest.raises(ValueError):
            PromptLookupSpeculator(max_draft=-1)

    def test_max_draft_zero_proposes_nothing(self):
        """``max_draft=0`` is legal and degrades to one-token decoding."""
        spec = PromptLookupSpeculator(ngram=2, max_draft=0)
        assert spec.propose(state_for([5, 6, 7, 8, 9, 1, 7, 8]), limit=8) == ()

    def test_ngram_longer_than_history_backs_off(self):
        """An oversized --ngram never crashes: the matcher backs off to the
        longest n-gram the history can support."""
        spec = PromptLookupSpeculator(ngram=50, max_draft=3)
        draft = spec.propose(state_for([5, 6, 7, 8, 9, 1, 7, 8]), limit=8)
        assert draft == (9, 1, 7)  # found via the bigram [7, 8]

    def test_resolve_strategy(self):
        assert isinstance(resolve_strategy(None), GreedyOneToken)
        assert isinstance(resolve_strategy("one-token"), GreedyOneToken)
        spec = resolve_strategy("prompt-lookup", ngram=5, max_draft=7)
        assert (spec.ngram, spec.max_draft) == (5, 7)
        inst = PromptLookupSpeculator()
        assert resolve_strategy(inst) is inst
        with pytest.raises(KeyError):
            resolve_strategy("nonsense")
        with pytest.raises(ValueError):
            resolve_strategy("one-token", ngram=3)


def copy_requests(seed=0, count=8):
    return generate_workload(
        "summarize-copy", num_requests=count, vocab_size=64, seed=seed
    )


class TestSpeculativeExactness:
    """ISSUE acceptance: bit-identical under fp64-ref and bf16-fp8kv."""

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_speculative_serving_equals_generate(self, policy, fixed_timer):
        model = make_model(policy)
        report = assert_served_equals_generate(
            model,
            copy_requests(),
            max_batch_size=4,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )
        metrics = report.metrics
        assert metrics["draft_proposed"] > 0
        assert metrics["acceptance_rate"] > 0
        assert metrics["decode_tokens_per_step"] > 1.0

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_speculation_composes_with_chunked_prefill(self, policy, fixed_timer):
        model = make_model(policy)
        assert_served_equals_generate(
            model,
            copy_requests(),
            max_batch_size=4,
            prefill_budget=3,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_preempted_speculative_rerun_is_byte_identical(self, policy, fixed_timer):
        """ISSUE acceptance: preempt-then-rerun under speculation."""
        model = make_model(policy)
        victim = Request(
            "victim", np.array([9, 10, 11, 9, 10, 11]), max_new_tokens=8, priority=0
        )
        hogs = [
            Request(f"hog{i}", np.arange(1 + i, 6 + i), max_new_tokens=10, priority=1)
            for i in range(2)
        ]
        engine = ServeEngine(
            model,
            max_batch_size=3,
            block_size=2,
            initial_blocks=4,
            max_blocks=8,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )
        report = engine.serve(hogs + [victim])
        assert report.metrics["preempted_count"] >= 1
        for request in hogs + [victim]:
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens, reference(model, request)
            )

    def test_speculation_composes_with_prefix_caching(self, fixed_timer):
        model = make_model()
        prompt = np.array([1, 2, 3, 1, 2, 3, 1, 2])
        requests = [
            Request("writer", prompt, max_new_tokens=8, arrival_time=0.0),
            Request("twin", prompt.copy(), max_new_tokens=8, arrival_time=0.05),
        ]
        report = assert_served_equals_generate(
            model,
            requests,
            max_batch_size=2,
            block_size=4,
            prefix_caching=True,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )
        assert report.pool_stats["blocks_adopted"] > 0

    def test_sliding_window_spillover_with_speculation(self, fixed_timer):
        """Speculation stops at the window edge; the slid tail stays exact."""
        model = make_model()
        max_pos = model.config.max_position
        requests = [
            Request("long", np.array([4, 4, 5, 4, 4, 5]), max_new_tokens=max_pos + 6),
            Request("short", np.array([1, 2, 1, 2]), max_new_tokens=6),
        ]
        assert_served_equals_generate(
            model,
            requests,
            max_batch_size=2,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )

    def test_stop_token_mid_draft_truncates_run(self, fixed_timer):
        """A stop token emitted inside an accepted run ends the request there."""
        model = make_model()
        base = copy_requests(count=4)
        # Use a token each reference stream actually produces as its EOS.
        requests = []
        for request in base:
            ref = reference(model, request)
            generated = ref[request.prompt_ids.size :]
            if generated.size < 3:
                continue
            stop = int(generated[generated.size // 2])
            requests.append(
                Request(
                    request.request_id,
                    request.prompt_ids,
                    max_new_tokens=request.max_new_tokens,
                    temperature=0.0,
                    stop_tokens=(stop,),
                    seed=request.seed,
                    arrival_time=request.arrival_time,
                )
            )
        assert requests, "workload produced no usable stop tokens"
        report = assert_served_equals_generate(
            model,
            requests,
            max_batch_size=4,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )
        assert any(c.finish_reason == "stop" for c in report.completed)

    def test_mixed_greedy_and_sampled_batch(self, fixed_timer):
        """Sampled rows ride along un-speculated, reproducibly."""
        model = make_model()
        requests = copy_requests(count=4) + [
            Request(
                "sampled",
                np.array([6, 7, 8]),
                max_new_tokens=8,
                temperature=0.9,
                top_k=10,
                seed=42,
            )
        ]
        assert_served_equals_generate(
            model,
            requests,
            max_batch_size=3,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )


class TestOneTokenDefault:
    def test_default_engine_uses_one_token(self):
        engine = ServeEngine(make_model())
        assert isinstance(engine.decode_strategy, GreedyOneToken)

    def test_one_token_reproduces_classic_metrics_exactly(self, fixed_timer):
        """Explicit GreedyOneToken == default engine, step for step."""
        requests = copy_requests(count=6)

        class _Timer:
            def __init__(self):
                self.t = 0.0

            def __call__(self):
                self.t += 0.001
                return self.t

        explicit = ServeEngine(
            make_model(), max_batch_size=3, decode_strategy=GreedyOneToken(),
            timer=_Timer(),
        ).serve(requests)
        default = ServeEngine(
            make_model(), max_batch_size=3, timer=_Timer()
        ).serve(requests)
        assert explicit.metrics == default.metrics
        assert explicit.metrics["draft_proposed"] == 0
        assert explicit.metrics["acceptance_rate"] == 0.0
        assert explicit.metrics["decode_tokens_per_step"] == 1.0
        for request in requests:
            np.testing.assert_array_equal(
                explicit.by_id(request.request_id).tokens,
                default.by_id(request.request_id).tokens,
            )

    def test_speculative_report_matches_one_token_report_tokens(
        self, fixed_timer_factory
    ):
        requests = copy_requests(count=8)
        spec = ServeEngine(
            make_model(), decode_strategy="prompt-lookup", timer=fixed_timer_factory()
        ).serve(requests)
        base = ServeEngine(make_model(), timer=fixed_timer_factory()).serve(requests)
        for request in requests:
            np.testing.assert_array_equal(
                spec.by_id(request.request_id).tokens,
                base.by_id(request.request_id).tokens,
            )
        # Fewer model steps for the same tokens: the point of speculation.
        assert spec.metrics["steps"] < base.metrics["steps"]
        assert spec.metrics["tokens_generated"] == base.metrics["tokens_generated"]


class TestSpeculationBudgets:
    def test_max_draft_zero_serves_exactly_like_one_token(self, fixed_timer):
        """The satellite degradation path: a zero draft budget never
        speculates, emits exactly one token per decode step, and keeps the
        served==generate contract with NaN-free metrics."""
        model = make_model()
        report = assert_served_equals_generate(
            model,
            copy_requests(count=4),
            max_batch_size=2,
            decode_strategy=PromptLookupSpeculator(max_draft=0),
            timer=fixed_timer,
        )
        metrics = report.metrics
        assert metrics["draft_proposed"] == 0
        assert metrics["acceptance_rate"] == 0.0
        assert metrics["decode_tokens_per_step"] == 1.0

    def test_draft_never_overshoots_max_new_tokens(self, fixed_timer):
        """A request one token from its budget gets no draft lanes."""
        model = make_model()
        requests = [
            Request("tiny", np.array([1, 2, 1, 2, 1, 2]), max_new_tokens=1),
            Request("small", np.array([3, 4, 3, 4, 3, 4]), max_new_tokens=2),
        ]
        report = assert_served_equals_generate(
            model,
            requests,
            max_batch_size=2,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )
        assert report.by_id("tiny").generated == 1
        assert report.by_id("small").generated == 2
