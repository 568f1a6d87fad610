"""The tentpole guarantee: continuously batched serving is bit-exact.

A request decoded inside a ragged continuous batch — whatever its
neighbours, admission timing, or slot — must produce exactly the tokens of
:func:`repro.nn.generation.generate` run on that prompt alone: bit-exact
under greedy decoding, and reproducible under seeded sampling.  This holds
across prefill/decode mixing, early EOS retirement, slot refill, and the
sliding-window spillover past ``max_position``.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve import Request, ServeEngine


def reference(model, request):
    """What generate() produces for this request served alone."""
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
        completed = report.by_id(request.request_id)
        np.testing.assert_array_equal(
            completed.tokens,
            reference(model, request),
            err_msg=f"request {request.request_id} diverged from generate()",
        )
    return report


class TestGreedyBitExactness:
    def test_mixed_length_batch(self, model):
        """Ragged prompts admitted together: every row equals generate()."""
        requests = [
            Request("r0", np.array([1, 2, 3]), max_new_tokens=10),
            Request("r1", np.array([7, 8, 9, 10, 11, 12, 13]), max_new_tokens=6),
            Request("r2", np.array([4]), max_new_tokens=12),
            Request("r3", np.arange(1, 15), max_new_tokens=3),
        ]
        assert_served_equals_generate(model, requests, max_batch_size=4)

    def test_staggered_arrivals_and_slot_reuse(self, model, fixed_timer):
        """Requests arriving mid-flight join existing decode batches."""
        requests = [
            Request("r0", np.array([1, 2, 3]), max_new_tokens=12, arrival_time=0.0),
            Request("r1", np.array([9, 8]), max_new_tokens=4, arrival_time=0.0),
            Request("r2", np.array([5, 5, 5, 5]), max_new_tokens=8, arrival_time=0.001),
            Request("r3", np.array([2, 4, 6]), max_new_tokens=6, arrival_time=0.002),
            Request("r4", np.array([30, 20, 10]), max_new_tokens=5, arrival_time=0.003),
        ]
        report = assert_served_equals_generate(
            model, requests, max_batch_size=2, timer=fixed_timer
        )
        # With 5 requests and 2 slots, retirement must have refilled slots.
        assert report.metrics["queue_depth"]["max"] >= 1

    def test_sliding_window_spillover(self, model):
        """Decode past max_position: the per-row BLAS tail stays exact."""
        max_pos = model.config.max_position
        requests = [
            # Slides far past the window while sharing steps with others.
            Request("long", np.array([4, 4]), max_new_tokens=max_pos + 8),
            Request("short", np.array([1, 2, 3]), max_new_tokens=6),
            # Prompt already at the window: slides immediately.
            Request("wide", np.arange(1, max_pos + 3) % 60, max_new_tokens=5),
        ]
        assert_served_equals_generate(model, requests, max_batch_size=3)

    def test_batch_composition_does_not_change_tokens(self, model):
        """The same request produces identical tokens in different company."""
        probe = Request("probe", np.array([11, 12, 13]), max_new_tokens=9)
        alone = ServeEngine(model).serve([probe]).by_id("probe").tokens
        crowd = [
            Request(f"other{i}", np.array([3 + i, 2, 1]), max_new_tokens=4 + i)
            for i in range(5)
        ]
        crowded = (
            ServeEngine(model, max_batch_size=3)
            .serve(crowd + [probe])
            .by_id("probe")
            .tokens
        )
        np.testing.assert_array_equal(alone, crowded)


class TestOverlongPrompts:
    """Prompts longer than ``max_position`` serve their trailing window."""

    @pytest.mark.parametrize("prefill_budget", [None, 8], ids=["whole", "chunked"])
    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_overlong_prompt_matches_generate(self, policy, backend, prefill_budget):
        model = OPTLanguageModel(
            get_config("opt-test"), rng=np.random.default_rng(2024), policy=policy
        )
        model.eval()
        max_pos = model.config.max_position
        rng = np.random.default_rng(5)
        requests = [
            Request("over-by-1", rng.integers(0, 64, max_pos + 1), max_new_tokens=4),
            Request("over-by-half", rng.integers(0, 64, max_pos + max_pos // 2),
                    max_new_tokens=6),
            Request("sampled", rng.integers(0, 64, 2 * max_pos + 3), max_new_tokens=5,
                    temperature=0.8, top_k=8, seed=17),
            Request("short", np.array([3, 1, 4, 1, 5]), max_new_tokens=7),
        ]
        assert_served_equals_generate(
            model, requests, max_batch_size=4, backend=backend,
            prefill_budget=prefill_budget,
        )


class TestStopTokens:
    def _eos_for(self, model, prompt, horizon=32):
        """A token id greedy decoding actually produces (usable as EOS)."""
        out = generate(model, prompt, max_new_tokens=horizon, temperature=0.0)
        return int(out[prompt.size + 2])  # the third generated token

    def test_eos_finishes_early_and_matches_generate(self, model):
        prompt = np.array([1, 2, 3])
        eos = self._eos_for(model, prompt)
        request = Request("r", prompt, max_new_tokens=30, stop_tokens=(eos,))
        report = assert_served_equals_generate(model, [request])
        completed = report.by_id("r")
        assert completed.finish_reason == "stop"
        assert completed.generated < 30
        assert completed.tokens[-1] == eos

    def test_early_stop_frees_slot_for_queue(self, model):
        prompt = np.array([1, 2, 3])
        eos = self._eos_for(model, prompt)
        requests = [
            Request("stopper", prompt, max_new_tokens=30, stop_tokens=(eos,)),
            Request("steady", np.array([9, 9]), max_new_tokens=10),
            Request("queued", np.array([7, 6, 5]), max_new_tokens=4, arrival_time=0.0005),
        ]
        report = assert_served_equals_generate(model, requests, max_batch_size=2)
        assert report.by_id("stopper").finish_reason == "stop"
        assert report.by_id("queued").finish_reason == "length"


class TestSampledReproducibility:
    def test_seeded_sampling_matches_generate(self, model):
        """Per-request RNGs: sampled streams equal generate() with the seed."""
        requests = [
            Request("s0", np.array([1, 2]), max_new_tokens=8, temperature=0.9,
                    top_k=10, seed=101),
            Request("s1", np.array([3, 4, 5]), max_new_tokens=8, temperature=0.7,
                    top_k=5, seed=202),
            Request("s2", np.array([6]), max_new_tokens=8, temperature=1.1, seed=303),
        ]
        assert_served_equals_generate(model, requests, max_batch_size=3)

    def test_sampling_independent_of_neighbours(self, model):
        probe = Request("p", np.array([2, 3]), max_new_tokens=6, temperature=0.8,
                        top_k=8, seed=55)
        alone = ServeEngine(model).serve([probe]).by_id("p").tokens
        other = Request("o", np.array([60, 61]), max_new_tokens=12, temperature=1.3,
                        seed=77)
        together = ServeEngine(model).serve([probe, other]).by_id("p").tokens
        np.testing.assert_array_equal(alone, together)


class TestNormalizerSwap:
    def test_greedy_exactness_with_iterl2norm(self, model, paper_format):
        """The paper's normalizer swap preserves serve-vs-generate exactness."""
        model.replace_layernorm("iterl2norm", fmt=paper_format, num_steps=5)
        try:
            requests = [
                Request("r0", np.array([1, 2, 3]), max_new_tokens=8),
                Request("r1", np.array([4, 5]), max_new_tokens=5),
            ]
            assert_served_equals_generate(model, requests, max_batch_size=2)
        finally:
            model.restore_layernorm()


class TestPoolBehaviourUnderServing:
    def test_blocks_reused_across_requests(self, model):
        """Acceptance: retired requests' blocks are recycled, not leaked."""
        requests = [
            Request(f"r{i}", np.array([1 + i, 2, 3]), max_new_tokens=6,
                    arrival_time=i * 0.002)
            for i in range(8)
        ]
        engine = ServeEngine(model, max_batch_size=2, block_size=4, initial_blocks=8)
        report = engine.serve(requests)
        stats = report.pool_stats
        assert stats["blocks_reused"] > 0
        assert stats["blocks_in_use"] == 0  # everything returned
        # No per-token growth: allocations are bounded by blocks, not tokens.
        total_tokens = sum(c.prompt_len + c.generated for c in report.completed)
        assert stats["blocks_allocated"] < total_tokens

    def test_metrics_shape(self, model, fixed_timer):
        requests = [Request("r", np.array([1, 2]), max_new_tokens=4)]
        report = ServeEngine(model, timer=fixed_timer).serve(requests)
        metrics = report.metrics
        assert metrics["requests_completed"] == 1
        assert metrics["tokens_generated"] == 4
        assert metrics["tokens_per_second"] > 0
        for key in ("ttft_s", "inter_token_latency_s", "step_time_s"):
            assert {"mean", "p50", "p90", "p99"} <= set(metrics[key])
        completed = report.completed[0]
        assert completed.ttft >= 0
        assert completed.finish_time >= completed.first_token_time


class TestServeReportIndex:
    def test_by_id_builds_index_once_and_raises_key_error(self, model, fixed_timer):
        requests = [
            Request(f"r{i}", np.array([1 + i, 2]), max_new_tokens=3) for i in range(4)
        ]
        report = ServeEngine(model, timer=fixed_timer).serve(requests)
        assert report._index is None  # lazy: nothing built until first lookup
        first = report.by_id("r2")
        assert report._index is not None
        assert report.by_id("r2") is first  # served from the cached dict
        with pytest.raises(KeyError, match="nope"):
            report.by_id("nope")


class TestValidation:
    def test_bad_requests_rejected(self):
        with pytest.raises(ValueError):
            Request("x", np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            Request("x", np.array([1]), max_new_tokens=0)
        with pytest.raises(ValueError):
            Request("x", np.array([1]), temperature=-1.0)
        with pytest.raises(ValueError):
            Request("x", np.array([1]), arrival_time=-0.5)
