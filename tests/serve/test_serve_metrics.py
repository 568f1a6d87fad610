"""MetricsRecorder reductions: distribution edges, completions, steps.

Coverage for :mod:`repro.serve.metrics`: ``_distribution`` on empty and
single-value samples, the latency distributions of a few completions, and
the per-step counters' zero/denominator behaviour.
"""

import json
import math

import numpy as np

from repro.serve.metrics import PERCENTILES, MetricsRecorder, _distribution
from repro.serve.request import CompletedRequest


def completed(rid, arrival=0.0, first=1.0, finish=2.0, generated=3):
    return CompletedRequest(
        request_id=rid,
        tokens=np.arange(generated + 2),
        prompt_len=2,
        generated=generated,
        finish_reason="length",
        arrival_time=arrival,
        admitted_time=arrival,
        first_token_time=first,
        finish_time=finish,
    )


class TestDistribution:
    def test_empty_sample_is_zeros_with_zero_count(self):
        """No data reports 0.0 (valid JSON), distinguished by count == 0."""
        out = _distribution([])
        assert set(out) == {"count", "mean", *(f"p{p}" for p in PERCENTILES)}
        assert out["count"] == 0
        assert out["mean"] == 0.0
        for p in PERCENTILES:
            assert out[f"p{p}"] == 0.0

    def test_no_nans_anywhere(self):
        for sample in ([], [0.5], [1.0, 2.0]):
            assert not any(math.isnan(v) for v in _distribution(sample).values())

    def test_single_value_collapses_every_percentile(self):
        out = _distribution([0.25])
        assert out["count"] == 1
        assert out["mean"] == 0.25
        for p in PERCENTILES:
            assert out[f"p{p}"] == 0.25

    def test_two_values_interpolate(self):
        out = _distribution([0.0, 1.0])
        assert out["mean"] == 0.5
        assert out["p50"] == 0.5
        assert out["p99"] > out["p50"]

    def test_accepts_generators(self):
        assert _distribution(x for x in (1.0, 3.0))["mean"] == 2.0


class TestCompletionLatencies:
    def test_single_completion_distributions_are_finite(self):
        recorder = MetricsRecorder()
        recorder.record_completion(completed("a"), [1.0])
        summary = recorder.summary()
        assert summary["ttft_s"]["p50"] == summary["ttft_s"]["p99"] == 1.0
        assert not math.isnan(summary["queue_wait_s"]["mean"])
        assert summary["inter_token_latency_s"]["count"] == 0

    def test_distributions_span_every_completion(self):
        recorder = MetricsRecorder()
        for rid, arrival in (("a", 0.0), ("b", 0.25), ("c", 0.5)):
            recorder.record_completion(
                completed(rid, arrival=arrival, first=1.0, finish=2.0), [1.0, 2.0]
            )
        summary = recorder.summary()
        assert summary["requests_completed"] == 3
        assert summary["ttft_s"]["count"] == 3
        assert summary["ttft_s"]["mean"] == 0.75
        assert summary["inter_token_latency_s"]["count"] == 3
        assert summary["makespan_s"] == 2.0


class TestStepCounters:
    def test_no_prefill_hit_rate_is_zero(self):
        recorder = MetricsRecorder()
        recorder.record_step(queue_depth=0, active=1, elapsed=0.01, tokens=1)
        summary = recorder.summary()
        assert summary["steps"] == 1
        assert summary["prefill_tokens_computed"] == 0
        assert summary["prefix_hit_rate"] == 0.0

    def test_prefill_and_adoption_accumulate_across_steps(self):
        recorder = MetricsRecorder()
        recorder.record_step(
            queue_depth=0, active=2, elapsed=0.01, tokens=2, prefill_tokens=6
        )
        recorder.record_step(
            queue_depth=1, active=2, elapsed=0.02, tokens=2, prefill_tokens=2
        )
        recorder.record_adoption(8)
        summary = recorder.summary()
        assert summary["steps"] == 2
        assert summary["prefill_tokens_computed"] == 8
        assert summary["prefix_tokens_reused"] == 8
        assert summary["prefix_hit_rate"] == 0.5
        assert summary["queue_depth"] == {"mean": 0.5, "max": 1}

    def test_empty_run_summary_is_strict_json(self):
        """A run that completed nothing serializes with allow_nan=False —
        the NaN-leak regression this satellite pins down."""
        summary = MetricsRecorder().summary()
        parsed = json.loads(json.dumps(summary, allow_nan=False))
        assert parsed["inter_token_latency_s"]["count"] == 0
        assert parsed["inter_token_latency_s"]["p99"] == 0.0
        assert parsed["prefix_hit_rate"] == 0.0
        assert parsed["cold_hit_rate"] == 0.0

    def test_summary_is_json_serializable(self):
        recorder = MetricsRecorder()
        recorder.record_completion(completed("a"), [1.0, 1.2])
        recorder.record_step(
            queue_depth=1, active=1, elapsed=0.01, tokens=2, prefill_tokens=3
        )
        parsed = json.loads(json.dumps(recorder.summary(max_batch_size=4)))
        assert parsed["tokens_generated"] == 3
