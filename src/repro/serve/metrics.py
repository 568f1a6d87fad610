"""Serving metrics: TTFT, inter-token latency, throughput, queue, sharing.

All timestamps come from the engine's virtual clock: it advances by the
measured compute time of each step, and when the server is idle it jumps
directly to the next arrival instead of sleeping.  Timestamps therefore
live on the *arrival timeline* — queueing and compute are measured
faithfully (TTFT is true time-from-arrival), idle spans are never slept
through but do remain part of the timeline.  Consequently
``tokens_per_second`` (tokens over makespan) is *delivered* throughput
under the scenario's traffic: for sparse arrivals it is arrival-limited,
not a capacity measurement — compare scenarios at similar load, or use
``rate_scale`` to saturate.  The recorder collects per-step samples,
per-request completions, prefix-cache adoptions, and preemption events;
:meth:`MetricsRecorder.summary` reduces them to the flat JSON-friendly
dictionary ``BENCH_serve.json`` stores, including the prefix hit rate
(adopted prompt positions over all prompt positions), prefill tokens
actually computed and preemption counts.
"""

from __future__ import annotations

import numpy as np

from repro.serve.request import CompletedRequest

#: Percentiles reported for every latency distribution.
PERCENTILES = (50, 90, 99)


def _distribution(values) -> dict[str, float]:
    """Mean plus the standard percentiles of a sample.

    An empty sample — e.g. ``inter_token_latency_s`` when no request ever
    produced a second token — reports ``0.0`` everywhere, with
    ``count == 0`` so consumers can tell "no data" from "instantaneous".  This keeps :meth:`MetricsRecorder.summary`
    NaN-free by construction: ``NaN`` is not valid JSON and used to leak
    into the ``BENCH_serve*.json`` artifacts on pure-prefill runs.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    out = {"count": int(arr.size)}
    if arr.size == 0:
        out["mean"] = 0.0
        out.update({f"p{p}": 0.0 for p in PERCENTILES})
        return out
    out["mean"] = float(np.mean(arr))
    for p in PERCENTILES:
        out[f"p{p}"] = float(np.percentile(arr, p))
    return out


class MetricsRecorder:
    """Accumulates per-step and per-request serving observations."""

    def __init__(self) -> None:
        self.completed: list[CompletedRequest] = []
        self._queue_depths: list[int] = []
        self._active_counts: list[int] = []
        self._step_seconds: list[float] = []
        self._step_tokens: list[int] = []
        self._gaps: list[float] = []
        self._final_time = 0.0
        self._prefill_tokens = 0
        self._prefix_tokens = 0
        self._cold_tokens_restored = 0
        self._cold_tokens_refused = 0
        #: (request_id, virtual-clock time) per preemption event.
        self._preemptions: list[tuple[str, float]] = []

    # -- collection ----------------------------------------------------------------
    def record_step(
        self,
        queue_depth: int,
        active: int,
        elapsed: float,
        tokens: int,
        prefill_tokens: int = 0,
    ) -> None:
        """One scheduler iteration: queue state, step time, tokens produced.

        ``prefill_tokens`` counts the prompt positions whose K/V this step
        actually computed (excluding decode rows and adopted prefixes).
        """
        self._queue_depths.append(int(queue_depth))
        self._active_counts.append(int(active))
        self._step_seconds.append(float(elapsed))
        self._step_tokens.append(int(tokens))
        self._prefill_tokens += int(prefill_tokens)

    def record_adoption(self, tokens: int) -> None:
        """Prompt positions adopted from the prefix cache at an admission."""
        self._prefix_tokens += int(tokens)

    def record_cold(self, restored: int, refused: int) -> None:
        """Cold-tier traffic at an admission.

        ``restored`` counts prompt positions whose K/V was promoted back
        from the cold tier (recompute avoided); ``refused`` counts
        positions that matched a cold span but could not be restored
        exactly (lossy tier / failed promotion) and re-prefilled instead.
        """
        self._cold_tokens_restored += int(restored)
        self._cold_tokens_refused += int(refused)

    def record_preemption(self, request_id: str, now: float) -> None:
        """A request was preempted (blocks released, re-queued) at ``now``."""
        self._preemptions.append((str(request_id), float(now)))

    def record_completion(
        self, completed: CompletedRequest, token_times: list[float]
    ) -> None:
        """A finished request, with the timestamps of each generated token."""
        self.completed.append(completed)
        self._final_time = max(self._final_time, completed.finish_time)
        times = np.asarray(token_times, dtype=np.float64)
        if times.size >= 2:
            self._gaps.extend(np.diff(times).tolist())

    # -- reduction -----------------------------------------------------------------
    def summary(self, max_batch_size: int | None = None) -> dict:
        """Flat metrics dictionary (JSON-serializable)."""
        total_tokens = sum(c.generated for c in self.completed)
        makespan = self._final_time
        steps = len(self._step_seconds)
        prefix_total = self._prefix_tokens + self._prefill_tokens
        summary = {
            "requests_completed": len(self.completed),
            "tokens_generated": int(total_tokens),
            "makespan_s": float(makespan),
            "tokens_per_second": float(total_tokens / makespan) if makespan > 0 else 0.0,
            "steps": steps,
            "ttft_s": _distribution(c.ttft for c in self.completed),
            "queue_wait_s": _distribution(c.queue_wait for c in self.completed),
            "inter_token_latency_s": _distribution(self._gaps),
            "step_time_s": _distribution(self._step_seconds),
            "queue_depth": {
                "mean": float(np.mean(self._queue_depths)) if steps else 0.0,
                "max": int(max(self._queue_depths)) if steps else 0,
            },
            "batch_occupancy": {
                "mean": float(np.mean(self._active_counts)) if steps else 0.0,
                "max": int(max(self._active_counts)) if steps else 0,
            },
            "finish_reasons": {
                reason: sum(1 for c in self.completed if c.finish_reason == reason)
                for reason in sorted({c.finish_reason for c in self.completed})
            },
            # Prefix caching: positions adopted instead of recomputed.
            "prefill_tokens_computed": int(self._prefill_tokens),
            "prefix_tokens_reused": int(self._prefix_tokens),
            "prefix_hit_rate": (
                float(self._prefix_tokens / prefix_total) if prefix_total else 0.0
            ),
            # Tiered KV: cold-span tokens promoted back vs re-prefilled.
            "cold_tokens_restored": int(self._cold_tokens_restored),
            "cold_tokens_refused": int(self._cold_tokens_refused),
            "cold_hit_rate": (
                float(
                    self._cold_tokens_restored
                    / (self._cold_tokens_restored + self._cold_tokens_refused)
                )
                if (self._cold_tokens_restored + self._cold_tokens_refused)
                else 0.0
            ),
            "recompute_tokens_avoided": int(self._cold_tokens_restored),
            # Preemption: events (a request may be preempted repeatedly).
            "preempted_count": len(self._preemptions),
            "preempted_ids": sorted({rid for rid, _ in self._preemptions}),
            "preemption_times_s": [t for _, t in self._preemptions],
        }
        if max_batch_size:
            summary["batch_occupancy"]["utilization"] = (
                summary["batch_occupancy"]["mean"] / max_batch_size
            )
        return summary
