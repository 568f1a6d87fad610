"""Continuous-batching inference server over the NumPy transformer substrate.

The ROADMAP's north star is a system that serves heavy traffic, but
:func:`repro.nn.generation.generate_batch` only decodes equal-length
prompts in a static batch: nothing can join mid-flight, and the whole batch
runs until its last row finishes.  This package adds the serving layer:

* :mod:`~repro.serve.request` — request/response types with per-request
  seeded RNGs, so a request's sampled tokens never depend on its batch
  neighbours.
* :mod:`~repro.serve.kv_pool` — a pooled, preallocated, block-granular KV
  cache with per-block reference counts: requests allocate fixed-size
  blocks from a shared pool and return them on retirement; a radix/trie
  prefix index lets later requests *adopt* blocks covering a shared
  prompt prefix (copy-on-write protected) instead of re-prefilling it.
* :mod:`~repro.serve.scheduler` — policy-driven iteration-level
  scheduling: priority-class admission, a per-iteration prefill token
  budget that streams long prompts in as chunks interleaved with decode
  rows, and preemption under pool exhaustion (victims are re-queued and
  re-run deterministically — decode is bit-reproducible).
* :mod:`~repro.serve.engine` — drives the model's masked ragged forward
  over the scheduled batch; under greedy decoding each request's token
  stream is **bit-identical** to :func:`repro.nn.generation.generate` on
  that prompt alone (including across the sliding-window spillover).
* :mod:`~repro.serve.workload` — synthetic traffic scenarios (steady,
  bursty, chat-style, codegen-style) built on the arrival processes of
  :mod:`repro.macro.traffic`.
* :mod:`~repro.serve.metrics` — TTFT / inter-token-latency percentiles,
  tokens/sec, queue depth, slot occupancy.
* :mod:`~repro.serve.bench` — the ``serve-bench`` harness: runs every
  scenario (optionally under swapped normalizers and/or a precision
  policy via ``--policy``) as engine jobs and emits ``BENCH_serve.json``.

The whole serve path is precision-policy aware: the model's
:class:`~repro.precision.policy.PrecisionPolicy` shapes every op, and the
KV pool quantizes K/V on write to the policy's ``kv_cache_fmt`` — the
bit-exactness guarantee above holds per policy, not just for float64.
"""

from repro.serve.engine import ServeEngine, ServeReport
from repro.serve.kv_pool import (
    BlockKVPool,
    PoolExhaustedError,
    PrefixIndex,
    SequenceKV,
)
from repro.serve.request import CompletedRequest, Request
from repro.serve.scheduler import ContinuousBatchScheduler, Scheduler, StepPlan
from repro.serve.workload import SCENARIOS, Scenario, generate_workload

__all__ = [
    "BlockKVPool",
    "CompletedRequest",
    "ContinuousBatchScheduler",
    "PoolExhaustedError",
    "PrefixIndex",
    "Request",
    "SCENARIOS",
    "Scenario",
    "Scheduler",
    "SequenceKV",
    "ServeEngine",
    "ServeReport",
    "StepPlan",
    "generate_workload",
]
