"""Tensor-sharded model execution.

Splits a model's linear layers across ``N`` logical shards — column-parallel
for Q/K/V, fc1 and the tied logits projection, row-parallel for the
attention out-projection and fc2 — and reduces row-parallel partial products
through the fixed-block summation tree of
:func:`repro.nn.functional.det_matmul`, so every served token is
bit-identical to the unsharded model under every precision policy and every
shard count.

Two drivers execute the fan-out:

* ``sim`` — an in-process serial loop over shard states (no processes);
  used by the parity tests.
* ``process`` — one worker process per shard holding its weight slices in
  :mod:`multiprocessing.shared_memory`, driven in lockstep over pipes.
  Process worker bundles come from the persistent
  :data:`~repro.shard.pool.GLOBAL_POOL`, keyed by model fingerprint ×
  topology, so engines / cluster replicas / bench repeats over the same
  model attach to warm workers instead of re-forking.

See :class:`~repro.shard.executor.ShardedExecutor` for the exactness
argument.  Serving timings are measured wall-clock; nothing is modeled.
"""

from repro.shard.executor import ShardWorkerError, ShardedExecutor, parse_shard_spec
from repro.shard.plan import ShardPlan
from repro.shard.pool import GLOBAL_POOL, WorkerPool, model_fingerprint
from repro.shard.worker import ShardState, run_phase

__all__ = [
    "GLOBAL_POOL",
    "ShardPlan",
    "ShardState",
    "ShardWorkerError",
    "ShardedExecutor",
    "WorkerPool",
    "model_fingerprint",
    "parse_shard_spec",
    "run_phase",
]
