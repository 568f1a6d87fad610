"""Persistent worker pools shared across executors, engines and replicas.

Forking shard workers and packing weight slices into shared memory is by
far the most expensive part of bringing a ``process``-driver backend up —
and it is pure waste when a cluster router builds R replica engines over
the *same* model, or a benchmark runs repeat cells back to back.  The
:data:`GLOBAL_POOL` keeps warm worker bundles keyed by **content** (a
checksum of the model's config, policy and parameter bytes) × **topology**
(shard count, pinning), so any executor whose model would produce
byte-identical weight slices attaches to the existing workers instead of
re-forking.

Lifecycle: :meth:`WorkerPool.attach` refcounts; executors release through
``weakref.finalize`` (GC-safe) or an explicit ``close()``, which keeps the
bundle *warm* at zero refs for the next attach.  Bundles leave the pool
only through LRU eviction past :attr:`WorkerPool.capacity`, an explicit
:meth:`WorkerPool.discard` (how a dead worker poisons its bundle), or
:meth:`WorkerPool.clear`.  Worker processes themselves are daemonic and
each driver carries its own process-exit finalizer, so a warm pool can
never outlive the interpreter.

Sharing is safe because the lockstep pipe protocol is only ever driven by
one step at a time: engines sharing a bundle (cluster replicas, sequential
bench repeats) step single-threaded on one virtual clock.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict

import numpy as np

__all__ = ["GLOBAL_POOL", "WorkerPool", "model_fingerprint"]


def model_fingerprint(model) -> str:
    """Content checksum of everything that shapes a worker's weight slices.

    Covers the model dimensions, the precision policy (which decides raw
    vs quantized slices) and every parameter's bytes, so two *distinct*
    model objects with identical weights and policy — e.g. rebuilt from
    the same seed by separate bench cells — map to the same pool entry.
    Memoized per ``_plan_version`` (the counter ``set_policy`` /
    ``load_state_dict`` / ``train`` bump), so repeated calls on an
    unchanged model are free.
    """
    version = model._plan_version
    cached = getattr(model, "_shard_fingerprint", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    config = model.config
    crc = zlib.crc32(
        repr(
            (
                config.embed_dim,
                config.ffn_dim,
                config.vocab_size,
                config.num_heads,
                config.max_position,
                len(model.blocks),
                getattr(model.policy, "name", None),
            )
        ).encode()
    )
    for name, param in model.named_parameters():
        crc = zlib.crc32(name.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(param.data).tobytes(), crc)
    digest = f"{crc:08x}"
    model._shard_fingerprint = (version, digest)
    return digest


class PoolEntry:
    """One warm bundle: the shard plan plus its live fan-out driver."""

    __slots__ = ("key", "plan", "driver", "refs", "broken")

    def __init__(self, key, plan, driver) -> None:
        self.key = key
        self.plan = plan
        self.driver = driver
        self.refs = 1
        self.broken = False


class WorkerPool:
    """Refcounted, LRU-bounded registry of warm worker bundles."""

    def __init__(self, capacity: int = 4) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[object, PoolEntry] = OrderedDict()
        self.attach_total = 0
        self.attach_reused = 0
        self.forked = 0

    def attach(self, key, factory) -> tuple[PoolEntry, bool]:
        """Return ``(entry, reused)`` for ``key``, building via ``factory``.

        ``factory()`` must return ``(plan, driver)`` and is only called on
        a cold (or poisoned) key.  The caller owns one reference and must
        eventually :meth:`release` it.
        """
        self.attach_total += 1
        entry = self._entries.get(key)
        if entry is not None and entry.broken:
            self._close(self._entries.pop(key))
            entry = None
        if entry is not None:
            entry.refs += 1
            self._entries.move_to_end(key)
            self.attach_reused += 1
            return entry, True
        plan, driver = factory()
        entry = PoolEntry(key, plan, driver)
        self._entries[key] = entry
        self.forked += 1
        self._evict()
        return entry, False

    def release(self, key) -> None:
        """Drop one reference; the bundle stays warm for the next attach."""
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.refs = max(0, entry.refs - 1)
        if entry.broken and entry.refs == 0:
            self._close(self._entries.pop(key))

    def discard(self, key) -> None:
        """Tear a bundle down immediately (dead-worker poisoning)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._close(entry)

    def clear(self) -> None:
        """Tear every bundle down (tests; end-of-process hygiene)."""
        while self._entries:
            _, entry = self._entries.popitem(last=False)
            self._close(entry)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "attach_total": self.attach_total,
            "attach_reused": self.attach_reused,
            "forked": self.forked,
        }

    def _evict(self) -> None:
        # Oldest unreferenced entries go first; in-use bundles are never
        # evicted, so the pool can transiently exceed capacity.
        while len(self._entries) > self.capacity:
            victim = next(
                (k for k, e in self._entries.items() if e.refs == 0), None
            )
            if victim is None:
                break
            self._close(self._entries.pop(victim))

    @staticmethod
    def _close(entry: PoolEntry) -> None:
        if entry.driver is not None:
            try:
                entry.driver.close()
            except Exception:  # noqa: BLE001 - teardown must not cascade
                pass
        entry.driver = None


#: The process-wide pool every ``process``-driver executor attaches to.
GLOBAL_POOL = WorkerPool()
