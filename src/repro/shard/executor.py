"""Sharded execution backend: fan-out drivers and the executor seam.

:class:`ShardedExecutor` subclasses the compiled executor and rebinds the
plan's linear providers — each layer's ``qkv``, ``out`` and ``ffn`` plus
the tied logits projection — to shard fan-outs.  It has no block body of
its own: the compiled executor's single ``_block`` runs unchanged, so
embeddings, norms, attention, softmax, residuals and the KV cache stay
driver-side in the *same* compiled-plan code as the unsharded backend.
Combined with the exactness arguments in
:mod:`repro.shard.worker` (column splits are elementwise-safe; row splits
reduce through the fixed-block summation tree), every forward is
bit-identical to the unsharded model under every precision policy.

``process``-driver executors attach to the process-wide
:data:`~repro.shard.pool.GLOBAL_POOL`: worker bundles are keyed by model
fingerprint × topology and reused across engines and bench repeats,
with refcounted release via ``weakref.finalize``.

The serving engine charges a sharded step exactly what it measures on the
host clock: logical shards share this host's cores, and no modeled
overlap is subtracted.
"""

from __future__ import annotations

import os
import time
import warnings
import weakref
from functools import partial

import numpy as np

from repro.nn.executor import CompiledExecutor
from repro.nn.functional import DET_ATOMS, det_all_reduce
from repro.shard.plan import ShardPlan
from repro.shard.pool import GLOBAL_POOL, model_fingerprint
from repro.shard.worker import _OutRing, run_phase, unflatten_result, worker_main

__all__ = ["ShardWorkerError", "ShardedExecutor", "parse_shard_spec"]

#: Known fan-out drivers.
DRIVERS = ("sim", "process")

#: Seconds the driver waits on a worker reply before declaring it hung.
WORKER_TIMEOUT_S = 60.0


class ShardWorkerError(RuntimeError):
    """A shard worker died or stopped answering mid-step.

    Raised instead of blocking forever on the pipe; the owning executor
    poisons its pooled bundle so no other engine attaches to half-dead
    workers.
    """


_SHARD_USAGE = (
    "expected 'sharded:N[:driver][:pin]' with driver one of " + repr(DRIVERS)
)


def parse_shard_spec(spec: str) -> tuple[int, str, bool]:
    """Parse ``"sharded:N[:driver][:pin]"`` into ``(num_shards, driver, pin)``.

    Raises ``ValueError`` on malformed specs, shard counts that do not
    divide ``DET_ATOMS``, or unknown drivers.
    """
    parts = str(spec).split(":")
    if parts[0] != "sharded" or len(parts) < 2 or len(parts) > 4 or not parts[1]:
        raise ValueError(f"bad shard spec {spec!r}; {_SHARD_USAGE}")
    try:
        num_shards = int(parts[1])
    except ValueError:
        raise ValueError(
            f"bad shard count {parts[1]!r} in spec {spec!r}; expected an integer"
        ) from None
    if num_shards < 1 or DET_ATOMS % num_shards != 0:
        valid = [n for n in range(1, DET_ATOMS + 1) if DET_ATOMS % n == 0]
        raise ValueError(
            f"shard count {num_shards} must divide DET_ATOMS={DET_ATOMS} "
            f"(valid: {valid})"
        )
    tail = parts[2:]
    pin = bool(tail) and tail[-1] == "pin"
    if pin:
        tail = tail[:-1]
    if len(tail) > 1:
        raise ValueError(f"bad shard spec {spec!r}; {_SHARD_USAGE}")
    driver = tail[0] if tail else "sim"
    if driver not in DRIVERS:
        raise ValueError(
            f"unknown shard driver {driver!r} (known: {', '.join(DRIVERS)})"
        )
    return num_shards, driver, pin


def assign_worker_cpus(count: int) -> list[int | None]:
    """Round-robin CPU ids for ``count`` workers.

    Returns all-``None`` with a warning on platforms without
    ``os.sched_setaffinity`` — pinning is opt-in best-effort, never a
    hard failure.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is None or not hasattr(os, "sched_setaffinity"):
        warnings.warn(
            "worker pinning requested but this platform has no "
            "os.sched_setaffinity; workers run unpinned",
            RuntimeWarning,
            stacklevel=2,
        )
        return [None] * count
    cpus = sorted(getaffinity(0))
    return [cpus[i % len(cpus)] for i in range(count)]


class _SimDriver:
    """In-process fan-out: a serial loop over the shard states."""

    def __init__(self, states) -> None:
        self.states = states

    def fanout(self, phase, layer, payloads):
        return [
            run_phase(state, phase, layer, payload)
            for state, payload in zip(self.states, payloads)
        ]

    def close(self) -> None:
        self.states = []


def _shutdown(procs, conns, segments, rings=(), attached=None):
    """Best-effort teardown shared by ``close`` and the GC finalizer."""
    for conn in conns:
        try:
            conn.send(("close",))
        except (OSError, ValueError, BrokenPipeError):
            pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for ring in rings:
        ring.close()
    # Worker-owned result segments normally unlink worker-side; unlinking
    # again here (workers are joined by now) only matters if a worker was
    # terminated before its cleanup ran.
    for shm in list((attached or {}).values()):
        try:
            shm.close()
            shm.unlink()
        except (BufferError, FileNotFoundError):
            pass
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass


class _ProcessDriver:
    """One worker process per shard, weights in shared memory, lockstep pipes.

    Each shard's slices are packed into a single
    :class:`multiprocessing.shared_memory.SharedMemory` segment described
    by a ``[(key, byte_offset, shape), ...]`` manifest.  Per-step
    activations travel through shared memory as well: the driver packs the
    distinct payload buffers of a fan-out into its payload ring once
    (``qkv``/``ffn``/``logits`` broadcast one array to all shards) and
    sends each worker a ``("shm", segment, offset, shape)`` header; the
    worker answers with a header into its own result ring.  The pipes only
    ever carry these small tuples, so the per-step IPC cost stays near the
    empty-roundtrip floor instead of scaling with activation size.

    Replies are read with a bounded poll: a worker that dies (or hangs
    past :data:`WORKER_TIMEOUT_S`) raises :class:`ShardWorkerError` naming
    the failed shard instead of blocking the driver forever.

    ``pin=True`` assigns each worker a physical core round-robin, which
    the worker applies via ``os.sched_setaffinity`` on startup.
    """

    def __init__(self, plan, pin: bool = False) -> None:
        import multiprocessing
        from multiprocessing import shared_memory

        ctx = multiprocessing.get_context("fork")
        self.conns, self.procs, self.segments = [], [], []
        self.labels = [f"shard {config['index']}" for config in plan.configs]
        self.pinned_cpus = (
            assign_worker_cpus(len(plan.configs)) if pin
            else [None] * len(plan.configs)
        )
        self._payload_ring = _OutRing()
        self._result_segs: dict[str, object] = {}
        try:
            for config, arrays, cpu in zip(
                plan.configs, plan.arrays, self.pinned_cpus
            ):
                if cpu is not None:
                    config = dict(config, pin_cpu=int(cpu))
                named = sorted(arrays.items())
                total = sum(a.nbytes for _, a in named)
                shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
                self.segments.append(shm)
                manifest, offset = [], 0
                for key, array in named:
                    packed = np.ndarray(
                        array.shape, dtype=np.float64, buffer=shm.buf,
                        offset=offset,
                    )
                    packed[...] = array
                    manifest.append((key, offset, array.shape))
                    offset += array.nbytes
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=worker_main,
                    args=(child_conn, shm.name, manifest, config),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
        except BaseException:
            _shutdown(self.procs, self.conns, self.segments,
                      (self._payload_ring,), self._result_segs)
            raise
        self._finalizer = weakref.finalize(
            self, _shutdown, self.procs, self.conns, self.segments,
            (self._payload_ring,), self._result_segs,
        )

    def _read_result(self, desc):
        """Materialize a worker result header as views into its ring.

        The views are only valid until the worker's next step; every
        caller consumes them (concatenate / fixed-order reduce) before the
        next fan-out, which the lockstep protocol guarantees.
        """
        _, name, kind, manifest = desc
        seg = self._result_segs.get(name)
        if seg is None:
            from multiprocessing import shared_memory

            seg = self._result_segs[name] = shared_memory.SharedMemory(
                name=name
            )
        arrays = [
            np.ndarray(shape, dtype=np.float64, buffer=seg.buf, offset=off)
            for off, shape in manifest
        ]
        return unflatten_result(kind, arrays)

    def _recv(self, i):
        """Bounded-timeout reply read; never hangs on a dead worker."""
        conn, proc, label = self.conns[i], self.procs[i], self.labels[i]
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        try:
            while not conn.poll(0.05):
                if not proc.is_alive():
                    raise ShardWorkerError(
                        f"{label} worker died mid-step "
                        f"(exit code {proc.exitcode})"
                    )
                if time.monotonic() > deadline:
                    raise ShardWorkerError(
                        f"{label} worker unresponsive after "
                        f"{WORKER_TIMEOUT_S:.0f}s"
                    )
            return conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise ShardWorkerError(
                f"{label} worker connection failed: {exc}"
            ) from None

    def fanout(self, phase, layer, payloads):
        # Pack each distinct payload buffer once (broadcast phases send the
        # same array object to every shard); non-float64 payloads fall back
        # to pipe pickling, which never happens on the current phase set.
        unique, index = [], {}
        for payload in payloads:
            if payload.dtype == np.float64 and id(payload) not in index:
                index[id(payload)] = len(unique)
                unique.append(payload)
        seg_name, manifest = self._payload_ring.write(unique)
        for i, (conn, payload) in enumerate(zip(self.conns, payloads)):
            slot = index.get(id(payload))
            if slot is None:
                desc = ("pipe", payload)
            else:
                offset, shape = manifest[slot]
                desc = ("shm", seg_name, offset, shape)
            try:
                conn.send(("step", phase, layer, desc))
            except (OSError, ValueError, BrokenPipeError) as exc:
                raise ShardWorkerError(
                    f"{self.labels[i]} worker connection failed: {exc}"
                ) from None
        return [
            self._read_result(self._recv(i)) for i in range(len(self.conns))
        ]

    def close(self) -> None:
        self._finalizer()


class ShardedExecutor(CompiledExecutor):
    """Tensor-sharded backend, bit-identical to the unsharded executors.

    ``num_shards`` logical shards each own column slices of Q/K/V, fc1 and
    the tied logits projection plus row slices of the out-projection and
    fc2; the driver reduces row-parallel partials in fixed shard/atom
    order (see :func:`repro.nn.functional.det_all_reduce`).

    With the ``process`` driver the worker bundle comes from
    :data:`~repro.shard.pool.GLOBAL_POOL` — a second executor over a
    byte-identical model attaches to the warm workers instead of forking.
    """

    def __init__(self, model, num_shards: int, driver: str = "sim",
                 pin: bool = False) -> None:
        if driver not in DRIVERS:
            raise ValueError(
                f"unknown shard driver {driver!r} (known: {', '.join(DRIVERS)})"
            )
        super().__init__(model)
        self.num_shards = int(num_shards)
        self.driver_name = driver
        self.pin = bool(pin)
        self.name = f"sharded:{self.num_shards}:{driver}" + (
            ":pin" if self.pin else ""
        )
        self._shard_plan = None
        self._driver = None
        self._fingerprint: str | None = None
        self._plan_obj = None
        self._pool_key = None
        self._pool_release = None
        self._pool_reused = False

    # -- plan / driver lifecycle ------------------------------------------
    def _cold_build(self):
        shard_plan = ShardPlan(self.model, self.num_shards)
        if self.driver_name == "process":
            return shard_plan, _ProcessDriver(shard_plan, pin=self.pin)
        if self.pin:
            warnings.warn(
                "worker pinning has no effect on the in-process sim driver",
                RuntimeWarning,
                stacklevel=2,
            )
        return shard_plan, _SimDriver(shard_plan.states())

    def _ensure_plan(self):
        plan = super()._ensure_plan()
        fingerprint = model_fingerprint(self.model)
        if self._shard_plan is None or self._fingerprint != fingerprint:
            self._teardown()
            if self.driver_name == "process":
                key = (fingerprint, self.num_shards, self.pin)
                bundle, reused = GLOBAL_POOL.attach(key, self._cold_build)
                self._shard_plan = bundle.plan
                self._driver = bundle.driver
                self._pool_key = key
                self._pool_reused = reused
                self._pool_release = weakref.finalize(
                    self, GLOBAL_POOL.release, key
                )
            else:
                self._shard_plan, self._driver = self._cold_build()
            self._fingerprint = fingerprint
        if plan is not self._plan_obj:
            self._plan_obj = plan
            # Route every linear through the shards; the buffer-reusing
            # einsum logits fast path is unsharded-only.
            for i, lp in enumerate(plan.layers):
                lp.qkv = partial(self._qkv, i)
                lp.out = partial(self._out, i)
                lp.ffn = partial(self._ffn, i)
            plan.out_proj = self._logits
            plan.out_proj_into = None
        return plan

    def prepare(self) -> None:
        """Warm up: build (or attach to) the shard plan and fan-out workers.

        Called by ``ServeEngine.begin`` so worker forking and shared-memory
        weight packing happen before the serving clock starts, instead of
        inside the first measured step.  A warm pool hit makes this nearly
        free.  Requires eval mode (like any compiled forward).
        """
        self._ensure_plan()

    def close(self) -> None:
        """Release the fan-out workers.

        A pooled (``process``) bundle is refcount-released and stays warm
        for the next executor over the same model; sim states are dropped
        outright.
        """
        self._teardown()

    def _teardown(self):
        if self._pool_release is not None:
            self._pool_release()  # refcount release; workers stay warm
            self._pool_release = None
            self._pool_key = None
        elif self._driver is not None:
            self._driver.close()
        self._driver = None
        self._shard_plan = None
        self._fingerprint = None

    def _poison(self):
        """A worker died: tear the pooled bundle down so no engine attaches
        to half-dead workers, and drop this executor's reference."""
        if self._pool_key is not None:
            GLOBAL_POOL.discard(self._pool_key)
        if self._pool_release is not None:
            self._pool_release.detach()
            self._pool_release = None
        self._pool_key = None
        self._driver = None
        self._shard_plan = None
        self._fingerprint = None

    def runtime_stats(self) -> dict:
        """Topology, pinning and pool counters for bench rows."""
        pinned = [
            cpu for cpu in getattr(self._driver, "pinned_cpus", ())
            if cpu is not None
        ]
        return {
            "backend": self.name,
            "driver": self.driver_name,
            "num_shards": self.num_shards,
            "pin_workers": self.pin,
            "pinned_cpus": pinned or None,
            "pool_attach_reused": bool(self._pool_reused),
            "pool": (
                GLOBAL_POOL.stats() if self.driver_name == "process" else None
            ),
        }

    def _fanout(self, phase, layer, payloads):
        try:
            return self._driver.fanout(phase, layer, payloads)
        except ShardWorkerError:
            self._poison()
            raise

    # -- sharded linear applications --------------------------------------
    def _qkv(self, layer, h):
        results = self._fanout("qkv", layer, [h] * self.num_shards)
        return tuple(
            np.concatenate(slices, axis=-1) for slices in zip(*results)
        )

    def _reduce(self, shard_partials, bias):
        shard_plan = self._shard_plan
        out = det_all_reduce(shard_partials)
        if shard_plan.passthrough:
            return out if bias is None else out + bias
        out = shard_plan.accum(out)
        if bias is not None:
            out = out + bias
        return shard_plan.act(out)

    def _out(self, layer, merged):
        bounds = self._shard_plan.embed_bounds
        payloads = [
            merged[..., bounds[s] : bounds[s + 1]]
            for s in range(self.num_shards)
        ]
        raw = self._fanout("out", layer, payloads)
        return self._reduce(raw, self._shard_plan.out_biases[layer])

    def _ffn(self, layer, h2):
        raw = self._fanout("ffn", layer, [h2] * self.num_shards)
        return self._reduce(raw, self._shard_plan.fc2_biases[layer])

    def _logits(self, hidden):
        results = self._fanout("logits", 0, [hidden] * self.num_shards)
        return np.concatenate(results, axis=-1)

