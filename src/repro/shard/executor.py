"""Sharded execution backends: fan-out drivers and the executor seam.

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

:class:`PipelinedExecutor` layers pipeline parallelism on top: the
decoder stack is split into P contiguous stages (optionally tensor-split
into N shards *within* each stage, reusing the same fixed-order reduce),
and each ragged step batch is split into M microbatches so stage ``s``
can compute microbatch ``m`` while stage ``s+1`` computes ``m-1``.
Stage compute is unchanged layer compute — hidden states hand off
between stages driver-side, a no-op on the bytes — so pipelining is
bit-exact structurally; microbatch row-splitting is bit-safe because
``det_matmul`` computes every output row as an independent dot-product
chain and every other op is per-row.

``process``-driver executors attach to the process-wide
:data:`~repro.shard.pool.GLOBAL_POOL`: worker bundles are keyed by model
fingerprint × topology and reused across engines, cluster replicas and
bench repeats, with refcounted release via ``weakref.finalize``.

Timing model (critical-path accounting)
---------------------------------------
Logical shards share this host's cores, so raw wall time cannot show the
overlap a real N-device deployment gets.  Both drivers therefore measure,
per fan-out, the wall time ``wall`` of the whole exchange and each shard's
self-measured compute ``t_i``, and charge the engine's virtual clock::

    charge = max(max_t, wall - (sum_t - max_t))

i.e. the slowest shard plus any wall time *not* explained by serialized
shard compute (IPC, pickling, scheduling — costs a real deployment also
pays).  On a genuinely parallel host ``wall`` approaches ``max_t`` and the
credit vanishes; on a serialized host the formula recovers the
critical path.  The pipelined executor adds a second, stage-level layer
of the same idea: each (stage, microbatch) cell's charged time feeds the
classic pipeline recurrence ``finish[s][m] = max(finish[s-1][m],
finish[s][m-1]) + t[s][m]``, and the slack between serialized cell time
and that critical path becomes additional overlap credit (cell charges
already exclude the within-cell tensor credit, so nothing is counted
twice).  The accumulated credit is drained by the serving engine through
:meth:`ShardedExecutor.consume_overlap_credit`, mirroring the lockstep
``max()`` clock the cluster router already uses across replicas.
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
from repro.shard.plan import PipelinePlan, ShardPlan
from repro.shard.pool import GLOBAL_POOL, model_fingerprint
from repro.shard.worker import _OutRing, run_phase, unflatten_result, worker_main

__all__ = [
    "PipelinedExecutor",
    "ShardWorkerError",
    "ShardedExecutor",
    "parse_pipeline_spec",
    "parse_shard_spec",
]

#: Known fan-out drivers.
DRIVERS = ("sim", "process")

#: Seconds the driver waits on a worker reply before declaring it hung.
WORKER_TIMEOUT_S = 60.0

#: Default microbatch count of the pipelined executor (capped per step by
#: the batch size; 1 disables interleaving).
DEFAULT_MICROBATCHES = 2


class ShardWorkerError(RuntimeError):
    """A shard worker died or stopped answering mid-step.

    Raised instead of blocking forever on the pipe; the owning executor
    poisons its pooled bundle so no other engine attaches to half-dead
    workers.
    """


def _parse_driver_tail(parts, spec, usage):
    """Shared ``[:driver][:pin]`` tail parsing for both spec grammars."""
    pin = False
    if parts and parts[-1] == "pin":
        pin = True
        parts = parts[:-1]
    if len(parts) > 1:
        raise ValueError(f"bad spec {spec!r}; {usage}")
    driver = parts[0] if parts else "sim"
    if driver not in DRIVERS:
        raise ValueError(
            f"unknown shard driver {driver!r} (known: {', '.join(DRIVERS)})"
        )
    return driver, pin


_SHARD_USAGE = (
    "expected 'sharded:N[:driver][:pin]' with driver one of " + repr(DRIVERS)
)
_PIPELINE_USAGE = (
    "expected 'pipeline:P[:driver][:pin]' or "
    "'pipeline:P+sharded:N[:driver][:pin]' with driver one of "
    + repr(DRIVERS)
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
    driver, pin = _parse_driver_tail(parts[2:], spec, _SHARD_USAGE)
    return num_shards, driver, pin


def parse_pipeline_spec(spec: str) -> tuple[int, int, str, bool]:
    """Parse a pipeline spec into ``(num_stages, num_shards, driver, pin)``.

    Two grammars: plain ``"pipeline:P[:driver][:pin]"`` (whole layers per
    stage) and composed ``"pipeline:P+sharded:N[:driver][:pin]"``
    (tensor-split within each stage; driver and pin apply to the whole
    topology).  Stage counts are any integer >= 1 — the layer-count bound
    is model-dependent and checked at plan build.
    """
    text = str(spec)
    head, _, rest = text.partition("+")
    parts = head.split(":")
    if parts[0] != "pipeline" or len(parts) < 2 or not parts[1]:
        raise ValueError(f"bad pipeline spec {spec!r}; {_PIPELINE_USAGE}")
    try:
        num_stages = int(parts[1])
    except ValueError:
        raise ValueError(
            f"bad stage count {parts[1]!r} in spec {spec!r}; expected an integer"
        ) from None
    if num_stages < 1:
        raise ValueError(f"stage count must be >= 1, got {num_stages}")
    if rest:
        if len(parts) != 2:
            raise ValueError(
                f"bad pipeline spec {spec!r}; in the composed form the "
                f"driver/pin suffix goes after the sharded half: "
                f"{_PIPELINE_USAGE}"
            )
        num_shards, driver, pin = parse_shard_spec(rest)
        return num_stages, num_shards, driver, pin
    driver, pin = _parse_driver_tail(parts[2:], spec, _PIPELINE_USAGE)
    return num_stages, 1, driver, pin


def assign_worker_cpus(count: int, offset: int = 0) -> list[int | None]:
    """Round-robin CPU ids for ``count`` workers (``offset`` shifts the
    rotation so later pipeline stages land on different cores).

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
    return [cpus[(offset + i) % len(cpus)] for i in range(count)]


class _SimDriver:
    """In-process fan-out: a loop over shard states with per-shard timing."""

    def __init__(self, states) -> None:
        self.states = states

    def fanout(self, phase, layer, payloads):
        results, times = [], []
        wall_started = time.perf_counter()
        for state, payload in zip(self.states, payloads):
            started = time.perf_counter()
            results.append(run_phase(state, phase, layer, payload))
            times.append(time.perf_counter() - started)
        return results, times, time.perf_counter() - wall_started

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
    the failed shard/stage instead of blocking the driver forever.

    ``pin=True`` assigns each worker a physical core round-robin
    (``pin_offset`` staggers pipeline stages) which the worker applies via
    ``os.sched_setaffinity`` on startup.
    """

    def __init__(self, plan, label: str = "shard",
                 pin: bool = False, pin_offset: int = 0) -> None:
        import multiprocessing
        from multiprocessing import shared_memory

        ctx = multiprocessing.get_context("fork")
        self.conns, self.procs, self.segments = [], [], []
        self.labels = [
            f"{label} {config['index']}" for config in plan.configs
        ]
        self.pinned_cpus = (
            assign_worker_cpus(len(plan.configs), pin_offset) if pin
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
        if desc[0] == "pipe":
            return desc[1]
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
        wall_started = time.perf_counter()
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
        results, times = [], []
        for i in range(len(self.conns)):
            desc, elapsed = self._recv(i)
            results.append(self._read_result(desc))
            times.append(elapsed)
        return results, times, time.perf_counter() - wall_started

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
        self._drivers: list | None = None
        self._fingerprint: str | None = None
        self._plan_obj = None
        self._credit = 0.0
        self._credit_total = 0.0
        self._pool_key = None
        self._pool_release = None
        self._pool_reused = False

    # -- topology hooks (PipelinedExecutor overrides these) ----------------
    def _topology(self):
        """Pool-key component describing the worker layout."""
        return ("sharded", self.num_shards, self.pin)

    def _make_plan(self):
        return ShardPlan(self.model, self.num_shards)

    def _stage_plans(self, shard_plan):
        """``(label, plan_like)`` per driver group (one per pipeline stage)."""
        return [("shard", shard_plan)]

    def _route(self, phase, layer):
        """The driver a fan-out goes to (stage routing in the subclass)."""
        return self._drivers[0]

    # -- plan / driver lifecycle ------------------------------------------
    def _make_drivers(self, shard_plan):
        if self.driver_name == "sim":
            if self.pin:
                warnings.warn(
                    "worker pinning has no effect on the in-process sim "
                    "driver",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return [
                _SimDriver(stage.states())
                for _, stage in self._stage_plans(shard_plan)
            ]
        drivers, offset = [], 0
        for label, stage in self._stage_plans(shard_plan):
            drivers.append(
                _ProcessDriver(stage, label=label, pin=self.pin,
                               pin_offset=offset)
            )
            offset += len(stage.configs)
        return drivers

    def _cold_build(self):
        shard_plan = self._make_plan()
        return shard_plan, self._make_drivers(shard_plan)

    def _ensure_plan(self):
        plan = super()._ensure_plan()
        fingerprint = model_fingerprint(self.model)
        if self._shard_plan is None or self._fingerprint != fingerprint:
            self._teardown()
            if self.driver_name == "process":
                key = (fingerprint, self._topology())
                bundle, reused = GLOBAL_POOL.attach(key, self._cold_build)
                self._shard_plan = bundle.plan
                self._drivers = bundle.drivers
                self._pool_key = key
                self._pool_reused = reused
                self._pool_release = weakref.finalize(
                    self, GLOBAL_POOL.release, key
                )
            else:
                shard_plan = self._make_plan()
                self._shard_plan = shard_plan
                self._drivers = self._make_drivers(shard_plan)
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
        elif self._drivers is not None:
            for driver in self._drivers:
                driver.close()
        self._drivers = None
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
        self._drivers = None
        self._shard_plan = None
        self._fingerprint = None

    # -- virtual-clock overlap credit -------------------------------------
    def consume_overlap_credit(self) -> float:
        """Seconds of shard compute hidden by overlap since the last call
        (drained by ``ServeEngine.step_at`` to advance its virtual clock by
        the sharded critical path instead of serialized host time)."""
        credit = self._credit
        self._credit = 0.0
        return credit

    def runtime_stats(self) -> dict:
        """Topology, pinning, pool and overlap counters for bench rows."""
        pinned = []
        for driver in self._drivers or []:
            pinned.extend(
                cpu for cpu in getattr(driver, "pinned_cpus", []) or []
                if cpu is not None
            )
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
            "overlap_credit_s": self._credit_total,
        }

    def _fanout(self, phase, layer, payloads):
        try:
            results, times, wall = self._route(phase, layer).fanout(
                phase, layer, payloads
            )
        except ShardWorkerError:
            self._poison()
            raise
        longest, total = max(times), sum(times)
        charge = max(longest, wall - (total - longest))
        if wall > charge:
            self._credit += wall - charge
            self._credit_total += wall - charge
        return results

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


class PipelinedExecutor(ShardedExecutor):
    """Pipeline-parallel backend with microbatch interleaving.

    The decoder stack splits into ``num_stages`` contiguous stages, each
    tensor-split into ``num_shards`` workers (1 = whole layers).  The
    ragged serving step splits its batch into up to ``microbatches``
    row-ranges; the critical-path recurrence over per-(stage, microbatch)
    cell times models stage ``s`` computing microbatch ``m`` while stage
    ``s+1`` computes ``m-1``, and the hidden slack becomes overlap credit
    drained from the serving clock.  Tokens are bit-identical to every
    other backend: stage handoff and row-splitting never change a byte.
    """

    def __init__(self, model, num_stages: int, num_shards: int = 1,
                 driver: str = "sim", pin: bool = False,
                 microbatches: int = DEFAULT_MICROBATCHES) -> None:
        super().__init__(model, num_shards, driver=driver, pin=pin)
        self.num_stages = int(num_stages)
        if self.num_stages < 1:
            raise ValueError(
                f"num_stages must be >= 1, got {self.num_stages}"
            )
        num_layers = len(model.blocks)
        if self.num_stages > num_layers:
            # Fail at construction (where benches can pre-flight it), not
            # inside the first serving step.
            raise ValueError(
                f"pipeline stage count {self.num_stages} exceeds the "
                f"model's {num_layers} decoder layers"
            )
        self.microbatches = int(microbatches)
        if self.microbatches < 1:
            raise ValueError(
                f"microbatches must be >= 1, got {self.microbatches}"
            )
        name = f"pipeline:{self.num_stages}"
        if self.num_shards > 1:
            name += f"+sharded:{self.num_shards}"
        self.name = name + f":{driver}" + (":pin" if self.pin else "")
        self._pipeline_credit_total = 0.0
        self._bubble_num = 0.0
        self._bubble_den = 0.0

    # -- topology hooks ----------------------------------------------------
    def _topology(self):
        return ("pipeline", self.num_stages, self.num_shards, self.pin)

    def _make_plan(self):
        return PipelinePlan(
            self.model, self.num_stages, num_shards=self.num_shards
        )

    def _stage_plans(self, shard_plan):
        return [
            (f"stage {s} shard", stage)
            for s, stage in enumerate(shard_plan.stages)
        ]

    def _route(self, phase, layer):
        if phase == "logits":
            return self._drivers[-1]
        return self._drivers[self._shard_plan.stage_of[layer]]

    def runtime_stats(self) -> dict:
        stats = super().runtime_stats()
        stats["num_stages"] = self.num_stages
        stats["microbatches"] = self.microbatches
        stats["pipeline_overlap_credit_s"] = self._pipeline_credit_total
        stats["pipeline_bubble_fraction"] = (
            self._bubble_num / self._bubble_den if self._bubble_den else 0.0
        )
        return stats

    # -- the microbatched ragged step --------------------------------------
    def forward_ragged(self, token_ids, caches, new_lens, last_only=True,
                       last_k=1):
        plan = self._ensure_plan()
        # Embedding (driver-side, with stage 0) runs on the full batch:
        # it is per-row, so splitting it would change nothing.
        hidden, caches, lens, raw_ok, ctx = self._ragged_prologue(
            plan, token_ids, caches, new_lens, last_k
        )
        batch, max_new = hidden.shape[:2]
        bounds = self._shard_plan.layer_bounds
        num_stages = self.num_stages
        micro = max(1, min(self.microbatches, batch))
        rows = [(m * batch) // micro for m in range(micro + 1)]
        k = last_k if last_only else max_new
        out = np.empty((batch, k, plan.vocab_size), dtype=np.float64)
        times = [[0.0] * micro for _ in range(num_stages)]
        for m in range(micro):
            lo, hi = rows[m], rows[m + 1]
            h_m = hidden[lo:hi]
            lens_m = lens[lo:hi]
            ctx_m = ctx[lo:hi]
            for s in range(num_stages):
                # Cell time charged to the pipeline recurrence: wall minus
                # the within-cell tensor-fanout credit already accrued, so
                # stage- and shard-level overlap never double-count.
                credit_before = self._credit
                started = time.perf_counter()
                for i in range(bounds[s], bounds[s + 1]):
                    views = [caches[r].layers[i] for r in range(lo, hi)]
                    h_m = self._block(
                        plan, plan.layers[i], h_m,
                        partial(self._attend_ragged, plan, views, lens_m,
                                ctx_m, raw_ok),
                    )
                if s == num_stages - 1:
                    h_last = plan.final_norm(h_m)
                    if last_only:
                        h_last = h_last[:, -last_k:, :]
                    out[lo:hi] = self._logits(h_last)
                wall = time.perf_counter() - started
                times[s][m] = max(0.0, wall - (self._credit - credit_before))

        if num_stages > 1 and micro > 1:
            # finish[s][m] = max(finish[s-1][m], finish[s][m-1]) + t[s][m]:
            # stage s starts microbatch m once the previous stage hands it
            # off and its own previous microbatch is done.
            finish = [[0.0] * micro for _ in range(num_stages)]
            for m in range(micro):
                for s in range(num_stages):
                    upstream = finish[s - 1][m] if s else 0.0
                    own_prev = finish[s][m - 1] if m else 0.0
                    finish[s][m] = max(upstream, own_prev) + times[s][m]
            total = sum(sum(row) for row in times)
            path = finish[num_stages - 1][micro - 1]
            credit = max(0.0, total - path)
            self._credit += credit
            self._credit_total += credit
            self._pipeline_credit_total += credit
            if path > 0.0:
                # Bubble: idle stage-time under the critical-path schedule
                # (P*path is the schedule's stage-seconds, total the busy
                # ones).
                self._bubble_num += max(0.0, num_stages * path - total)
                self._bubble_den += num_stages * path
        return out
