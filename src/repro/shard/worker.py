"""Shard-side compute: the code that runs *inside* a tensor shard.

A shard never sees the whole model — only its weight slices
(:class:`ShardState`) and per-step activation payloads.  Both drivers run
the exact same :func:`run_phase` on the exact same state arrays, so the
``sim`` and ``process`` drivers are bit-identical by construction; the only
difference is where the arrays live and how payloads travel.

Exactness per phase (vs the unsharded compiled plan):

``qkv`` / ``logits`` (column-parallel)
    Every output element of ``det_matmul`` is an independent dot product
    over the full contraction axis, so computing a column slice of the
    weight yields exactly the column slice of the full result; bias add and
    the quantized ``accum``/``act`` casts are elementwise, hence applied
    shard-locally.
``out`` / ``ffn`` (row-parallel)
    The contraction axis is split at atom-aligned boundaries, and the shard
    returns its *raw float64 per-atom partials*
    (:func:`~repro.nn.functional.det_matmul_partials`) — never a pre-summed
    value — so the driver's :func:`~repro.nn.functional.det_all_reduce`
    replays the unsharded ``det_matmul(..., block=True)`` summation chain
    term for term.  ``ffn`` fuses fc1 (column-parallel, same boundaries) +
    ReLU + fc2 partials into one round trip with zero inter-shard traffic.
"""

from __future__ import annotations

import os

import numpy as np

from repro.nn.functional import det_matmul, det_matmul_partials
from repro.precision.ops import caster

#: Phase names a shard understands, in the per-layer order the driver
#: issues them (``logits`` runs once per forward, after the final norm).
PHASES = ("qkv", "out", "ffn", "logits")


class _ShardLayer:
    """One transformer block's weight slices owned by one shard."""

    __slots__ = ("q_w", "q_b", "k_w", "k_b", "v_w", "v_b",
                 "fc1_w", "fc1_b", "out_w", "fc2_w")

    def __init__(self, arrays, layer):
        pick = lambda name: arrays.get(f"L{layer}.{name}")
        self.q_w = pick("q_w")
        self.q_b = pick("q_b")
        self.k_w = pick("k_w")
        self.k_b = pick("k_b")
        self.v_w = pick("v_w")
        self.v_b = pick("v_b")
        self.fc1_w = pick("fc1_w")
        self.fc1_b = pick("fc1_b")
        self.out_w = pick("out_w")
        self.fc2_w = pick("fc2_w")


class ShardState:
    """Everything one shard needs to serve phases: slices, casters, bounds.

    Built from a flat ``{key: float64 array}`` mapping plus a picklable
    ``config`` dict, so the same constructor serves the in-process driver
    (views into the model's weights) and a worker process (views into a
    shared-memory segment).
    """

    __slots__ = ("num_shards", "passthrough", "accum", "act",
                 "layers", "logits_w", "embed_dim", "ffn_dim",
                 "out_lo", "ffn_lo")

    def __init__(self, config, arrays):
        self.num_shards = config["num_shards"]
        self.passthrough = config["passthrough"]
        self.accum = caster(config["accum_fmt"])
        self.act = caster(config["act_fmt"])
        self.embed_dim = config["embed_dim"]
        self.ffn_dim = config["ffn_dim"]
        self.out_lo = config["out_lo"]
        self.ffn_lo = config["ffn_lo"]
        self.layers = [
            _ShardLayer(arrays, i) for i in range(config["num_layers"])
        ]
        # ``logits_t`` marks a logits slice packed as C-order vocabulary
        # rows: re-transposing reproduces the exact stride class of the
        # tied ``E.T`` view the unsharded plan binds, which einsum's
        # kernel selection (hence the accumulation bit pattern) depends on.
        self.logits_w = arrays["logits_w"]
        if config["logits_t"]:
            self.logits_w = self.logits_w.T


def _linear(state, x, w, b):
    """Replicate the compiled linear closure on a column slice."""
    out = det_matmul(x, w)
    if state.passthrough:
        return out if b is None else out + b
    out = state.accum(out)
    if b is not None:
        out = out + b
    return state.act(out)


def _prefix_presum(parts, k_start):
    """Pre-sum shard 0's atom partials (bit-exact, shrinks the response).

    The fixed-block contract sums atoms strictly left to right, so the
    atoms of the shard that owns ``k_start == 0`` form a *prefix subtree*
    of the chain: summing them locally (first partial copied, the rest
    added in place, exactly like ``det_matmul(..., block=True)``) yields
    the same running value the driver's reduce would have reached.  Later
    shards' atoms enter the chain one by one and must stay raw.
    """
    if k_start != 0 or len(parts) <= 1:
        return parts
    out = np.array(parts[0], dtype=np.float64, copy=True)
    for part in parts[1:]:
        out = np.add(out, part, out=out)
    return [out]


def run_phase(state, phase, layer, payload):
    """Compute one phase; the single entry point of both drivers."""
    if phase == "qkv":
        lp = state.layers[layer]
        return (
            _linear(state, payload, lp.q_w, lp.q_b),
            _linear(state, payload, lp.k_w, lp.k_b),
            _linear(state, payload, lp.v_w, lp.v_b),
        )
    if phase == "out":
        lp = state.layers[layer]
        parts = det_matmul_partials(
            payload, lp.out_w, k_start=state.out_lo, k_total=state.embed_dim
        )
        return _prefix_presum(parts, state.out_lo)
    if phase == "ffn":
        lp = state.layers[layer]
        hidden = np.maximum(_linear(state, payload, lp.fc1_w, lp.fc1_b), 0.0)
        parts = det_matmul_partials(
            hidden, lp.fc2_w, k_start=state.ffn_lo, k_total=state.ffn_dim
        )
        return _prefix_presum(parts, state.ffn_lo)
    if phase == "logits":
        out = det_matmul(payload, state.logits_w)
        if state.passthrough:
            return out
        return state.act(state.accum(out))
    raise ValueError(f"unknown shard phase {phase!r} (known: {PHASES})")


def flatten_result(result):
    """``(kind, arrays)`` for a phase result (see :func:`unflatten_result`).

    Phase results are a 3-tuple of arrays (``qkv``), a list of partials
    (``out``/``ffn``) or a single array (``logits``); flattening them to a
    tagged array list lets the transport ship raw float64 buffers through
    shared memory instead of pickling containers.
    """
    if isinstance(result, tuple):
        return "tuple", list(result)
    if isinstance(result, list):
        return "list", result
    return "array", [result]


def unflatten_result(kind, arrays):
    if kind == "tuple":
        return tuple(arrays)
    if kind == "list":
        return list(arrays)
    return arrays[0]


class _OutRing:
    """A worker-owned shared-memory region its phase results are written to.

    The driver reads each result before issuing the next lockstep step, so
    a single region per worker (grown geometrically on demand) is safe to
    reuse every step.  The worker unlinks replaced and final segments; the
    driver just maps named segments read-only.
    """

    def __init__(self):
        self.shm = None

    def ensure(self, nbytes):
        """Grow to at least ``nbytes``; returns the segment name."""
        from multiprocessing import shared_memory

        if self.shm is None or self.shm.size < nbytes:
            size = max(nbytes, 1 << 20)
            old = self.shm
            self.shm = shared_memory.SharedMemory(create=True, size=size)
            if old is not None:
                # The driver's existing mapping stays valid after unlink;
                # only the name disappears.
                old.close()
                old.unlink()
        return self.shm.name

    def write(self, arrays):
        """Pack ``arrays`` sequentially; returns ``(name, [(off, shape)])``."""
        name = self.ensure(sum(a.nbytes for a in arrays))
        manifest, offset = [], 0
        for array in arrays:
            view = np.ndarray(array.shape, dtype=np.float64,
                              buffer=self.shm.buf, offset=offset)
            view[...] = array
            manifest.append((offset, array.shape))
            offset += array.nbytes
        return name, manifest

    def close(self):
        if self.shm is not None:
            shm, self.shm = self.shm, None
            try:
                shm.close()
                shm.unlink()
            except (BufferError, FileNotFoundError):
                pass


def worker_main(conn, shm_name, manifest, config):
    """Process-driver worker loop: lockstep phase service over a pipe.

    Weight slices live in the named shared-memory segment; ``manifest``
    is ``[(key, byte_offset, shape), ...]`` describing the float64 arrays
    packed inside it.  Activations travel through shared memory too: a
    step message carries ``("shm", segment, offset, shape)`` pointing into
    the driver's payload segment (or ``("pipe", array)`` as fallback), and
    the response header points into this worker's own result ring.  Only
    the small headers are pickled over the pipe.

    Each step is answered with the result header alone; ``("close",)``
    ends the loop.
    """
    from multiprocessing import shared_memory

    pin_cpu = config.get("pin_cpu")
    if pin_cpu is not None:
        try:
            os.sched_setaffinity(0, {int(pin_cpu)})
        except (AttributeError, OSError):
            pass  # the driver already warned; run unpinned

    shm = shared_memory.SharedMemory(name=shm_name)
    payload_segs: dict[str, object] = {}
    ring = _OutRing()
    arrays = state = payload = result = None
    try:
        arrays = {
            key: np.ndarray(shape, dtype=np.float64, buffer=shm.buf,
                            offset=offset)
            for key, offset, shape in manifest
        }
        state = ShardState(config, arrays)
        while True:
            msg = conn.recv()
            if msg[0] == "close":
                break
            _, phase, layer, desc = msg
            if desc[0] == "shm":
                _, seg_name, offset, shape = desc
                seg = payload_segs.get(seg_name)
                if seg is None:
                    seg = payload_segs[seg_name] = shared_memory.SharedMemory(
                        name=seg_name
                    )
                payload = np.ndarray(shape, dtype=np.float64,
                                     buffer=seg.buf, offset=offset)
            else:
                payload = desc[1]
            result = run_phase(state, phase, layer, payload)
            kind, parts = flatten_result(result)
            seg_name, out_manifest = ring.write(parts)
            conn.send(("shm", seg_name, kind, out_manifest))
    except EOFError:
        pass  # driver went away without a close handshake
    finally:
        # Drop the views into the segments before unmapping them; a
        # surviving exported buffer would make ``close`` raise BufferError.
        arrays = state = payload = result = None
        ring.close()
        for seg in payload_segs.values():
            try:
                seg.close()
            except BufferError:
                pass
        try:
            shm.close()
        except BufferError:
            pass
        conn.close()
