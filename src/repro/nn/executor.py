"""Pluggable model executors: the reference path and a compiled fast path.

The serving engine and the generation helpers never care *how* a forward is
computed — only that the bytes coming back are identical to the reference
implementation in :class:`~repro.nn.model.OPTLanguageModel` under every
precision policy.  This module makes that seam explicit:

``ModelExecutor``
    The protocol: ``forward`` (dense BLAS path), ``forward_with_cache``,
    ``verify_forward`` and ``forward_ragged``, mirroring the model methods
    one-to-one.

``ReferenceExecutor``
    Delegates every call verbatim to the model.  This *is* the historical
    behaviour; engines constructed without a backend use it.

``CompiledExecutor``
    Pre-resolves the whole per-token op sequence into a flat plan of bound
    closures at plan-build time (re-validated against the model's
    ``_plan_version`` counter, which ``set_policy`` / ``load_state_dict`` /
    ``train`` bump).  The plan:

    * pre-resolves every quantized weight once (``ops.weight`` memo hits at
      build time, not per token) and binds ``accum``/``act`` casters into
      per-layer closures — no per-token attribute chains or memo lookups;
    * batches the quantize-on-write KV path — one vectorized cast per
      layer per step instead of one per row, through the KV format's bound
      :func:`~repro.precision.ops.caster` — and hands pre-quantized slices
      to the caches through their ``append_raw`` fast path;
    * runs the ragged attention core once per layer over the whole batch:
      each row appends to its own cache, which packs the row's K/V history
      straight into a zero-padded ``(batch, heads, max_total, head_dim)``
      workspace (``append_raw(..., out)``), and one scores matmul, one
      mask, one softmax and one context matmul cover every row.  The
      lane/key geometry (masks, pad indices, workspace) is built once per
      ``forward_ragged`` and shared by every layer;
    * skips the causal mask when every row of a ragged step is a
      single-token decode (see note below), and caches the causal masks of
      single-row chunks keyed ``(new_len, total_len)``;
    * reuses a logits output buffer across steps on the ragged path.

    The transformer block body exists once, in ``CompiledExecutor._block``:
    norm → q/k/v → head split → attention core → merge → out-projection →
    residual → norm → FFN → residual.  The cached and ragged forwards differ
    only in the attention core they pass in.  Each layer's linears come from
    three *linear providers* on its ``_LayerPlan`` — ``qkv``, ``out`` and
    ``ffn`` — which are local closures here; the sharded backend
    (:mod:`repro.shard.executor`) rebinds them to shard fan-outs and runs
    the same body.

Bit-exactness notes
-------------------
Everything the compiled plan does is a *re-staging* of the reference
arithmetic, never a re-association:

* Weight operands are the same array objects the reference path feeds to
  ``det_matmul`` (quantized weights come from the same ``ops.weight`` memo),
  so einsum sees identical memory-layout classes and picks identical
  accumulation loops.
* Every cast is the op layer's bound caster, bit-identical to ``quantize``
  and returning C order; the reference path casts with the same casters.
* KV quantization is elementwise, so quantizing the whole ``(batch, heads,
  max_new, head_dim)`` tensor once and appending per-row slices writes the
  same bytes as quantizing each row separately.  The ``append_raw`` gate
  falls back to plain ``append`` (which re-quantizes) when a cache does not
  expose the fast path; quantize is idempotent, so the fallback is bit-safe.
* Single-token rows need no causal mask: ``causal_mask_offset(1, total)``
  is all zeros, and adding ``+0.0`` can only flip ``-0.0`` to ``+0.0``.
  The only consumer is ``det_softmax``, where ``exp(±0.0) == 1.0`` bitwise
  and ``x - (±0.0)`` only moves the sign of a zero, so skipping the add —
  or adding zeros to a decode row that shares a batch with prefill
  chunks — cannot change a downstream byte.
* The padded ragged attention core is bit-identical to attending each row
  over exactly its own keys.  Scores contract over ``head_dim``, whose
  length padding does not change; pad keys are forced to ``-inf`` with
  ``np.where`` (so a NaN or inf score cannot leak through an add) and real
  keys get the very causal mask the per-row path adds, so non-finite
  scores propagate as they do there.  ``det_softmax`` sums its denominator
  left to right, so the trailing ``exp(-inf) = 0`` terms leave it
  unchanged; ``einsum(optimize=False)`` accumulates each context element
  sequentially over keys, so the padded ``+0 * 0`` terms are exact no-ops.
  The workspace is the ``[:max_total]`` slice of a longer, zero-filled
  buffer — the layout class of the caches' own views.  It is allocated
  per ``forward_ragged``, and every layer rewrites each row's real keys
  and leaves its pad keys alone, so pad values are always finite zeros.
  Pad *query* lanes attend over their row's real keys (their softmax
  stays finite) and are written as zeros in the context, as the
  reference's ``np.zeros_like(q)`` leaves them.  A single-row step
  attends over the cache's own views: no copy, and no mask unless it is a
  multi-token chunk.  ``TestDetMatmulZeroPadding`` pins the einsum
  property by name; ``tests/serve/test_ragged_differential.py`` checks
  the whole core against the reference on seeded random batches, byte
  for byte.

Because the logits buffer is reused, the array returned by the compiled
``forward_ragged`` is only valid until the next ``forward_ragged`` call on
the same executor — both the engine and the generation loops consume logits
before the next forward.
"""

from __future__ import annotations

from functools import partial
from typing import Protocol, runtime_checkable

import numpy as np

from repro.nn.functional import causal_mask_offset, det_matmul, det_softmax
from repro.nn.kv_cache import resolve_kv_format
from repro.precision.ops import caster
# Kept as a module attribute: the wall-clock benchmark's tracer patches it.
from repro.fpformats.quantize import quantize  # noqa: F401

__all__ = [
    "EXECUTORS",
    "CompiledExecutor",
    "ModelExecutor",
    "ReferenceExecutor",
    "resolve_executor",
    "validate_backend",
]

_NO_FMT = object()  # sentinel so ``kv_fmt`` absence never equals a real format


@runtime_checkable
class ModelExecutor(Protocol):
    """What the engine and generation loops require of a backend."""

    name: str

    def forward(self, token_ids: np.ndarray) -> np.ndarray: ...

    def forward_with_cache(
        self, token_ids: np.ndarray, cache, last_only: bool = False
    ) -> np.ndarray: ...

    def verify_forward(self, token_ids: np.ndarray, cache) -> np.ndarray: ...

    def forward_ragged(
        self,
        token_ids: np.ndarray,
        caches,
        new_lens,
        last_only: bool = True,
        last_k: int = 1,
    ) -> np.ndarray: ...


class ReferenceExecutor:
    """The historical path: delegate every forward verbatim to the model."""

    name = "reference"

    def __init__(self, model) -> None:
        self.model = model

    def forward(self, token_ids):
        return self.model(token_ids)

    def forward_with_cache(self, token_ids, cache, last_only=False):
        return self.model.forward_with_cache(token_ids, cache, last_only=last_only)

    def verify_forward(self, token_ids, cache):
        return self.model.verify_forward(token_ids, cache)

    def forward_ragged(self, token_ids, caches, new_lens, last_only=True, last_k=1):
        return self.model.forward_ragged(
            token_ids, caches, new_lens, last_only=last_only, last_k=last_k
        )


# ---------------------------------------------------------------------------
# Compiled plan construction
# ---------------------------------------------------------------------------


def _linear_closure(ops, weight, bias, block=False):
    """Bind one Linear's ``forward_det`` into a closure with pre-resolved
    operands, replicating ``PrecisionOps.linear_det`` byte-for-byte.
    ``block`` engages the fixed-block contraction of the row-shardable
    linears (out-projection, fc2) — see ``det_matmul(..., block=True)``."""
    w = weight.data
    b = None if bias is None else bias.data
    if ops.passthrough:
        if b is None:
            return lambda x: det_matmul(x, w, block=block)
        return lambda x: det_matmul(x, w, block=block) + b
    wq = ops.weight(w)
    bq = None if b is None else ops.weight(b)
    accum, act = ops.accum, ops.act
    if bq is None:
        return lambda x: act(accum(det_matmul(x, wq, block=block)))
    return lambda x: act(accum(det_matmul(x, wq, block=block)) + bq)


def _norm_closure(norm, ops):
    """Replicate ``LayerNorm.forward`` in eval mode (backward cache elided).

    The normalizer module and its parameters are read per call so an
    ``iterl2norm`` swap or an in-place gamma/beta update is picked up even
    between plan rebuilds.
    """
    act = ops.act
    eps = norm.eps

    def run(x):
        ev = norm.eval_normalizer
        if ev is not None:
            return act(ev(x))
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        return act(norm.gamma.data * ((x - mean) * inv_std) + norm.beta.data)

    return run


class _LayerPlan:
    """Flat, attribute-lookup-free op sequence for one transformer block.

    The linear providers are ``qkv(h) -> (q, k, v)`` (before the head
    split), ``out(merged)`` and ``ffn(h2)`` (fc1 → ReLU → fc2).  They are
    plain attributes so a backend can rebind them per layer.
    """

    __slots__ = ("attn_norm", "ffn_norm", "qkv", "out", "ffn")

    def __init__(self, block, ops) -> None:
        attn = block.attention
        ffn = block.ffn
        self.attn_norm = _norm_closure(block.attn_norm, ops)
        self.ffn_norm = _norm_closure(block.ffn_norm, ops)
        q = _linear_closure(ops, attn.q_proj.weight, attn.q_proj.bias)
        k = _linear_closure(ops, attn.k_proj.weight, attn.k_proj.bias)
        v = _linear_closure(ops, attn.v_proj.weight, attn.v_proj.bias)
        fc1 = _linear_closure(ops, ffn.fc1.weight, ffn.fc1.bias)
        fc2 = _linear_closure(ops, ffn.fc2.weight, ffn.fc2.bias, block=True)
        self.qkv = lambda h: (q(h), k(h), v(h))
        self.out = _linear_closure(
            ops, attn.out_proj.weight, attn.out_proj.bias, block=True
        )
        self.ffn = lambda h2: fc2(np.maximum(fc1(h2), 0.0))


class _Plan:
    """Whole-model fused plan: embed → blocks → final norm → tied logits."""

    __slots__ = (
        "version",
        "layers",
        "embed",
        "final_norm",
        "out_proj",
        "out_proj_into",
        "attn_scores",
        "softmax",
        "ctx_matmul",
        "residual",
        "scale",
        "num_heads",
        "head_dim",
        "vocab_size",
        "max_position",
        "kv_fmt",
        "kv_quant",
    )

    def __init__(self, model) -> None:
        ops = model.ops
        config = model.config
        self.version = model._plan_version
        self.num_heads = config.num_heads
        self.head_dim = config.embed_dim // config.num_heads
        self.vocab_size = config.vocab_size
        self.max_position = config.max_position
        self.scale = 1.0 / np.sqrt(self.head_dim)

        tok_table = model.token_embedding.weight.data
        pos_table = model.position_embedding.weight.data
        w_t = tok_table.T  # tied output projection, same view reference uses
        if ops.passthrough:
            self.embed = lambda ids, pos: tok_table[ids] + pos_table[pos]
            self.out_proj = lambda h: det_matmul(h, w_t)
            self.out_proj_into = lambda h, out: np.einsum(
                "...ij,...jk->...ik", h, w_t, out=out, optimize=False
            )
            self.attn_scores = lambda q, k_t, scale: det_matmul(q, k_t) * scale
            self.softmax = det_softmax
            self.ctx_matmul = det_matmul
            self.residual = lambda a, b: a + b
        else:
            accum, act = ops.accum, ops.act
            tok_q = ops.weight(tok_table)
            pos_q = ops.weight(pos_table)
            wq_t = ops.weight(w_t)
            self.embed = lambda ids, pos: act(tok_q[ids] + pos_q[pos])
            self.out_proj = lambda h: act(accum(det_matmul(h, wq_t)))
            self.out_proj_into = None  # quantized path allocates via casters
            self.attn_scores = lambda q, k_t, scale: act(
                accum(det_matmul(q, k_t)) * scale
            )
            self.softmax = lambda s: act(det_softmax(s, axis=-1))
            self.ctx_matmul = lambda w, v: act(accum(det_matmul(w, v)))
            self.residual = lambda a, b: act(a + b)

        self.final_norm = _norm_closure(model.final_norm, ops)
        self.layers = [_LayerPlan(block, ops) for block in model.blocks]

        self.kv_fmt = resolve_kv_format(model.policy.kv_cache_fmt)
        self.kv_quant = caster(self.kv_fmt)


class _RaggedGeometry:
    """Lane/key layout of one ``forward_ragged`` batch, built once and shared
    by every layer (all layers append the same lengths).

    ``pads[r]`` is row ``r``'s count of leading pad query lanes.  ``k_ws`` /
    ``v_ws`` are the padded K/V workspaces (``None`` for a single row, which
    attends over its cache's own views).  ``causal`` is the additive causal
    mask, ``None`` when every row is a single-token decode; ``key_pad`` marks
    the pad keys past each row's history, ``None`` when every row has the
    same length; ``pad_lanes`` indexes the pad query lanes of the context,
    ``None`` when there are none.  ``mask(new_len, total_len)`` is the
    executor's causal-mask cache, which a one-row chunk reuses.
    """

    __slots__ = ("pads", "k_ws", "v_ws", "causal", "key_pad", "pad_lanes")

    def __init__(self, plan: _Plan, lens, totals, max_new: int, mask) -> None:
        batch = lens.size
        max_total = int(totals.max())
        pads = max_new - lens
        self.pads = pads.tolist()
        self.k_ws = self.v_ws = None
        self.causal = self.key_pad = self.pad_lanes = None
        if batch > 1:
            # Zero-filled, and a ``[:max_total]`` slice of a longer buffer:
            # the layout class of the caches' own views (``SequenceKV.gather``).
            shape = (batch, plan.num_heads, max_total + 1, plan.head_dim)
            self.k_ws = np.zeros(shape)[:, :, :max_total]
            self.v_ws = np.zeros(shape)[:, :, :max_total]
            if np.any(totals < max_total):
                keys = np.arange(max_total)
                self.key_pad = (keys >= totals[:, None])[:, None, None, :]
        if max_new > 1 and batch == 1 and not pads[0]:
            self.causal = mask(max_new, max_total)  # a one-row chunk: cached
        elif max_new > 1:
            # Real lane i of row r sits at absolute position
            # totals[r] - max_new + i and sees keys up to it; pad lanes see
            # every key of their row.
            lanes = np.arange(max_new)
            limit = (totals - max_new)[:, None] + lanes
            limit = np.where(lanes < pads[:, None], max_total, limit)
            future = np.arange(max_total) > limit[:, :, None]
            self.causal = np.where(future, -np.inf, 0.0)[:, None]
            if np.any(pads):
                rows, lanes = np.nonzero(lanes < pads[:, None])
                self.pad_lanes = (rows, slice(None), lanes)


class CompiledExecutor:
    """Fast backend: flat pre-fused plan, batched KV quantize, batched ragged
    attention, reused buffers.

    Byte-identical to :class:`ReferenceExecutor` under every precision
    policy (see the module docstring for why each shortcut is bit-safe).
    """

    name = "compiled"

    _MASK_CACHE_LIMIT = 512
    _BUFFER_CACHE_LIMIT = 64

    def __init__(self, model) -> None:
        self.model = model
        self._plan: _Plan | None = None
        self._masks: dict[tuple[int, int], np.ndarray] = {}
        self._logit_bufs: dict[tuple[int, ...], np.ndarray] = {}

    # -- plan lifecycle ----------------------------------------------------
    def _ensure_plan(self) -> _Plan:
        model = self.model
        if model.training:
            raise RuntimeError(
                "cached decoding requires eval mode; call model.eval() first"
            )
        if model._weights_dirty:
            model.eval()  # refresh quantized copies / normalizers, bumps version
        plan = self._plan
        if plan is None or plan.version != model._plan_version:
            plan = self._plan = _Plan(model)
            self._masks.clear()
            self._logit_bufs.clear()
        return plan

    def _mask(self, new_len: int, total_len: int) -> np.ndarray:
        key = (new_len, total_len)
        mask = self._masks.get(key)
        if mask is None:
            if len(self._masks) >= self._MASK_CACHE_LIMIT:
                self._masks.clear()
            mask = causal_mask_offset(new_len, total_len)
            self._masks[key] = mask
        return mask

    def _logits_out(self, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._logit_bufs.get(shape)
        if buf is None:
            if len(self._logit_bufs) >= self._BUFFER_CACHE_LIMIT:
                self._logit_bufs.clear()
            buf = np.empty(shape, dtype=np.float64)
            self._logit_bufs[shape] = buf
        return buf

    @staticmethod
    def _accepts_raw(views, fmt) -> bool:
        """True when every cache exposes the pre-quantized append fast path
        for exactly the plan's KV format."""
        for view in views:
            if getattr(view, "kv_fmt", _NO_FMT) != fmt or not hasattr(
                view, "append_raw"
            ):
                return False
        return True

    # -- forwards ----------------------------------------------------------
    def forward(self, token_ids):
        # The dense BLAS training/slide path is already vectorized; it is
        # shared verbatim so both backends stay bit-identical on it.
        return self.model(token_ids)

    def forward_with_cache(self, token_ids, cache, last_only=False):
        plan = self._ensure_plan()
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be 2-D, got shape {token_ids.shape}")
        batch, seq = token_ids.shape
        if seq == 0:
            raise ValueError("token_ids must contain at least one new token")
        if token_ids.min() < 0 or token_ids.max() >= plan.vocab_size:
            raise ValueError("token ids out of range for vocabulary")
        views = cache.layers
        if len(views) != len(plan.layers):
            raise ValueError(
                f"cache has {len(views)} layers, model has {len(plan.layers)}"
            )
        past = cache.seq_len
        if past + seq > plan.max_position:
            raise ValueError(
                f"sequence length {past + seq} exceeds max_position "
                f"{plan.max_position}"
            )
        positions = np.broadcast_to(np.arange(past, past + seq), (batch, seq))
        hidden = plan.embed(token_ids, positions)
        raw_ok = self._accepts_raw(views[:1], plan.kv_fmt)
        for lp, kv in zip(plan.layers, views):
            hidden = self._block(
                plan, lp, hidden, partial(self._attend_cached, plan, kv, raw_ok)
            )
        hidden = plan.final_norm(hidden)
        if last_only:
            hidden = hidden[:, -1:, :]
        return plan.out_proj(hidden)

    def verify_forward(self, token_ids, cache):
        logits = self.forward_with_cache(token_ids, cache, last_only=False)
        return np.argmax(logits, axis=-1)

    def forward_ragged(self, token_ids, caches, new_lens, last_only=True, last_k=1):
        plan = self._ensure_plan()
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be 2-D, got shape {token_ids.shape}")
        batch, max_new = token_ids.shape
        lens = np.asarray(new_lens, dtype=np.int64)
        caches = list(caches)
        if lens.shape != (batch,) or len(caches) != batch:
            raise ValueError("token_ids, caches and new_lens must agree on batch")
        if np.any(lens < 1) or np.any(lens > max_new):
            raise ValueError(f"new_lens must be in [1, {max_new}], got {lens}")
        if token_ids.size and (
            token_ids.min() < 0 or token_ids.max() >= plan.vocab_size
        ):
            raise ValueError("token ids out of range for vocabulary")
        if last_k < 1 or last_k > max_new:
            raise ValueError(f"last_k must be in [1, {max_new}], got {last_k}")
        num_layers = len(plan.layers)
        for r, cache in enumerate(caches):
            if len(cache.layers) != num_layers:
                raise ValueError(
                    f"row {r}: cache has {len(cache.layers)} layers, "
                    f"model has {num_layers}"
                )
        pasts = np.array([cache.seq_len for cache in caches], dtype=np.int64)
        totals = pasts + lens
        if np.any(totals > plan.max_position):
            r = int(np.argmax(totals))
            raise ValueError(
                f"row {r}: length {int(totals[r])} exceeds max_position "
                f"{plan.max_position}"
            )

        offsets = np.arange(max_new)[None, :] - (max_new - lens)[:, None]
        positions = np.maximum(pasts[:, None] + offsets, 0)
        hidden = plan.embed(token_ids, positions)
        if batch:  # an empty batch has nothing to attend over
            raw_ok = self._accepts_raw(
                [cache.layers[0] for cache in caches], plan.kv_fmt
            )
            geometry = _RaggedGeometry(plan, lens, totals, max_new, self._mask)
            for i, lp in enumerate(plan.layers):
                views = [cache.layers[i] for cache in caches]
                hidden = self._block(
                    plan, lp, hidden,
                    partial(self._attend_ragged, plan, views, geometry, raw_ok),
                )
        hidden = plan.final_norm(hidden)
        if last_only:
            hidden = hidden[:, -last_k:, :]
        if plan.out_proj_into is not None:
            out = self._logits_out(hidden.shape[:-1] + (plan.vocab_size,))
            return plan.out_proj_into(hidden, out)
        return plan.out_proj(hidden)

    # -- the block body ----------------------------------------------------
    def _block(self, plan, lp, x, attend):
        """One transformer block over ``x`` of shape ``(batch, seq, embed)``.

        ``attend(q, k, v)`` is the attention core: it takes and returns
        ``(batch, heads, seq, head_dim)`` tensors.
        """
        batch, seq, _ = x.shape
        heads, head_dim = plan.num_heads, plan.head_dim
        q, k, v = (
            t.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
            for t in lp.qkv(lp.attn_norm(x))
        )
        context = attend(q, k, v)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)
        x = plan.residual(x, lp.out(merged))
        return plan.residual(x, lp.ffn(lp.ffn_norm(x)))

    def _attend_cached(self, plan, kv, raw_ok, q, k_new, v_new):
        """Attention core of ``forward_with_cache``: one batch-wide append."""
        if raw_ok:
            k_all, v_all = kv.append_raw(plan.kv_quant(k_new), plan.kv_quant(v_new))
        else:
            k_all, v_all = kv.append(k_new, v_new)
        scores = plan.attn_scores(q, k_all.transpose(0, 1, 3, 2), plan.scale)
        seq = q.shape[2]
        if seq > 1:
            scores = scores + self._mask(seq, k_all.shape[2])
        return plan.ctx_matmul(plan.softmax(scores), v_all)

    def _attend_ragged(self, plan, views, geometry, raw_ok, q, k_new, v_new):
        """Attention core of ``forward_ragged``: each row appends its real
        lanes to its own cache, then scores, mask, softmax and context run
        once over the batch padded to its longest row (see the module
        docstring for why the padding is bit-exact)."""
        if raw_ok:
            # One vectorized quantize per layer per step; per-row slices of
            # an elementwise quantize are bit-identical to per-row quantizes.
            k_new = plan.kv_quant(k_new)
            v_new = plan.kv_quant(v_new)
        pads = geometry.pads
        if geometry.k_ws is None:  # one row: attend over the cache's own views
            append = views[0].append_raw if raw_ok else views[0].append
            k_ws, v_ws = append(k_new[:, :, pads[0] :], v_new[:, :, pads[0] :])
        else:
            k_ws, v_ws = geometry.k_ws, geometry.v_ws
            for r, view in enumerate(views):
                k_r = k_new[r : r + 1, :, pads[r] :]
                v_r = v_new[r : r + 1, :, pads[r] :]
                if raw_ok:  # the cache packs its history straight into row r
                    view.append_raw(k_r, v_r, (k_ws[r : r + 1], v_ws[r : r + 1]))
                else:
                    k_all, v_all = view.append(k_r, v_r)
                    k_ws[r, :, : k_all.shape[2]] = k_all[0]
                    v_ws[r, :, : v_all.shape[2]] = v_all[0]
        scores = plan.attn_scores(q, k_ws.transpose(0, 1, 3, 2), plan.scale)
        if geometry.causal is not None:
            scores = scores + geometry.causal
        if geometry.key_pad is not None:
            scores = np.where(geometry.key_pad, -np.inf, scores)
        context = plan.ctx_matmul(plan.softmax(scores), v_ws)
        if geometry.pad_lanes is not None:
            context[geometry.pad_lanes] = 0.0
        return context


EXECUTORS = {
    ReferenceExecutor.name: ReferenceExecutor,
    CompiledExecutor.name: CompiledExecutor,
}


#: Spec-string shorthands appended to "known backends" error messages.
_SHARDED_SPEC = "sharded:N[:sim|process][:pin]"


def _known_backends() -> str:
    return ", ".join(sorted(EXECUTORS)) + f", {_SHARDED_SPEC}"


def resolve_executor(spec, model):
    """Turn a backend spec into a bound executor.

    ``None`` means the reference backend; ``"sharded:N[:driver][:pin]"``
    builds a tensor-sharded executor (see :mod:`repro.shard`); any other
    string is looked up in
    :data:`EXECUTORS`; anything else is assumed to already be an executor
    instance and returned as-is.
    """
    if spec is None:
        spec = ReferenceExecutor.name
    if isinstance(spec, str):
        if spec.startswith("sharded"):
            # Imported lazily: repro.shard imports this module's compiled
            # executor, so a top-level import would cycle.
            from repro.shard import ShardedExecutor, parse_shard_spec

            num_shards, driver, pin = parse_shard_spec(spec)
            return ShardedExecutor(model, num_shards, driver=driver, pin=pin)
        try:
            cls = EXECUTORS[spec]
        except KeyError:
            raise KeyError(
                f"unknown execution backend {spec!r} "
                f"(known: {_known_backends()})"
            )
        return cls(model)
    return spec


def validate_backend(spec) -> None:
    """Raise ``ValueError`` when a backend spec string is not resolvable.

    Benches call this before declaring their job grids so a typo surfaces
    as one usage error instead of a failure deep inside a cell.
    """
    if spec is None or not isinstance(spec, str):
        return
    if spec in EXECUTORS:
        return
    if spec.startswith("sharded"):
        from repro.shard import parse_shard_spec

        parse_shard_spec(spec)  # raises ValueError with specifics
        return
    raise ValueError(
        f"unknown --backend {spec!r} (known: {_known_backends()})"
    )
