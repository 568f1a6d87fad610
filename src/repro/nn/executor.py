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
    * caches causal ragged masks keyed ``(new_len, total_len)`` and skips
      the mask entirely for single-token rows (see note below);
    * batches the quantize-on-write KV path — one vectorized quantize per
      layer per step instead of one per row — and hands pre-quantized
      slices to the caches through their ``append_raw`` fast path;
    * reuses a preallocated context workspace across layers and a logits
      output buffer across steps on the ragged path.

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
* KV quantization is elementwise, so quantizing the whole ``(batch, heads,
  max_new, head_dim)`` tensor once and appending per-row slices writes the
  same bytes as quantizing each row separately.  The ``append_raw`` gate
  falls back to plain ``append`` (which re-quantizes) when a cache does not
  expose the fast path; quantize is idempotent, so the fallback is bit-safe.
* Single-token rows skip the mask add: ``causal_mask_offset(1, total)`` is
  all zeros, and adding ``+0.0`` can only flip ``-0.0`` to ``+0.0``.  The
  only consumer is ``det_softmax``, where ``exp(±0.0) == 1.0`` bitwise, so
  the skip cannot change a downstream byte.
* The context workspace is allocated per ``(batch, max_new)`` shape, exactly
  mirroring the reference ``np.zeros_like(q)`` layout (a transposed view of
  a C-contiguous buffer); stale pad lanes are never read because pad lanes
  never enter attention and every other op is per-position.

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
from repro.fpformats.quantize import quantize

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
        if self.kv_fmt is None:
            self.kv_quant = None
        else:
            fmt = self.kv_fmt
            self.kv_quant = lambda x: quantize(x, fmt)


class CompiledExecutor:
    """Fast backend: flat pre-fused plan, batched KV quantize, reused buffers.

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
        self._ctx_bufs: dict[tuple[int, int], np.ndarray] = {}
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
            self._ctx_bufs.clear()
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

    def _context(self, plan: _Plan, batch: int, max_new: int) -> np.ndarray:
        """A ``(batch, heads, max_new, head_dim)`` workspace laid out exactly
        like the reference ``np.zeros_like(q)`` (transposed C-contiguous)."""
        key = (batch, max_new)
        buf = self._ctx_bufs.get(key)
        if buf is None:
            if len(self._ctx_bufs) >= self._BUFFER_CACHE_LIMIT:
                self._ctx_bufs.clear()
            buf = np.empty(
                (batch, max_new, plan.num_heads, plan.head_dim), dtype=np.float64
            )
            self._ctx_bufs[key] = buf
        return buf.transpose(0, 2, 1, 3)

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
        hidden, caches, lens, raw_ok, ctx = self._ragged_prologue(
            plan, token_ids, caches, new_lens, last_k
        )
        for i, lp in enumerate(plan.layers):
            views = [cache.layers[i] for cache in caches]
            hidden = self._block(
                plan, lp, hidden,
                partial(self._attend_ragged, plan, views, lens, ctx, raw_ok),
            )
        hidden = plan.final_norm(hidden)
        if last_only:
            hidden = hidden[:, -last_k:, :]
        if plan.out_proj_into is not None:
            out = self._logits_out(hidden.shape[:-1] + (plan.vocab_size,))
            return plan.out_proj_into(hidden, out)
        return plan.out_proj(hidden)

    def _ragged_prologue(self, plan, token_ids, caches, new_lens, last_k):
        """Validate and embed one left-padded ragged step.

        Every ragged forward on a compiled plan starts here, so malformed
        input fails with the same ``ValueError`` on each of them.  Returns
        ``(hidden, caches, lens, raw_ok, ctx)``: the embedded batch, the
        caches as a list, per-row new lengths, whether the caches take
        pre-quantized appends, and the context workspace.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be 2-D, got shape {token_ids.shape}")
        batch, max_new = token_ids.shape
        if token_ids.min() < 0 or token_ids.max() >= plan.vocab_size:
            raise ValueError("token ids out of range for vocabulary")
        lens = [int(n) for n in new_lens]
        caches = list(caches)
        if len(lens) != batch or len(caches) != batch:
            raise ValueError("token_ids, caches and new_lens must agree on batch")
        if last_k < 1 or last_k > max_new:
            raise ValueError(f"last_k must be in [1, {max_new}], got {last_k}")
        num_layers = len(plan.layers)
        pasts = np.empty(batch, dtype=np.int64)
        for r, cache in enumerate(caches):
            n = lens[r]
            if not 1 <= n <= max_new:
                raise ValueError(f"new_lens[{r}]={n} outside [1, {max_new}]")
            if len(cache.layers) != num_layers:
                raise ValueError(
                    f"row {r}: cache has {len(cache.layers)} layers, "
                    f"model has {num_layers}"
                )
            past = cache.seq_len
            if past + n > plan.max_position:
                raise ValueError(
                    f"row {r}: length {past + n} exceeds max_position "
                    f"{plan.max_position}"
                )
            pasts[r] = past

        offsets = np.arange(max_new)[None, :] - (
            max_new - np.asarray(lens, dtype=np.int64)
        )[:, None]
        positions = np.maximum(pasts[:, None] + offsets, 0)
        hidden = plan.embed(token_ids, positions)
        raw_ok = self._accepts_raw(
            [cache.layers[0] for cache in caches], plan.kv_fmt
        )
        return hidden, caches, lens, raw_ok, self._context(plan, batch, max_new)

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
            if plan.kv_quant is not None:
                k_new = plan.kv_quant(k_new)
                v_new = plan.kv_quant(v_new)
            k_all, v_all = kv.append_raw(k_new, v_new)
        else:
            k_all, v_all = kv.append(k_new, v_new)
        scores = plan.attn_scores(q, k_all.transpose(0, 1, 3, 2), plan.scale)
        seq = q.shape[2]
        if seq > 1:
            scores = scores + self._mask(seq, k_all.shape[2])
        return plan.ctx_matmul(plan.softmax(scores), v_all)

    def _attend_ragged(self, plan, views, lens, ctx, raw_ok, q, k_new, v_new):
        """Attention core of ``forward_ragged``: each row appends and attends
        over its right-aligned real lanes only, writing into ``ctx``."""
        max_new = q.shape[2]
        if raw_ok and plan.kv_quant is not None:
            # One vectorized quantize per layer per step; per-row slices of
            # an elementwise quantize are bit-identical to per-row quantizes.
            k_new = plan.kv_quant(k_new)
            v_new = plan.kv_quant(v_new)
        attn_scores, softmax, ctx_matmul = (
            plan.attn_scores,
            plan.softmax,
            plan.ctx_matmul,
        )
        scale = plan.scale
        for r, view in enumerate(views):
            n = lens[r]
            pad = max_new - n
            append = view.append_raw if raw_ok else view.append
            k_all, v_all = append(k_new[r : r + 1, :, pad:], v_new[r : r + 1, :, pad:])
            scores = attn_scores(q[r : r + 1, :, pad:], k_all.transpose(0, 1, 3, 2), scale)
            if n > 1:
                scores = scores + self._mask(n, k_all.shape[2])
            ctx[r : r + 1, :, pad:] = ctx_matmul(softmax(scores), v_all)
        return ctx


EXECUTORS = {
    ReferenceExecutor.name: ReferenceExecutor,
    CompiledExecutor.name: CompiledExecutor,
}


#: Spec-string shorthands appended to "known backends" error messages.
_SHARDED_SPEC = "sharded:N[:sim|process][:pin]"
_PIPELINE_SPEC = "pipeline:P[+sharded:N][:sim|process][:pin]"


def _known_backends() -> str:
    return ", ".join(sorted(EXECUTORS)) + f", {_SHARDED_SPEC}, {_PIPELINE_SPEC}"


def resolve_executor(spec, model):
    """Turn a backend spec into a bound executor.

    ``None`` means the reference backend; ``"sharded:N[:driver][:pin]"``
    builds a tensor-sharded executor and
    ``"pipeline:P[+sharded:N][:driver][:pin]"`` a pipeline-parallel one
    (see :mod:`repro.shard`); any other string is looked up in
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
        if spec.startswith("pipeline"):
            from repro.shard import PipelinedExecutor, parse_pipeline_spec

            num_stages, num_shards, driver, pin = parse_pipeline_spec(spec)
            return PipelinedExecutor(
                model, num_stages, num_shards=num_shards, driver=driver,
                pin=pin,
            )
        try:
            cls = EXECUTORS[spec]
        except KeyError:
            raise KeyError(
                f"unknown execution backend {spec!r} "
                f"(known: {_known_backends()})"
            )
        return cls(model)
    return spec


def validate_backend(spec, num_layers=None) -> None:
    """Raise ``ValueError`` when a backend spec string is not resolvable.

    Benches call this before declaring their job grids so a typo surfaces
    as one usage error instead of a failure deep inside a cell.  When the
    bench knows its model's depth it passes ``num_layers`` so an oversized
    pipeline stage count fails here too.
    """
    if spec is None or not isinstance(spec, str):
        return
    if spec in EXECUTORS:
        return
    if spec.startswith("sharded"):
        from repro.shard import parse_shard_spec

        parse_shard_spec(spec)  # raises ValueError with specifics
        return
    if spec.startswith("pipeline"):
        from repro.shard import parse_pipeline_spec

        num_stages, _, _, _ = parse_pipeline_spec(spec)
        if num_layers is not None and num_stages > num_layers:
            raise ValueError(
                f"pipeline stage count {num_stages} exceeds the model's "
                f"{num_layers} decoder layers"
            )
        return
    raise ValueError(
        f"unknown --backend {spec!r} (known: {_known_backends()})"
    )
