"""Masked multi-head self-attention (the paper's decoder sub-block)."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import (
    causal_mask,
    causal_mask_offset,
    softmax_backward,
)
from repro.nn.kv_cache import LayerKVCache
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.precision.ops import PASSTHROUGH_OPS


class MultiHeadSelfAttention(Module):
    """Causal multi-head self-attention with separate Q/K/V/O projections.

    Parameters
    ----------
    embed_dim:
        Model (embedding) dimension ``d_model``.
    num_heads:
        Number of attention heads; must divide ``embed_dim``.
    dropout:
        Dropout probability applied to the attention weights while training.
    rng:
        Random generator used for weight initialization and dropout.
    """

    #: Policy-aware op layer; replaced by the owning model's ``set_policy``.
    ops = PASSTHROUGH_OPS

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim {embed_dim} must be divisible by num_heads {num_heads}"
            )
        rng = rng or np.random.default_rng()
        self.embed_dim = int(embed_dim)
        self.num_heads = int(num_heads)
        self.head_dim = embed_dim // num_heads

        self.q_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.k_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.v_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.out_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)
        self._cache: dict[str, np.ndarray] | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(batch, seq, d_model) -> (batch, heads, seq, head_dim)."""
        b, s, _ = x.shape
        return x.reshape(b, s, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(batch, heads, seq, head_dim) -> (batch, seq, d_model)."""
        b, h, s, hd = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, s, h * hd)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[-1] != self.embed_dim:
            raise ValueError(
                f"expected input of shape (batch, seq, {self.embed_dim}), got {x.shape}"
            )
        b, s, _ = x.shape
        # Training always runs the exact float64 path; evaluation routes
        # through the policy's op layer (a passthrough under fp64-ref).
        ops = PASSTHROUGH_OPS if self.training else self.ops
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = ops.attn_scores(q, k.transpose(0, 1, 3, 2), scale) + causal_mask(s)
        weights = ops.softmax(scores, axis=-1)
        weights_dropped = self.attn_dropout(weights)
        context = ops.matmul(weights_dropped, v)
        out = self.out_proj(self._merge_heads(context))

        self._cache = {
            "q": q,
            "k": k,
            "v": v,
            "weights": weights,
            "weights_dropped": weights_dropped,
            "scale": np.asarray(scale),
        }
        return out

    def forward_cached(self, x: np.ndarray, kv: LayerKVCache) -> np.ndarray:
        """Inference-only forward that appends to and attends over ``kv``.

        ``x`` holds only the *new* token positions ``(batch, new_seq, d)``;
        keys/values of earlier positions come from the cache.  Runs entirely
        through :func:`~repro.nn.functional.det_matmul`, so the output for a
        token is bit-identical whether it is decoded incrementally or as
        part of a full-prefix prefill.  Dropout is skipped (eval-time path)
        and nothing is cached for backward.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[-1] != self.embed_dim:
            raise ValueError(
                f"expected input of shape (batch, seq, {self.embed_dim}), got {x.shape}"
            )
        _, s, _ = x.shape
        ops = self.ops
        q = self._split_heads(self.q_proj.forward_det(x))
        k_new = self._split_heads(self.k_proj.forward_det(x))
        v_new = self._split_heads(self.v_proj.forward_det(x))
        k_all, v_all = kv.append(k_new, v_new)
        total = k_all.shape[2]

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = ops.attn_scores_det(q, k_all.transpose(0, 1, 3, 2), scale)
        scores = scores + causal_mask_offset(s, total)
        weights = ops.det_softmax(scores, axis=-1)
        context = ops.matmul_det(weights, v_all)
        return self.out_proj.forward_det(self._merge_heads(context))

    def forward_ragged(
        self, x: np.ndarray, kvs, new_lens: np.ndarray
    ) -> np.ndarray:
        """Masked ragged-batch forward over left-padded new tokens.

        ``x`` is ``(batch, max_new, d)`` with each row's ``new_lens[r]``
        real tokens right-aligned (leading positions are pad lanes).
        ``kvs`` is a sequence of per-row single-sequence caches — anything
        with the :meth:`~repro.nn.kv_cache.LayerKVCache.append` protocol
        returning ``(k_all, v_all)`` of shape ``(1, heads, total, head_dim)``
        (a :class:`~repro.nn.kv_cache.LayerKVCache` or a pooled layer view
        from :mod:`repro.serve.kv_pool`).

        The Q/K/V/O projections run batched over the padded matrix — safe,
        because :func:`~repro.nn.functional.det_matmul` makes every output
        element an independent dot product.  The attention contraction is
        the one place the pad mask matters (see
        :func:`~repro.nn.functional.ragged_attention_mask`, which defines
        the semantics and states when a padded computation is exact).  This
        reference kernel computes each row's scores/softmax/context over
        exactly that row's keys, so a row's output is bit-identical to
        :meth:`forward_cached` on that row alone — the guarantee the
        continuous-batching server's exactness tests pin down.  It is the
        oracle for the compiled backend, which runs the core once over the
        padded batch.

        Pad lanes of the output carry garbage (never NaN) and must be
        ignored by the caller; every downstream op is per-token, so they
        cannot contaminate real lanes.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[-1] != self.embed_dim:
            raise ValueError(
                f"expected input of shape (batch, seq, {self.embed_dim}), got {x.shape}"
            )
        new_lens = np.asarray(new_lens, dtype=np.int64)
        batch, max_new, _ = x.shape
        if new_lens.shape != (batch,) or len(kvs) != batch:
            raise ValueError(
                f"need one kv cache and one new_len per row, got batch={batch}, "
                f"len(kvs)={len(kvs)}, new_lens shape {new_lens.shape}"
            )
        if np.any(new_lens < 1) or np.any(new_lens > max_new):
            raise ValueError(f"new_lens must be in [1, {max_new}], got {new_lens}")

        ops = self.ops
        q = self._split_heads(self.q_proj.forward_det(x))
        k_new = self._split_heads(self.k_proj.forward_det(x))
        v_new = self._split_heads(self.v_proj.forward_det(x))

        scale = 1.0 / np.sqrt(self.head_dim)
        context = np.zeros_like(q)
        for r, kv in enumerate(kvs):
            n = int(new_lens[r])
            pad = max_new - n
            k_all, v_all = kv.append(
                k_new[r : r + 1, :, pad:], v_new[r : r + 1, :, pad:]
            )
            total = k_all.shape[2]
            scores = ops.attn_scores_det(
                q[r : r + 1, :, pad:], k_all.transpose(0, 1, 3, 2), scale
            )
            scores = scores + causal_mask_offset(n, total)
            weights = ops.det_softmax(scores, axis=-1)
            context[r : r + 1, :, pad:] = ops.matmul_det(weights, v_all)
        return self.out_proj.forward_det(self._merge_heads(context))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        q, k, v = cache["q"], cache["k"], cache["v"]
        weights = cache["weights"]
        weights_dropped = cache["weights_dropped"]
        scale = float(cache["scale"])

        grad_context_merged = self.out_proj.backward(np.asarray(grad_output, dtype=np.float64))
        b, s, _ = grad_context_merged.shape
        grad_context = self._split_heads(grad_context_merged)

        grad_weights_dropped = grad_context @ v.transpose(0, 1, 3, 2)
        grad_v = weights_dropped.transpose(0, 1, 3, 2) @ grad_context

        grad_weights = self.attn_dropout.backward(grad_weights_dropped)
        grad_scores = softmax_backward(grad_weights, weights, axis=-1)

        grad_q = (grad_scores @ k) * scale
        grad_k = (grad_scores.transpose(0, 1, 3, 2) @ q) * scale

        grad_x = self.q_proj.backward(self._merge_heads(grad_q))
        grad_x = grad_x + self.k_proj.backward(self._merge_heads(grad_k))
        grad_x = grad_x + self.v_proj.backward(self._merge_heads(grad_v))
        return grad_x
