"""Pre-LN transformer decoder block (the OPT layout the paper evaluates).

Each decoder of OPT consists of a masked multi-head attention sub-block and a
feed-forward sub-block, each preceded by layer normalization and wrapped in a
residual connection — the "layer normalization follows each of multi-head
attention and feed-forward network blocks" structure the paper targets for
on-chip normalization.
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.functional import relu, relu_backward
from repro.nn.kv_cache import LayerKVCache
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module
from repro.precision.ops import PASSTHROUGH_OPS


class FeedForward(Module):
    """Position-wise feed-forward network with ReLU (OPT's activation)."""

    def __init__(
        self,
        embed_dim: int,
        ffn_dim: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng()
        self.fc1 = Linear(embed_dim, ffn_dim, rng=rng)
        self.fc2 = Linear(ffn_dim, embed_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self._cache_pre_act: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        pre_act = self.fc1(x)
        self._cache_pre_act = pre_act
        hidden = self.dropout(relu(pre_act))
        return self.fc2(hidden)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_pre_act is None:
            raise RuntimeError("backward called before forward")
        grad_hidden = self.fc2.backward(np.asarray(grad_output, dtype=np.float64))
        grad_hidden = self.dropout.backward(grad_hidden)
        grad_pre_act = relu_backward(grad_hidden, self._cache_pre_act)
        return self.fc1.backward(grad_pre_act)

    def forward_det(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward with shape-independent accumulation."""
        return self.fc2.forward_det(relu(self.fc1.forward_det(x)))


class TransformerDecoderBlock(Module):
    """One pre-LN decoder block: LN -> attention -> residual, LN -> FFN -> residual."""

    #: Policy-aware op layer; replaced by the owning model's ``set_policy``.
    ops = PASSTHROUGH_OPS

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        ffn_dim: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng()
        self.attn_norm = LayerNorm(embed_dim)
        self.attention = MultiHeadSelfAttention(embed_dim, num_heads, dropout=dropout, rng=rng)
        self.ffn_norm = LayerNorm(embed_dim)
        self.ffn = FeedForward(embed_dim, ffn_dim, dropout=dropout, rng=rng)
        self.residual_dropout = Dropout(dropout, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # Residual adds round to the activation format under a quantized
        # policy (evaluation only); training stays exact float64.
        ops = PASSTHROUGH_OPS if self.training else self.ops
        attn_out = self.attention(self.attn_norm(x))
        x = ops.residual(x, self.residual_dropout(attn_out))
        ffn_out = self.ffn(self.ffn_norm(x))
        return ops.residual(x, ffn_out)

    def forward_cached(self, x: np.ndarray, kv: LayerKVCache) -> np.ndarray:
        """Inference-only forward over the new positions in ``x`` using ``kv``.

        The layer norms see only the new rows (normalization is per token),
        attention appends to / reads from the cache, and the FFN runs through
        the deterministic matmul path so results match a full re-prefill
        bit-for-bit.
        """
        x = np.asarray(x, dtype=np.float64)
        attn_out = self.attention.forward_cached(self.attn_norm(x), kv)
        x = self.ops.residual(x, attn_out)
        ffn_out = self.ffn.forward_det(self.ffn_norm(x))
        return self.ops.residual(x, ffn_out)

    def forward_ragged(self, x: np.ndarray, kvs, new_lens) -> np.ndarray:
        """Ragged-batch counterpart of :meth:`forward_cached`.

        ``x`` is a left-padded ``(batch, max_new, d)`` matrix, ``kvs`` one
        per-row single-sequence layer cache, ``new_lens`` the per-row count
        of real (right-aligned) tokens.  Norms, FFN, and residuals are
        per-token, so they run batched over the padded matrix; only the
        attention kernel consults the pad structure.  Real lanes are
        bit-identical to :meth:`forward_cached` on the row alone.
        """
        x = np.asarray(x, dtype=np.float64)
        attn_out = self.attention.forward_ragged(self.attn_norm(x), kvs, new_lens)
        x = self.ops.residual(x, attn_out)
        ffn_out = self.ffn.forward_det(self.ffn_norm(x))
        return self.ops.residual(x, ffn_out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        # Second residual: x2 = x1 + ffn(ffn_norm(x1))
        grad_ffn = self.ffn.backward(grad_output)
        grad_x1 = grad_output + self.ffn_norm.backward(grad_ffn)
        # First residual: x1 = x + dropout(attn(attn_norm(x)))
        grad_attn = self.residual_dropout.backward(grad_x1)
        grad_attn = self.attention.backward(grad_attn)
        grad_x = grad_x1 + self.attn_norm.backward(grad_attn)
        return grad_x

    def layer_norms(self) -> list[LayerNorm]:
        """The two LayerNorm modules of this block (for the normalizer swap)."""
        return [self.attn_norm, self.ffn_norm]
