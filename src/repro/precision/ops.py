"""Policy-aware quantizing op layer for the transformer substrate.

Every evaluation-time op of :mod:`repro.nn` routes through one of these two
implementations, selected by :func:`make_ops` from the model's
:class:`~repro.precision.policy.PrecisionPolicy`:

* :class:`PassthroughOps` (the ``fp64-ref`` policy) calls the existing
  float64 kernels *verbatim* — same functions, same operation order, zero
  added arithmetic — so every bit-exactness guarantee of the cached /
  ragged decode paths is preserved unchanged.
* :class:`QuantizedOps` emulates a reduced-precision datapath: matmul
  results round to the accumulation format, every stored tensor rounds to
  the activation format, and parameters round to the weight format before
  use (as a register of that width would hold them).

All quantizations are *elementwise* round-to-nearest-even (the format's
bound :func:`caster`) layered over the deterministic
kernels (:func:`~repro.nn.functional.det_matmul`,
:func:`~repro.nn.functional.det_softmax`), so the shape-independence that
makes incremental decoding bit-identical to prefill — and served tokens
bit-identical to :func:`~repro.nn.generation.generate` — holds under every
policy, not just the float64 reference.  Training always runs the exact
float64 path; policies only shape evaluation.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from repro.fpformats.quantize import quantize, rounder
from repro.fpformats.spec import FLOAT64, FloatFormat, get_format

#: Lazily bound :mod:`repro.nn.functional` — importing it at module load
#: would close an import cycle (nn.layers imports this module for the
#: passthrough singleton, while the kernels live under ``repro.nn``).
_F = None


def _fn():
    global _F
    if _F is None:
        from repro.nn import functional

        _F = functional
    return _F


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def caster(fmt: FloatFormat | str | None) -> Callable[[np.ndarray], np.ndarray]:
    """The activation/accumulator/KV cast to ``fmt``: its bound
    :func:`~repro.fpformats.quantize.rounder` (bytes of :func:`quantize`, C
    order out), or the identity for ``fp64``/``None``."""
    if fmt is None or get_format(fmt) == FLOAT64:
        return _identity
    return rounder(fmt)


class PassthroughOps:
    """The ``fp64-ref`` datapath: existing float64 kernels, verbatim."""

    passthrough = True

    weight = staticmethod(_identity)
    act = staticmethod(_identity)
    accum = staticmethod(_identity)
    kv = staticmethod(_identity)

    @staticmethod
    def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
        return _fn().softmax(x, axis=axis)

    @staticmethod
    def det_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
        return _fn().det_softmax(x, axis=axis)

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    @staticmethod
    def matmul_det(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _fn().det_matmul(a, b)

    @staticmethod
    def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
        out = x @ w
        return out if b is None else out + b

    @staticmethod
    def linear_det(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
        out = _fn().det_matmul(x, w)
        return out if b is None else out + b

    @staticmethod
    def attn_scores(q: np.ndarray, k_t: np.ndarray, scale: float) -> np.ndarray:
        return (q @ k_t) * scale

    @staticmethod
    def attn_scores_det(q: np.ndarray, k_t: np.ndarray, scale: float) -> np.ndarray:
        return _fn().det_matmul(q, k_t) * scale

    @staticmethod
    def residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    @staticmethod
    def embed(
        tok_table: np.ndarray,
        pos_table: np.ndarray,
        token_ids: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        return tok_table[token_ids] + pos_table[positions]

    @staticmethod
    def clear_weight_cache() -> None:
        """No-op: the passthrough holds no quantized copies."""


#: Shared singleton; the default ``ops`` of every module until a policy is set.
PASSTHROUGH_OPS = PassthroughOps()


class QuantizedOps:
    """Reduced-precision datapath emulation for one policy.

    Each cast is skipped entirely when its format is ``fp64``, so a policy
    like ``fp16`` (fp32 accumulation) pays exactly the quantizations its
    hardware analogue performs and nothing more.

    Weights are frozen during evaluation, so :meth:`weight` memoizes the
    quantized copy of each parameter array (keyed by its base buffer, so a
    transposed view like the tied projection ``E.T`` hits the same entry
    every call).  :meth:`~repro.nn.model.OPTLanguageModel.eval` clears the
    memo, so weights touched by further training are re-quantized on the
    next evaluation.
    """

    passthrough = False

    def __init__(self, policy) -> None:
        self.policy = policy
        weight_fmt = get_format(policy.weight_fmt)
        self._weight_fmt = None if weight_fmt == FLOAT64 else weight_fmt
        self.act = caster(policy.activation_fmt)
        self.accum = caster(policy.accumulation_fmt)
        self.kv = caster(policy.kv_cache_fmt)
        # (id(base), data ptr, shape, strides) -> (weakref to base,
        # quantized array).  The data pointer distinguishes overlapping
        # equal-shape slices of one buffer; the weakref guards against
        # id() reuse after the source is freed.
        self._weight_cache: dict = {}

    def weight(self, w: np.ndarray) -> np.ndarray:
        """Quantized copy of a parameter array, memoized per base buffer."""
        if self._weight_fmt is None:
            return w
        base = w.base if w.base is not None else w
        key = (id(base), w.__array_interface__["data"][0], w.shape, w.strides)
        entry = self._weight_cache.get(key)
        if entry is not None and entry[0]() is base:
            return entry[1]
        quantized = quantize(w, self._weight_fmt)
        self._weight_cache[key] = (weakref.ref(base), quantized)
        return quantized

    def clear_weight_cache(self) -> None:
        """Drop memoized quantized weights (weights may have changed)."""
        self._weight_cache.clear()

    # -- fused ops (accumulate wide, round, store in activation format) ------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.act(self.accum(a @ b))

    def matmul_det(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.act(self.accum(_fn().det_matmul(a, b)))

    def linear(self, x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
        out = self.accum(x @ self.weight(w))
        if b is not None:
            out = out + self.weight(b)
        return self.act(out)

    def linear_det(
        self, x: np.ndarray, w: np.ndarray, b: np.ndarray | None
    ) -> np.ndarray:
        out = self.accum(_fn().det_matmul(x, self.weight(w)))
        if b is not None:
            out = out + self.weight(b)
        return self.act(out)

    def attn_scores(self, q: np.ndarray, k_t: np.ndarray, scale: float) -> np.ndarray:
        return self.act(self.accum(q @ k_t) * scale)

    def attn_scores_det(
        self, q: np.ndarray, k_t: np.ndarray, scale: float
    ) -> np.ndarray:
        return self.act(self.accum(_fn().det_matmul(q, k_t)) * scale)

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self.act(_fn().softmax(x, axis=axis))

    def det_softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self.act(_fn().det_softmax(x, axis=axis))

    def residual(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.act(a + b)

    def embed(
        self,
        tok_table: np.ndarray,
        pos_table: np.ndarray,
        token_ids: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        # Quantize the (stable, memoizable) tables, then index: elementwise
        # rounding commutes with the lookup, so this is bit-identical to
        # quantizing each looked-up row while quantizing once per table.
        return self.act(
            self.weight(tok_table)[token_ids] + self.weight(pos_table)[positions]
        )


def requantize_blocks(
    k: np.ndarray, v: np.ndarray, fmt
) -> tuple[np.ndarray, np.ndarray]:
    """Re-quantize a stacked batch of KV blocks to ``fmt`` in one pass.

    ``k``/``v`` stack any number of blocks along axis 0 (the tiered KV
    pool passes ``pool._k[ids]``).  ``fmt`` is a resolved
    :class:`~repro.fpformats.spec.FloatFormat` or ``None`` for raw
    float64 (a pure victim copy).  Quantization is the same elementwise
    round-to-nearest-even applied on the KV write path, so demoting
    bytes already stored in ``fmt`` is the identity — the property that
    makes demote-then-promote byte-exact for a matching tier format.
    """
    if fmt is None:
        return k.copy(), v.copy()
    return quantize(k, fmt), quantize(v, fmt)


def ops_compatible(ops, policy) -> bool:
    """True when ``ops`` already implements ``policy``'s datapath formats.

    Normalizer fields are irrelevant here — the op layer only encodes the
    four formats — so swapping normalizers (``replace_layernorm`` in a
    sweep loop) can keep the existing ops, including its warm weight memo.
    """
    if policy.is_passthrough:
        return ops.passthrough
    if ops.passthrough:
        return False
    current = ops.policy
    return (
        current.weight_fmt == policy.weight_fmt
        and current.activation_fmt == policy.activation_fmt
        and current.accumulation_fmt == policy.accumulation_fmt
        and current.kv_cache_fmt == policy.kv_cache_fmt
    )


def make_ops(policy, reuse=None) -> "PassthroughOps | QuantizedOps":
    """The op layer for ``policy``: the shared passthrough, or a quantizer.

    Pass the current op layer as ``reuse`` to keep it (and its memoized
    quantized weights) when it already matches the policy's formats.
    """
    if reuse is not None and ops_compatible(reuse, policy):
        return reuse
    if policy.is_passthrough:
        return PASSTHROUGH_OPS
    return QuantizedOps(policy)
