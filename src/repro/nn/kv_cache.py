"""Per-layer key/value caches for incremental (autoregressive) decoding.

Without a cache, generating token ``n`` re-runs the attention projections of
all ``n - 1`` prefix tokens on every step — O(n^2) projection work per
generated sequence.  :class:`KVCache` stores each layer's key/value tensors
so a decode step only projects the new token(s) and attends over the cached
keys: O(n) projection work overall.

Storage grows by **amortized doubling** into preallocated buffers: appending
one token writes into spare capacity instead of reallocating and copying the
whole history (the original ``np.concatenate``-per-token scheme was O(n^2)
bytes copied per generated sequence).  ``realloc_count`` exposes how many
buffer (re)allocations actually happened, which the tests pin to O(log n).

The cached path is *bit-exact* with respect to a full re-prefill: both run
through :func:`repro.nn.functional.det_matmul`, whose accumulation order
does not depend on how many rows are computed at once (a property the test
suite asserts).  Preallocation does not disturb this: appended values are
copied bytes, never recomputed.

For serving many concurrent requests, :mod:`repro.serve.kv_pool` builds on
the same append/gather protocol but allocates block-granular storage from a
shared pool so that retired requests return their blocks for reuse.
"""

from __future__ import annotations

import numpy as np

from repro.fpformats.spec import FLOAT64, FloatFormat, get_format
from repro.precision.ops import caster

#: Initial per-layer buffer capacity (token positions) when the first append
#: is smaller than this; larger first appends size the buffer exactly and
#: leave headroom for the first doubling.
_MIN_CAPACITY = 16


def resolve_kv_format(fmt: str | FloatFormat | None) -> FloatFormat | None:
    """Normalize a KV-cache storage format; ``None``/``fp64`` mean unquantized."""
    if fmt is None:
        return None
    fmt = get_format(fmt)
    return None if fmt == FLOAT64 else fmt


class LayerKVCache:
    """Key/value tensors of one attention layer.

    Logical arrays have shape ``(batch, num_heads, seq, head_dim)`` and grow
    along the ``seq`` axis as tokens are appended.  Backing buffers are
    preallocated with geometric (doubling) growth, so ``append`` is
    amortized O(new) instead of O(seq).

    ``fmt`` (from the model's precision policy ``kv_cache_fmt``) quantizes
    K/V round-to-nearest-even **on write**, emulating a cache held in a
    narrower format than the activations.  Quantization is elementwise and
    happens before storage, so the incremental-equals-prefill bit-exactness
    guarantee is preserved under every policy: both paths write, and later
    read back, identical quantized bytes.
    """

    def __init__(self, fmt: str | FloatFormat | None = None) -> None:
        self._fmt = resolve_kv_format(fmt)
        self._cast = caster(self._fmt)
        self._k_buf: np.ndarray | None = None
        self._v_buf: np.ndarray | None = None
        self._len = 0
        #: Number of buffer (re)allocations performed so far.  Appending n
        #: tokens one at a time causes O(log n) reallocations, a property
        #: the regression tests assert.
        self.realloc_count = 0

    @property
    def seq_len(self) -> int:
        """Number of cached token positions (0 when empty)."""
        return self._len

    @property
    def kv_fmt(self) -> FloatFormat | None:
        """Storage format K/V are quantized to on write (``None`` = fp64)."""
        return self._fmt

    @property
    def capacity(self) -> int:
        """Allocated token positions (>= :attr:`seq_len`)."""
        return 0 if self._k_buf is None else self._k_buf.shape[2]

    @property
    def k(self) -> np.ndarray | None:
        """View of the cached keys, ``None`` when empty."""
        return None if self._k_buf is None else self._k_buf[:, :, : self._len]

    @property
    def v(self) -> np.ndarray | None:
        """View of the cached values, ``None`` when empty."""
        return None if self._v_buf is None else self._v_buf[:, :, : self._len]

    def _grow(self, batch: int, heads: int, head_dim: int, needed: int) -> None:
        # Strictly more capacity than needed: the returned k/v views must
        # never cover the whole buffer, so their memory-layout class (strided
        # view) is the same for every append pattern.  NumPy's einsum and
        # reduction kernels pick accumulation loops by layout class; keeping
        # the class fixed keeps incremental-vs-prefill results bit-identical
        # (see the KV-cache exactness tests).
        new_capacity = max(needed + 1, 2 * self.capacity, _MIN_CAPACITY)
        k_buf = np.empty((batch, heads, new_capacity, head_dim), dtype=np.float64)
        v_buf = np.empty_like(k_buf)
        if self._k_buf is not None:
            k_buf[:, :, : self._len] = self._k_buf[:, :, : self._len]
            v_buf[:, :, : self._len] = self._v_buf[:, :, : self._len]
        self._k_buf, self._v_buf = k_buf, v_buf
        self.realloc_count += 1

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append new key/value tensors; returns views of the full (k, v) so far."""
        if k.shape != v.shape:
            raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
        if k.ndim != 4:
            raise ValueError(f"expected (batch, heads, seq, head_dim), got {k.shape}")
        batch, heads, new, head_dim = k.shape
        if self._k_buf is not None:
            if batch != self._k_buf.shape[0] or heads != self._k_buf.shape[1]:
                raise ValueError(
                    f"cache holds {self.k.shape}, cannot append {k.shape}"
                )
        return self._write(self._cast(k), self._cast(v))

    def append_raw(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append K/V that are **already** in :attr:`kv_fmt` storage bytes.

        Fast path for executors that quantize a whole step's K/V in one
        vectorized call and append per-row slices: validation and the
        per-call quantize are skipped.  Because :func:`quantize` is
        elementwise and idempotent, the bytes written here are identical to
        routing the raw values through :meth:`append`.
        """
        return self._write(k, v)

    def _write(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        batch, heads, new, head_dim = k.shape
        if self._len + new > self.capacity:
            self._grow(batch, heads, head_dim, self._len + new)
        self._k_buf[:, :, self._len : self._len + new] = k
        self._v_buf[:, :, self._len : self._len + new] = v
        self._len += new
        return self.k, self.v

    def select_rows(self, rows: np.ndarray) -> None:
        """Keep only the given batch rows (used when sequences retire early).

        ``rows`` is any NumPy fancy index over the batch axis; the cached
        values of the surviving rows are preserved bit-for-bit.
        """
        if self._k_buf is not None:
            self._k_buf = self._k_buf[rows]
            self._v_buf = self._v_buf[rows]

    def truncate(self, length: int) -> None:
        """Roll back to the first ``length`` cached positions.

        Speculative decoding appends draft-token K/V optimistically and
        discards the rejected tail; truncation only moves the logical
        length, so the surviving positions keep their exact bytes and a
        subsequent append overwrites the dead region — rollback followed
        by re-append is bit-identical to never having appended at all
        (the KV rollback tests pin this).
        """
        length = int(length)
        if not 0 <= length <= self._len:
            raise ValueError(
                f"cannot truncate to {length}: cache holds {self._len} positions"
            )
        self._len = length


class KVCache:
    """A stack of :class:`LayerKVCache` entries, one per decoder block.

    Create one per generation run via :meth:`for_model` (or directly with
    the layer count) and pass it to
    :meth:`repro.nn.model.OPTLanguageModel.forward_with_cache`.
    ``kv_fmt`` quantizes K/V on write; :meth:`for_model` reads it from the
    model's precision policy.
    """

    def __init__(self, num_layers: int, kv_fmt: str | FloatFormat | None = None) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.layers = [LayerKVCache(fmt=kv_fmt) for _ in range(num_layers)]

    @classmethod
    def for_model(cls, model) -> "KVCache":
        """An empty cache sized for ``model``'s decoder stack and policy."""
        policy = getattr(model.config, "policy", None)
        kv_fmt = None if policy is None else policy.kv_cache_fmt
        return cls(len(model.blocks), kv_fmt=kv_fmt)

    @property
    def seq_len(self) -> int:
        """Number of token positions already processed through the cache."""
        return self.layers[0].seq_len

    def select_rows(self, rows: np.ndarray) -> None:
        """Keep only the given batch rows in every layer."""
        for layer in self.layers:
            layer.select_rows(rows)

    def truncate(self, length: int) -> None:
        """Roll every layer back to ``length`` positions (draft rejection)."""
        for layer in self.layers:
            layer.truncate(length)

    def __len__(self) -> int:
        return len(self.layers)
