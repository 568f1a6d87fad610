"""Stateless neural-network functions and their gradients.

Everything here operates on float64 NumPy arrays.  Gradients are implemented
explicitly (matching the module-level backward passes) and are verified by
finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

#: sqrt(2/pi), used by the tanh approximation of GELU (the variant OPT uses
#: is the exact erf GELU; we implement both).
_GELU_CONST = np.sqrt(2.0 / np.pi)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def det_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax whose result does not depend on masked-out padding.

    :func:`softmax` computes its denominator with :func:`numpy.sum`, whose
    pairwise accumulation *groups addends by row length*: a row of ``n``
    real weights followed by trailing ``exp(-inf) = 0`` entries (a causally
    masked prefill row) can sum to a different last ulp than the same ``n``
    weights alone (an incremental decode row).  The KV-cached and ragged
    decode paths need those two to be bit-identical, so this variant
    accumulates the denominator strictly left-to-right (via ``cumsum``):
    appending zeros then never changes the sum, making the result a pure
    function of the unmasked prefix — whatever chunking produced it.  The
    test suite asserts this invariance.

    Training and the plain forward keep using :func:`softmax`; only the
    deterministic inference paths route through this function.
    """
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    denom = np.cumsum(exp, axis=axis).take(indices=[-1], axis=axis)
    return exp / denom


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_backward(grad_output: np.ndarray, softmax_output: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient of softmax given the upstream gradient and its own output."""
    s = softmax_output
    inner = np.sum(grad_output * s, axis=axis, keepdims=True)
    return s * (grad_output - inner)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit (the activation OPT's FFN uses)."""
    return np.maximum(x, 0.0)


def relu_backward(grad_output: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of ReLU with respect to its input."""
    return grad_output * (x > 0.0)


def gelu(x: np.ndarray, approximate: bool = True) -> np.ndarray:
    """Gaussian error linear unit.

    ``approximate=True`` uses the tanh approximation (cheap and the common
    hardware-friendly choice); ``False`` uses the exact erf formulation.
    """
    x = np.asarray(x, dtype=np.float64)
    if approximate:
        return 0.5 * x * (1.0 + np.tanh(_GELU_CONST * (x + 0.044715 * x**3)))
    from scipy.special import erf  # local import: scipy optional elsewhere

    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_backward(grad_output: np.ndarray, x: np.ndarray, approximate: bool = True) -> np.ndarray:
    """Gradient of GELU with respect to its input."""
    x = np.asarray(x, dtype=np.float64)
    if approximate:
        inner = _GELU_CONST * (x + 0.044715 * x**3)
        tanh_inner = np.tanh(inner)
        sech2 = 1.0 - tanh_inner**2
        d_inner = _GELU_CONST * (1.0 + 3 * 0.044715 * x**2)
        grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
        return grad_output * grad
    from scipy.special import erf

    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    grad = 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * phi
    return grad_output * grad


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer indices into ``num_classes`` columns."""
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indices < 0) or np.any(indices >= num_classes):
        raise ValueError("indices out of range for one_hot encoding")
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def cross_entropy(
    logits: np.ndarray, targets: np.ndarray, ignore_index: int | None = None
) -> tuple[float, np.ndarray]:
    """Token-level cross-entropy loss and its gradient with respect to logits.

    Parameters
    ----------
    logits:
        Array of shape ``(..., vocab)``.
    targets:
        Integer array of shape ``(...,)`` with the target class per position.
    ignore_index:
        Optional target value to exclude from the loss (padding).

    Returns
    -------
    (loss, grad):
        ``loss`` is the mean negative log-likelihood over non-ignored
        positions; ``grad`` has the same shape as ``logits`` and is already
        divided by the number of counted positions.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[:-1] != targets.shape:
        raise ValueError(
            f"targets shape {targets.shape} must match logits shape "
            f"{logits.shape[:-1]}"
        )
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)

    if ignore_index is not None:
        mask = flat_targets != ignore_index
    else:
        mask = np.ones(flat_targets.shape, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        return 0.0, np.zeros_like(logits)

    logp = log_softmax(flat_logits, axis=-1)
    safe_targets = np.where(mask, flat_targets, 0)
    picked = logp[np.arange(flat_targets.size), safe_targets]
    loss = float(-np.sum(picked[mask]) / count)

    probs = np.exp(logp)
    grad = probs.copy()
    grad[np.arange(flat_targets.size), safe_targets] -= 1.0
    grad[~mask] = 0.0
    grad /= count
    return loss, grad.reshape(logits.shape)


def perplexity_from_loss(mean_nll: float) -> float:
    """Perplexity ``exp(mean negative log-likelihood)``."""
    return float(np.exp(mean_nll))


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive causal attention mask: 0 on/below the diagonal, -inf above."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    mask = np.triu(np.full((seq_len, seq_len), -np.inf), k=1)
    return mask


def causal_mask_offset(new_len: int, total_len: int) -> np.ndarray:
    """Additive causal mask for incremental decoding with a KV cache.

    Row ``i`` corresponds to the token at absolute position
    ``total_len - new_len + i`` and may attend to every key at positions
    ``0 .. total_len - new_len + i`` (all cached keys plus itself and the
    earlier tokens of the current chunk).

    ``causal_mask_offset(s, s)`` equals :func:`causal_mask` of size ``s``.
    """
    if new_len < 1 or total_len < new_len:
        raise ValueError(
            f"need 1 <= new_len <= total_len, got new_len={new_len}, "
            f"total_len={total_len}"
        )
    past = total_len - new_len
    rows = np.arange(new_len)[:, None] + past
    cols = np.arange(total_len)[None, :]
    return np.where(cols <= rows, 0.0, -np.inf)


def ragged_attention_mask(
    new_lens: np.ndarray, past_lens: np.ndarray
) -> np.ndarray:
    """Additive attention mask for a left-padded ragged batch.

    Row ``r`` of the batch holds ``new_lens[r]`` real new tokens, right-
    aligned into a chunk of ``max(new_lens)`` positions, attending over
    ``past_lens[r]`` cached positions plus the new chunk — keys right-
    aligned into ``max(past_lens + new_lens)`` columns.  The returned array
    has shape ``(batch, max_new, max_total)``: ``0.0`` where the query may
    attend (its own row's cached keys and the causal prefix of the new
    chunk), ``-inf`` on pad keys and future positions.  Pad *query* rows
    are left fully unmasked — their outputs are garbage by construction and
    every consumer discards them; leaving them unmasked keeps the softmax
    finite.

    This dense mask defines the semantics of the ragged batched forward.
    The reference kernel (:meth:`MultiHeadSelfAttention.forward_ragged
    <repro.nn.attention.MultiHeadSelfAttention.forward_ragged>`) applies
    it by slicing each row's pad keys off before the contraction; the
    compiled backend (:class:`~repro.nn.executor.CompiledExecutor`) pads
    every row's keys with zeros up to the longest row and masks them.
    Both are bit-exact with the unpadded computation.  A padded
    computation is exact when the softmax is :func:`det_softmax` (plain
    :func:`softmax` sums with NumPy's pairwise reduction, which regroups
    addends by row length, so padding can move it by an ulp), when pad
    keys are set to ``-inf`` with ``np.where`` rather than added to (a NaN
    or inf score survives an add), and when pad values are finite, so
    every ``0 * v`` term of the context sum is an exact zero.
    """
    new_lens = np.asarray(new_lens, dtype=np.int64)
    past_lens = np.asarray(past_lens, dtype=np.int64)
    if new_lens.shape != past_lens.shape or new_lens.ndim != 1:
        raise ValueError(
            f"new_lens/past_lens must be matching 1-D arrays, got "
            f"{new_lens.shape} and {past_lens.shape}"
        )
    if np.any(new_lens < 1) or np.any(past_lens < 0):
        raise ValueError("need new_lens >= 1 and past_lens >= 0 per row")
    batch = new_lens.size
    max_new = int(new_lens.max())
    totals = past_lens + new_lens
    max_total = int(totals.max())

    qi = np.arange(max_new)[None, :, None]  # (1, max_new, 1)
    kj = np.arange(max_total)[None, None, :]  # (1, 1, max_total)
    q_pad = (max_new - new_lens)[:, None, None]  # leading pad queries per row
    k_pad = (max_total - totals)[:, None, None]  # leading pad keys per row
    # Absolute position of query qi within its own sequence: past + (qi - q_pad);
    # key kj sits at absolute position kj - k_pad.  Causal: key pos <= query pos.
    query_abs = past_lens[:, None, None] + qi - q_pad
    key_abs = kj - k_pad
    allowed = (kj >= k_pad) & (key_abs <= query_abs)
    allowed = allowed | (qi < q_pad)  # pad queries: unmasked (outputs discarded)
    return np.where(allowed, 0.0, -np.inf)


def det_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a shape-independent accumulation order.

    BLAS matmuls pick different accumulation orders for different operand
    shapes, so ``(X @ W)[i]`` and ``X[i:i+1] @ W`` can differ in the last
    ulp.  The KV-cached decoding path needs single-token results to be
    bit-identical to the full-sequence forward, so it routes every matrix
    product through :func:`numpy.einsum` with ``optimize=False``: each
    output element is then an independent dot product whose summation
    order depends only on the contraction length.  Slower than BLAS, but
    the cached path does O(1) work per token instead of O(seq).  Every
    deterministic linear (q/k/v, out-projection, fc1, fc2, tied logits)
    and both attention matmuls run this one kernel.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.einsum("...ij,...jk->...ik", a, b, optimize=False)
