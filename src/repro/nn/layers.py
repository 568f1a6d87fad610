"""Basic trainable layers: Linear, Embedding, LayerNorm, Dropout.

Each layer implements ``forward`` (caching what the gradient needs) and
``backward`` (returning the gradient with respect to its input and
accumulating parameter gradients).  The LayerNorm here is the *trainable,
exact* one used during training and as the Table IV baseline; the
IterL2Norm / FISR swap happens at evaluation time through the model's
precision policy (:meth:`repro.nn.model.OPTLanguageModel.set_policy`, of
which ``replace_layernorm`` is a thin wrapper), which hands the trained
``gamma`` / ``beta`` to the replacement normalizer.

Evaluation-time arithmetic routes through the layer's ``ops`` attribute — a
policy-aware op layer (:mod:`repro.precision.ops`) installed by
``set_policy``.  The default is the shared float64 passthrough, which calls
the exact same kernels as before; under a quantized policy each op rounds
its result to the policy's formats.  Training always runs the exact float64
path regardless of policy.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.precision.ops import PASSTHROUGH_OPS


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with optional bias."""

    #: Policy-aware op layer; replaced by the owning model's ``set_policy``.
    ops = PASSTHROUGH_OPS

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        if min(in_features, out_features) < 1:
            raise ValueError("in_features and out_features must be >= 1")
        rng = rng or np.random.default_rng()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._cache_input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        if not self.training and not self.ops.passthrough:
            # Quantized evaluation: weights held in the weight format, the
            # product rounded through the accumulation/activation formats.
            return self.ops.linear(
                x, self.weight.data, None if self.bias is None else self.bias.data
            )
        self._cache_input = x
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before forward")
        x = self._cache_input
        grad_output = np.asarray(grad_output, dtype=np.float64)
        flat_x = x.reshape(-1, self.in_features)
        flat_grad = grad_output.reshape(-1, self.out_features)
        self.weight.grad += flat_x.T @ flat_grad
        if self.bias is not None:
            self.bias.grad += flat_grad.sum(axis=0)
        grad_input = grad_output @ self.weight.data.T
        return grad_input

    def forward_det(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward with shape-independent accumulation.

        Used by the KV-cached decoding path: the result for any row is
        bit-identical whether the row is computed alone or as part of a
        batch (see :func:`repro.nn.functional.det_matmul`).  Quantization
        (when the policy requires it) is elementwise, so the property holds
        under every policy.  Does not cache anything for backward.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        return self.ops.linear_det(
            x, self.weight.data, None if self.bias is None else self.bias.data
        )


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if min(num_embeddings, embedding_dim) < 1:
            raise ValueError("num_embeddings and embedding_dim must be >= 1")
        rng = rng or np.random.default_rng()
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)))
        self._cache_ids: np.ndarray | None = None

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if np.any(token_ids < 0) or np.any(token_ids >= self.num_embeddings):
            raise ValueError("token id out of range for the embedding table")
        self._cache_ids = token_ids
        return self.weight.data[token_ids]

    def backward(self, grad_output: np.ndarray) -> None:
        if self._cache_ids is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        flat_ids = self._cache_ids.reshape(-1)
        flat_grad = grad_output.reshape(-1, self.embedding_dim)
        np.add.at(self.weight.grad, flat_ids, flat_grad)
        return None  # token ids have no gradient


class LayerNorm(Module):
    """Trainable exact layer normalization over the last axis.

    ``z = gamma * (x - mean) / sqrt(var + eps) + beta``.  This is the module
    trained with the model; at evaluation time the model's precision policy
    (:meth:`~repro.nn.model.OPTLanguageModel.set_policy`) can substitute an
    approximate normalizer that reuses the trained ``gamma`` / ``beta``, and
    rounds the normalizer output to the policy's activation format.
    """

    #: Policy-aware op layer; replaced by the owning model's ``set_policy``.
    ops = PASSTHROUGH_OPS

    def __init__(self, normalized_dim: int, eps: float = 1e-5) -> None:
        if normalized_dim < 1:
            raise ValueError(f"normalized_dim must be >= 1, got {normalized_dim}")
        self.normalized_dim = int(normalized_dim)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(normalized_dim))
        self.beta = Parameter(np.zeros(normalized_dim))
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Optional evaluation-time replacement (callable on the same shape);
        #: installed by the model's precision policy.
        self.eval_normalizer = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.normalized_dim:
            raise ValueError(
                f"expected last dim {self.normalized_dim}, got {x.shape[-1]}"
            )
        if self.eval_normalizer is not None and not self.training:
            return self.ops.act(self.eval_normalizer(x))
        centered = x - x.mean(axis=-1, keepdims=True)
        # Byte-equal to ``x.var``, which recomputes the mean and the centred
        # rows internally.
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = centered * inv_std
        self._cache = (x_hat, inv_std, centered)
        out = self.gamma.data * x_hat + self.beta.data
        if not self.training:
            out = self.ops.act(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, _ = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float64)
        d = self.normalized_dim

        flat_grad = grad_output.reshape(-1, d)
        flat_xhat = x_hat.reshape(-1, d)
        self.gamma.grad += (flat_grad * flat_xhat).sum(axis=0)
        self.beta.grad += flat_grad.sum(axis=0)

        dxhat = grad_output * self.gamma.data
        # Standard layer-norm input gradient.
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_xhat = (dxhat * x_hat).mean(axis=-1, keepdims=True)
        grad_input = inv_std * (dxhat - mean_dxhat - x_hat * mean_dxhat_xhat)
        return grad_input


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.0, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.rng = rng or np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_output, dtype=np.float64)
        return np.asarray(grad_output, dtype=np.float64) * self._mask
