"""The OPT-style decoder-only language model and its precision policy.

:class:`OPTLanguageModel` stacks token + positional embeddings, a series of
pre-LN decoder blocks, a final LayerNorm, and a tied output projection.  It
supports full backpropagation (for the small training runs that produce the
Table IV models) and — central to the reproduction —
:meth:`OPTLanguageModel.set_policy`, which applies a
:class:`~repro.precision.policy.PrecisionPolicy`: the evaluation-time
datapath formats (weights / activations / accumulators / KV cache, executed
by the op layer of :mod:`repro.precision.ops`) *and* the normalizer swap
that substitutes every LayerNorm's evaluation path with an approximate
normalizer (IterL2Norm, FISR, LUT, or exact-in-format) while reusing the
trained gamma/beta, exactly as the paper does when it replaces the
normalization blocks of the pre-trained OPT models.
:meth:`OPTLanguageModel.replace_layernorm` remains as sugar deriving a
policy with the normalizer overridden — the policy is the single
attachment mechanism.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.baselines.registry import get_normalizer
from repro.nn.block import TransformerDecoderBlock
from repro.nn.config import OPTConfig
from repro.nn.functional import cross_entropy
from repro.nn.kv_cache import KVCache
from repro.nn.layers import Dropout, Embedding, LayerNorm
from repro.nn.module import Module
from repro.precision.ops import PASSTHROUGH_OPS, make_ops
from repro.precision.policy import PrecisionPolicy, get_policy


class OPTLanguageModel(Module):
    """Decoder-only language model with a swappable precision policy.

    Parameters
    ----------
    config:
        An :class:`~repro.nn.config.OPTConfig` describing the architecture
        (including its default precision policy).
    rng:
        Random generator for weight initialization (pass a seeded generator
        for reproducible models).
    policy:
        Optional :class:`~repro.precision.policy.PrecisionPolicy` (or
        registered name) overriding ``config.policy``.
    """

    #: Policy-aware op layer shared by the whole module tree.
    ops = PASSTHROUGH_OPS

    def __init__(
        self,
        config: OPTConfig,
        rng: np.random.Generator | None = None,
        policy: PrecisionPolicy | str | None = None,
    ) -> None:
        rng = rng or np.random.default_rng()
        self.config = config

        self.token_embedding = Embedding(config.vocab_size, config.embed_dim, rng=rng)
        self.position_embedding = Embedding(config.max_position, config.embed_dim, rng=rng)
        self.embed_dropout = Dropout(config.dropout, rng=rng)
        self.blocks = [
            TransformerDecoderBlock(
                config.embed_dim, config.num_heads, config.ffn_dim, dropout=config.dropout, rng=rng
            )
            for _ in range(config.num_layers)
        ]
        self.final_norm = LayerNorm(config.embed_dim)
        self._cache_hidden: np.ndarray | None = None
        self._cache_token_ids: np.ndarray | None = None
        #: True when weights may have changed since the last eval() refresh
        #: (set by construction, train(), and load_state_dict()).
        self._weights_dirty = True
        #: Monotonic counter bumped whenever a compiled execution plan built
        #: against this model could go stale (policy swap, weight reload,
        #: train/eval transitions).  Executors compare it to their plan.
        self._plan_version = 0
        self.set_policy(config.policy if policy is None else policy)

    # -- forward -------------------------------------------------------------------
    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        """Compute next-token logits of shape ``(batch, seq, vocab)``.

        The output projection is tied to the token-embedding matrix, as in
        OPT, so logits are ``hidden @ E^T``.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq), got shape {token_ids.shape}")
        batch, seq = token_ids.shape
        if seq > self.config.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds max_position {self.config.max_position}"
            )

        ops = PASSTHROUGH_OPS if self.training else self.ops
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        if self.training or ops.passthrough:
            # The module path caches the looked-up ids for backward.
            hidden = self.token_embedding(token_ids) + self.position_embedding(positions)
        else:
            if np.any(token_ids < 0) or np.any(token_ids >= self.config.vocab_size):
                raise ValueError("token id out of range for the embedding table")
            hidden = ops.embed(
                self.token_embedding.weight.data,
                self.position_embedding.weight.data,
                token_ids,
                positions,
            )
        hidden = self.embed_dropout(hidden)
        for block in self.blocks:
            hidden = block(hidden)
        hidden = self.final_norm(hidden)

        self._cache_hidden = hidden
        self._cache_token_ids = token_ids
        return ops.linear(hidden, self.token_embedding.weight.data.T, None)

    def new_kv_cache(self) -> KVCache:
        """An empty KV cache sized for this model's decoder stack."""
        return KVCache.for_model(self)

    def forward_with_cache(
        self, token_ids: np.ndarray, cache: KVCache, last_only: bool = False
    ) -> np.ndarray:
        """Inference-only forward over the *new* tokens using a KV cache.

        ``token_ids`` holds only the positions not yet in ``cache``; their
        absolute positions continue from ``cache.seq_len``.  Returns logits
        of shape ``(batch, new_seq, vocab)`` for the new positions only —
        or ``(batch, 1, vocab)`` with ``last_only``, which skips the output
        projection for all but the final position (the decode loops only
        consume that row, and the vocabulary projection is the most
        expensive matmul in the model).

        The computation is bit-identical to running :meth:`forward` (in eval
        mode, through the deterministic matmul path) on the full prefix and
        slicing out the same positions — the KV-cache regression tests
        assert this exactly.  Gradients are not tracked; the model must be
        in eval mode (dropout and the normalizer swap are eval-time
        behaviours, so a training-mode call would silently diverge).
        """
        if self.training:
            raise RuntimeError(
                "forward_with_cache requires eval mode; call model.eval() first"
            )
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq), got shape {token_ids.shape}")
        if len(cache) != len(self.blocks):
            raise ValueError(
                f"cache has {len(cache)} layers, model has {len(self.blocks)}"
            )
        batch, seq = token_ids.shape
        past = cache.seq_len
        if past + seq > self.config.max_position:
            raise ValueError(
                f"cache length {past} + new tokens {seq} exceeds max_position "
                f"{self.config.max_position}"
            )

        if np.any(token_ids < 0) or np.any(token_ids >= self.config.vocab_size):
            raise ValueError("token id out of range for the embedding table")

        positions = np.broadcast_to(np.arange(past, past + seq), (batch, seq))
        hidden = self.ops.embed(
            self.token_embedding.weight.data,
            self.position_embedding.weight.data,
            token_ids,
            positions,
        )
        for block, layer_kv in zip(self.blocks, cache.layers):
            hidden = block.forward_cached(hidden, layer_kv)
        hidden = self.final_norm(hidden)
        if last_only:
            hidden = hidden[:, -1:, :]
        return self.ops.linear_det(hidden, self.token_embedding.weight.data.T, None)

    def forward_ragged(
        self,
        token_ids: np.ndarray,
        caches,
        new_lens: np.ndarray,
        last_only: bool = True,
    ) -> np.ndarray:
        """Inference forward over a left-padded ragged batch of sequences.

        The continuous-batching server mixes requests at different stages —
        a freshly admitted request prefilling a long prompt next to requests
        decoding one token each.  ``token_ids`` is ``(batch, max_new)`` with
        each row's ``new_lens[r]`` real new tokens right-aligned (leading
        positions are pad lanes; their token ids must merely be valid for
        the embedding table).  ``caches`` holds one *single-sequence* cache
        per row — anything exposing ``seq_len`` and per-layer ``layers[i]``
        with the :class:`~repro.nn.kv_cache.LayerKVCache` append protocol
        (a :class:`~repro.nn.kv_cache.KVCache` created for a batch-of-one,
        or a pooled :class:`~repro.serve.kv_pool.SequenceKV`).

        Position embeddings are computed per row (a row's first real token
        continues from its own cache length), per-token ops run batched
        over the padded matrix, and attention applies the pad mask by
        slicing (see :func:`~repro.nn.functional.ragged_attention_mask` for
        the mask semantics).  Each real lane is therefore **bit-identical**
        to running :meth:`forward_with_cache` on that row alone — the
        property that makes tokens served from a ragged continuous batch
        equal to :func:`~repro.nn.generation.generate` on the same prompt.

        Returns logits for each row's final position, ``(batch, 1, vocab)``,
        when ``last_only`` (the decode loops' shape; rows are right-aligned,
        so the final slot is always a real lane).  With ``last_only=False``,
        logits for the whole padded chunk, ``(batch, max_new, vocab)``,
        where the leading ``max_new - new_lens[r]`` positions of row ``r``
        are meaningless pad output.
        """
        if self.training:
            raise RuntimeError(
                "forward_ragged requires eval mode; call model.eval() first"
            )
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq), got shape {token_ids.shape}")
        batch, max_new = token_ids.shape
        new_lens = np.asarray(new_lens, dtype=np.int64)
        if new_lens.shape != (batch,) or len(caches) != batch:
            raise ValueError(
                f"need one cache and one new_len per row, got batch={batch}, "
                f"len(caches)={len(caches)}, new_lens shape {new_lens.shape}"
            )
        if np.any(new_lens < 1) or np.any(new_lens > max_new):
            raise ValueError(f"new_lens must be in [1, {max_new}], got {new_lens}")
        if np.any(token_ids < 0) or np.any(token_ids >= self.config.vocab_size):
            raise ValueError("token id out of range for the embedding table")
        pasts = np.asarray([c.seq_len for c in caches], dtype=np.int64)
        if np.any(pasts + new_lens > self.config.max_position):
            raise ValueError(
                f"cache length + new tokens exceeds max_position "
                f"{self.config.max_position} for at least one row"
            )
        for cache in caches:
            if len(cache.layers) != len(self.blocks):
                raise ValueError(
                    f"cache has {len(cache.layers)} layers, model has {len(self.blocks)}"
                )

        # Per-row absolute positions: pads get 0 (their lanes are discarded).
        offsets = np.arange(max_new)[None, :] - (max_new - new_lens)[:, None]
        positions = np.maximum(pasts[:, None] + offsets, 0)
        hidden = self.ops.embed(
            self.token_embedding.weight.data,
            self.position_embedding.weight.data,
            token_ids,
            positions,
        )
        for i, block in enumerate(self.blocks):
            layer_kvs = [cache.layers[i] for cache in caches]
            hidden = block.forward_ragged(hidden, layer_kvs, new_lens)
        hidden = self.final_norm(hidden)
        if last_only:
            hidden = hidden[:, -1:, :]
        return self.ops.linear_det(hidden, self.token_embedding.weight.data.T, None)

    def loss(self, token_ids: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Cross-entropy loss of next-token prediction; returns (loss, logits)."""
        logits = self.forward(token_ids)
        loss, self._cache_logit_grad = cross_entropy(logits, targets)
        return loss, logits

    # -- backward ------------------------------------------------------------------
    def backward(self, grad_logits: np.ndarray | None = None) -> None:
        """Backpropagate from the logits gradient through the whole model.

        When called with no argument, uses the gradient cached by
        :meth:`loss`.
        """
        if grad_logits is None:
            grad_logits = getattr(self, "_cache_logit_grad", None)
            if grad_logits is None:
                raise RuntimeError("no cached loss gradient; call loss() first")
        if self._cache_hidden is None or self._cache_token_ids is None:
            raise RuntimeError("backward called before forward")

        hidden = self._cache_hidden
        grad_logits = np.asarray(grad_logits, dtype=np.float64)

        # Tied projection: logits = hidden @ E^T.
        embed = self.token_embedding.weight
        grad_hidden = grad_logits @ embed.data
        flat_grad_logits = grad_logits.reshape(-1, self.config.vocab_size)
        flat_hidden = hidden.reshape(-1, self.config.embed_dim)
        embed.grad += flat_grad_logits.T @ flat_hidden

        grad_hidden = self.final_norm.backward(grad_hidden)
        for block in reversed(self.blocks):
            grad_hidden = block.backward(grad_hidden)
        grad_hidden = self.embed_dropout.backward(grad_hidden)

        # Embedding lookups: token and positional tables.
        self.token_embedding.backward(grad_hidden)
        self.position_embedding.backward(grad_hidden)

    def train(self) -> "OPTLanguageModel":
        self._weights_dirty = True
        self._plan_version += 1
        return super().train()

    def eval(self) -> "OPTLanguageModel":
        # If weights may have changed since the last refresh (training, a
        # state-dict load), drop memoized quantized copies and rebind the
        # policy's normalizer to the current gamma/beta (it captures copies
        # at install time).  Kept warm otherwise, so repeated generate()
        # calls — each of which enters eval mode — don't re-quantize.
        if self._weights_dirty:
            self.ops.clear_weight_cache()
            if self.policy.normalizer is not None:
                self._install_normalizers(self.policy)
            self._weights_dirty = False
            self._plan_version += 1
        return super().eval()

    def load_state_dict(self, state) -> None:
        super().load_state_dict(state)
        self._weights_dirty = True
        self._plan_version += 1

    # -- precision policy ------------------------------------------------------------
    @property
    def policy(self) -> PrecisionPolicy:
        """The model's active precision policy (stored on ``config``)."""
        return self.config.policy

    def set_policy(self, policy: PrecisionPolicy | str | dict) -> None:
        """Apply a precision policy to the whole module tree.

        Resolves ``policy`` (instance, registered name, or ``to_dict``
        output), installs the matching op layer on every module, and wires
        the policy's normalizer — resolved through
        :mod:`repro.baselines.registry` with each LayerNorm's trained
        gamma/beta — as the evaluation-time normalizer.  ``fp64-ref``
        installs the shared zero-overhead passthrough, reproducing the
        plain float64 kernels verbatim.

        The policy is recorded on ``self.config`` so checkpoints carry it
        (``asdict`` → JSON → rebuild restores both datapath and swapped
        normalizer).  Training mode is unaffected: it always runs the
        exact, differentiable float64 path.
        """
        policy = get_policy(policy)
        self.config = dataclasses.replace(self.config, policy=policy)
        # Reuse the current op layer (and its warm quantized-weight memo)
        # when only the normalizer changed, not the datapath formats.
        ops = make_ops(policy, reuse=self.ops)
        for module in self.modules():
            module.ops = ops
        self._install_normalizers(policy)
        self._plan_version += 1

    def _install_normalizers(self, policy: PrecisionPolicy) -> None:
        """(Re)bind the policy's normalizer to each LayerNorm's gamma/beta.

        Called by :meth:`set_policy` and again by :meth:`eval`, because the
        normalizer captures *copies* of gamma/beta — training between
        evaluations would otherwise leave it computing with stale values.
        """
        if policy.normalizer is None:
            for norm in self.layer_norms():
                norm.eval_normalizer = None
        else:
            for norm in self.layer_norms():
                norm.eval_normalizer = get_normalizer(
                    policy.normalizer,
                    norm.normalized_dim,
                    fmt=policy.normalizer_fmt,
                    gamma=norm.gamma.data.copy(),
                    beta=norm.beta.data.copy(),
                    **dict(policy.normalizer_kwargs),
                )

    # -- layer-norm swap (policy sugar) ---------------------------------------------
    def layer_norms(self) -> list[LayerNorm]:
        """Every LayerNorm in the model (two per block plus the final one)."""
        norms: list[LayerNorm] = []
        for block in self.blocks:
            norms.extend(block.layer_norms())
        norms.append(self.final_norm)
        return norms

    def replace_layernorm(self, method: str, fmt: str | None = None, **kwargs) -> None:
        """Swap the evaluation-time normalizer of every LayerNorm.

        Sugar for deriving the current policy with
        :meth:`~repro.precision.policy.PrecisionPolicy.with_normalizer` and
        applying it via :meth:`set_policy` — the datapath formats are kept,
        only the normalizer changes.

        Parameters
        ----------
        method:
            A name registered in :mod:`repro.baselines.registry`
            ("exact", "iterl2norm", "fisr", "lut").
        fmt:
            Working floating-point format for the replacement normalizer.
        kwargs:
            Extra arguments for the normalizer factory (``num_steps`` for
            IterL2Norm, ``newton_steps`` for FISR, ...).

        The replacement reuses each LayerNorm's trained gamma/beta and only
        affects evaluation mode; training mode still uses the exact,
        differentiable LayerNorm.
        """
        self.set_policy(self.policy.with_normalizer(method, fmt=fmt, **kwargs))

    def restore_layernorm(self) -> None:
        """Remove any evaluation-time normalizer replacement."""
        self.set_policy(self.policy.with_normalizer(None))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OPTLanguageModel({self.config.name}, layers={self.config.num_layers}, "
            f"d={self.config.embed_dim}, params={self.num_parameters()})"
        )
