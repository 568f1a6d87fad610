"""Shard planning: how a model's weights split across N tensor shards.

The split mirrors the Megatron-LM layout, restated for this codebase's
deterministic kernels:

* **Column-parallel** (no reduction crosses a shard): Q/K/V projections,
  fc1, and the tied logits projection ``E.T``.  Shard ``s`` owns output
  columns ``[(s*dim)//N, ((s+1)*dim)//N)``; bias slices and the quantized
  ``accum``/``act`` casts are applied shard-locally (all elementwise).
* **Row-parallel** (the contraction axis is split): the attention
  out-projection (K = ``embed_dim``) and fc2 (K = ``ffn_dim``).  Shard
  boundaries ``(s*K)//N`` provably land on the fixed-block atom bounds of
  :func:`repro.nn.functional.det_matmul` for every ``N`` dividing
  :data:`~repro.nn.functional.DET_ATOMS` (``s*K/N == (s*A/N)*(K/A)`` as
  exact rationals, so their floors agree), which is what lets the driver's
  fixed-order reduce replay the unsharded summation chain exactly.
* fc1's column split uses the *same* ``ffn_dim`` boundaries as fc2's row
  split, so the whole FFN runs shard-local between the two matmuls.

Weight slices are taken from the same arrays the compiled plan binds —
raw parameter data under ``fp64-ref``, the ``ops.weight`` quantized memo
otherwise — so slicing commutes with quantization byte-for-byte.

Row-parallel *biases* are not sharded: the unsharded kernel adds the bias
once after the full contraction, so the driver adds it after the reduce
(:attr:`ShardPlan.out_biases` / :attr:`ShardPlan.fc2_biases`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import DET_ATOMS
from repro.shard.worker import ShardState


def shard_bounds(dim: int, num_shards: int) -> tuple[int, ...]:
    """Split points ``[(s*dim)//N for s in 0..N]`` (atom-aligned when the
    axis is a contraction axis and ``N`` divides ``DET_ATOMS``)."""
    return tuple((s * dim) // num_shards for s in range(num_shards + 1))


def _col(w, lo, hi):
    return np.ascontiguousarray(w[:, lo:hi])


def _row(w, lo, hi):
    return np.ascontiguousarray(w[lo:hi, :])


class ShardPlan:
    """Per-shard weight states plus the driver-side reduce operands.

    Parameters
    ----------
    model:
        An eval-mode :class:`~repro.nn.model.OPTLanguageModel` with its
        precision policy installed (``ops`` decides raw vs quantized
        slices).
    num_shards:
        Logical shard count; must divide ``DET_ATOMS`` (1, 2, 3, 4, 6 or
        12) so row splits land on atom boundaries, and must not exceed
        the narrowest sharded axis.
    """

    def __init__(self, model, num_shards: int) -> None:
        num_shards = int(num_shards)
        if num_shards < 1 or DET_ATOMS % num_shards != 0:
            valid = [n for n in range(1, DET_ATOMS + 1) if DET_ATOMS % n == 0]
            raise ValueError(
                f"num_shards must divide DET_ATOMS={DET_ATOMS} "
                f"(valid: {valid}), got {num_shards}"
            )
        config = model.config
        embed, ffn = config.embed_dim, config.ffn_dim
        narrowest = min(embed, ffn, config.vocab_size)
        if num_shards > narrowest:
            raise ValueError(
                f"num_shards {num_shards} exceeds the narrowest sharded "
                f"axis ({narrowest}) of this model"
            )
        ops = model.ops
        self.num_shards = num_shards
        self.passthrough = ops.passthrough
        self.accum = ops.accum
        self.act = ops.act
        #: Plan-version stamp, set by the executor that owns this plan.
        self.version = None

        weight = (lambda w: w) if ops.passthrough else ops.weight
        accum_fmt = act_fmt = None
        if not ops.passthrough:
            accum_fmt = ops.policy.accumulation_fmt
            act_fmt = ops.policy.activation_fmt

        embed_bounds = shard_bounds(embed, num_shards)
        ffn_bounds = shard_bounds(ffn, num_shards)
        vocab_bounds = shard_bounds(config.vocab_size, num_shards)

        #: Row-parallel biases, one per layer, applied driver-side after
        #: the fixed-order reduce (quantized copies under a quantized
        #: policy, exactly as the unsharded closure binds them).
        self.out_biases: list[np.ndarray | None] = []
        self.fc2_biases: list[np.ndarray | None] = []

        per_shard: list[dict[str, np.ndarray]] = [
            {} for _ in range(num_shards)
        ]
        for i, block in enumerate(model.blocks):
            attn, ffn_mod = block.attention, block.ffn
            cols = {
                "q": (attn.q_proj, embed_bounds),
                "k": (attn.k_proj, embed_bounds),
                "v": (attn.v_proj, embed_bounds),
                "fc1": (ffn_mod.fc1, ffn_bounds),
            }
            for name, (lin, bounds) in cols.items():
                w = weight(lin.weight.data)
                b = None if lin.bias is None else weight(lin.bias.data)
                for s in range(num_shards):
                    lo, hi = bounds[s], bounds[s + 1]
                    per_shard[s][f"L{i}.{name}_w"] = _col(w, lo, hi)
                    if b is not None:
                        per_shard[s][f"L{i}.{name}_b"] = np.ascontiguousarray(
                            b[lo:hi]
                        )
            rows = {
                "out": (attn.out_proj, embed_bounds, self.out_biases),
                "fc2": (ffn_mod.fc2, ffn_bounds, self.fc2_biases),
            }
            for name, (lin, bounds, biases) in rows.items():
                w = weight(lin.weight.data)
                biases.append(
                    None if lin.bias is None else weight(lin.bias.data)
                )
                for s in range(num_shards):
                    per_shard[s][f"L{i}.{name}_w"] = _row(
                        w, bounds[s], bounds[s + 1]
                    )

        # Tied logits projection: a column split over the vocabulary of the
        # same weight *and memory-layout class* the compiled plan binds.
        # einsum's inner-loop kernel depends on whether the contraction
        # stride of an operand is unit, so under ``fp64-ref`` (where the
        # bound operand is the transposed view ``E.T``) the slice must stay
        # a transposed view: pack the C-order vocabulary rows and have the
        # shard re-transpose.  Under a quantized policy ``ops.weight``
        # materializes a C-contiguous copy, so a plain column slice already
        # matches.
        w_t = weight(model.token_embedding.weight.data.T)
        logits_t = not w_t.flags["C_CONTIGUOUS"]
        for s in range(num_shards):
            lo, hi = vocab_bounds[s], vocab_bounds[s + 1]
            if logits_t:
                per_shard[s]["logits_w"] = _row(w_t.T, lo, hi)
            else:
                per_shard[s]["logits_w"] = _col(w_t, lo, hi)

        self.configs = [
            {
                "index": s,
                "num_shards": num_shards,
                "passthrough": ops.passthrough,
                "accum_fmt": accum_fmt,
                "act_fmt": act_fmt,
                "embed_dim": embed,
                "ffn_dim": ffn,
                "num_layers": len(model.blocks),
                "out_lo": embed_bounds[s],
                "ffn_lo": ffn_bounds[s],
                "logits_t": logits_t,
            }
            for s in range(num_shards)
        ]
        self.arrays = per_shard
        #: Column boundaries of the ``out`` phase payload (the driver sends
        #: shard ``s`` columns ``[embed_bounds[s], embed_bounds[s+1])`` of
        #: the merged attention context).
        self.embed_bounds = embed_bounds

    def states(self) -> list[ShardState]:
        """In-process :class:`ShardState` per shard (the sim driver's view;
        the process driver packs :attr:`arrays` into shared memory and
        rebuilds identical states worker-side)."""
        return [
            ShardState(config, arrays)
            for config, arrays in zip(self.configs, self.arrays)
        ]

