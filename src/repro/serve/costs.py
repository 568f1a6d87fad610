"""Pricing KV-tier promotion against re-prefill with the macro cost models.

The tiered pool (:mod:`repro.serve.kv_pool`) can recover a demoted prefix
span two ways: *promote* it — stream the compressed bytes back from the
cold tier into a fresh block — or *re-prefill* — recompute the K/V from
the token ids.  Both are exact (promotion is only allowed when the tier
format round-trips), so the choice is purely a cost call, and the repo
already owns the models to make it: a
:class:`~repro.macro.traffic.MemoryInterface` prices a byte transfer, and
a decode step is memory-bound — its floor is streaming the weights once
per token.

:class:`TierCostModel` reduces both paths to bytes over the same
interface:

* ``restore_us(tokens)`` — the tokens' K/V footprint at the tier format's
  width, moved once.
* ``recompute_us(tokens)`` — the model's weight footprint at the policy's
  weight format, streamed once per token (the memory-bound lower bound of
  recomputation; compute is assumed overlapped).

For any realistic shape the per-token KV slice is orders of magnitude
smaller than the weights, so promotion wins — the model exists to make
that judgement explicit, and to flip it for degenerate configurations
(tiny models, huge block sizes, a glacial tier interface).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpformats.spec import get_format
from repro.macro.traffic import DDR4_CHANNEL, MemoryInterface


def _fmt_bytes(fmt_name: str | None) -> float:
    """Bytes per value at a format's nominal width (``None`` = float64)."""
    if fmt_name is None:
        return 8.0
    return get_format(fmt_name).total_bits / 8.0


@dataclass(frozen=True)
class TierCostModel:
    """Byte-level price list for promote-vs-recompute decisions.

    Attributes
    ----------
    interface:
        The :class:`~repro.macro.traffic.MemoryInterface` both transfers
        cross (tier restores and weight streaming share the same link in
        this single-host model).
    kv_bytes_per_token:
        K and V bytes for one token position across all layers at the
        tier storage width.
    weight_stream_bytes:
        Bytes streamed to recompute one token (the model's weight
        footprint at its weight format).
    """

    interface: MemoryInterface = DDR4_CHANNEL
    kv_bytes_per_token: float = 0.0
    weight_stream_bytes: float = 0.0

    def restore_us(self, tokens: int) -> float:
        """Time to stream ``tokens`` positions of cold K/V back in."""
        return self.interface.transfer_time_us(tokens * self.kv_bytes_per_token)

    def recompute_us(self, tokens: int) -> float:
        """Memory-bound floor of re-prefilling ``tokens`` positions."""
        return self.interface.transfer_time_us(tokens * self.weight_stream_bytes)

    def promotion_pays(self, tokens: int) -> bool:
        """True when restoring ``tokens`` beats recomputing them."""
        return self.restore_us(tokens) <= self.recompute_us(tokens)

    @classmethod
    def for_model(
        cls,
        model,
        interface: MemoryInterface = DDR4_CHANNEL,
        tier_fmt: str | None = None,
    ) -> "TierCostModel":
        """Price list derived from ``model``'s config and precision policy.

        ``tier_fmt`` overrides the KV width (the tier's storage format);
        by default the policy's ``kv_cache_fmt`` is used — the lossless
        tier configuration.
        """
        config = model.config
        policy = config.policy
        kv_fmt = tier_fmt if tier_fmt is not None else policy.kv_cache_fmt
        kv_bytes = 2 * config.num_layers * config.embed_dim * _fmt_bytes(kv_fmt)
        d, f = config.embed_dim, config.ffn_dim
        params = (
            config.vocab_size * d
            + config.max_position * d
            + config.num_layers * (4 * d * d + 2 * d * f)
        )
        weight_bytes = params * _fmt_bytes(policy.weight_fmt)
        return cls(
            interface=interface,
            kv_bytes_per_token=float(kv_bytes),
            weight_stream_bytes=float(weight_bytes),
        )
