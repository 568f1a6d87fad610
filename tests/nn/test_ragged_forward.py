"""Masked ragged batched forward: per-row bit-exactness and mask semantics."""

import numpy as np
import pytest

from repro.nn.config import OPT_CONFIGS, get_config
from repro.nn.functional import (
    det_matmul,
    det_softmax,
    ragged_attention_mask,
    softmax,
)
from repro.nn.model import OPTLanguageModel


@pytest.fixture
def model(rng):
    m = OPTLanguageModel(get_config("opt-test"), rng=rng)
    m.eval()
    return m


class TestRaggedAttentionMask:
    def test_no_past_square_batch(self):
        mask = ragged_attention_mask(np.array([3]), np.array([0]))
        assert mask.shape == (1, 3, 3)
        np.testing.assert_array_equal(mask[0, 0], [0.0, -np.inf, -np.inf])
        np.testing.assert_array_equal(mask[0, 2], np.zeros(3))

    def test_ragged_rows_blank_pad_keys(self):
        # Row 0: 1 new / 2 past (total 3); row 1: 2 new / 0 past (total 2).
        mask = ragged_attention_mask(np.array([1, 2]), np.array([2, 0]))
        assert mask.shape == (2, 2, 3)
        # Row 0, real query: all 3 keys visible.
        np.testing.assert_array_equal(mask[0, 1], np.zeros(3))
        # Row 1, first real query: leading pad key blocked, own pos visible.
        np.testing.assert_array_equal(mask[1, 0], [-np.inf, 0.0, -np.inf])
        np.testing.assert_array_equal(mask[1, 1], [-np.inf, 0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ragged_attention_mask(np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            ragged_attention_mask(np.array([1, 1]), np.array([0]))


class TestDetSoftmax:
    def test_matches_softmax_values(self, rng):
        x = rng.normal(size=(2, 3, 17))
        np.testing.assert_allclose(det_softmax(x), softmax(x), rtol=1e-15)

    def test_invariant_to_trailing_masking(self, rng):
        """The property plain softmax lacks: appending masked columns never
        changes the result for the unmasked prefix (any prefix length)."""
        for n in range(1, 20):
            x = rng.normal(size=(2, 2, 1, n)) * 3
            padded = np.concatenate(
                [x, np.full((2, 2, 1, 23 - n), -np.inf)], axis=-1
            )
            np.testing.assert_array_equal(
                det_softmax(x), det_softmax(padded)[..., :n]
            )


def as_bits(a):
    """Exact bytes of a float64 array, so ``-0.0`` and NaN payloads count."""
    return np.ascontiguousarray(a).view(np.uint64)


def strided_keys(rng, batch, heads, length, head_dim, pad=0):
    """``(batch, heads, length + pad, head_dim)`` keys whose ``pad`` trailing
    positions are zeros, as the ``[:length + pad]`` slice of a longer buffer
    (the layout the KV caches and the padded attention workspace return)."""
    buf = np.zeros((batch, heads, length + pad + 3, head_dim))
    buf[:, :, :length] = rng.normal(size=(batch, heads, length, head_dim))
    return buf[:, :, : length + pad]


class TestDetMatmulZeroPadding:
    """The property the compiled backend's padded ragged attention rests on:
    zero-padding the key axis never moves a byte of ``det_matmul``."""

    HEAD_DIMS = sorted({c.embed_dim // c.num_heads for c in OPT_CONFIGS.values()})

    @pytest.mark.parametrize("head_dim", HEAD_DIMS)
    def test_context_invariant_to_zero_padded_contraction(self, head_dim, rng):
        """``weights @ v`` over ``T`` keys equals the same product over
        ``T + pad`` keys whose pad weights and pad values are zeros."""
        for length in (1, 2, 7, 16, 33, 100):
            for pad in (1, 5, 28):
                v = strided_keys(rng, 2, 3, length, head_dim)
                v_padded = strided_keys(rng, 2, 3, length, head_dim, pad)
                v_padded[:, :, :length] = v
                weights = det_softmax(rng.normal(size=(2, 3, 4, length)) * 3)
                w_padded = np.zeros((2, 3, 4, length + pad))
                w_padded[..., :length] = weights
                assert np.array_equal(
                    as_bits(det_matmul(w_padded, v_padded)),
                    as_bits(det_matmul(weights, v)),
                ), (head_dim, length, pad)

    @pytest.mark.parametrize("head_dim", HEAD_DIMS)
    def test_scores_invariant_to_zero_padded_keys(self, head_dim, rng):
        """``q @ k.T`` contracts over ``head_dim``: padding keys only adds
        output columns, and the real columns keep their bytes."""
        for length in (1, 9, 64):
            for pad in (1, 31):
                k = strided_keys(rng, 2, 3, length, head_dim)
                k_padded = strided_keys(rng, 2, 3, length, head_dim, pad)
                k_padded[:, :, :length] = k
                q = rng.normal(size=(2, 4, 3, head_dim)).transpose(0, 2, 1, 3)
                padded = det_matmul(q, k_padded.transpose(0, 1, 3, 2))
                assert np.array_equal(
                    as_bits(padded[..., :length]),
                    as_bits(det_matmul(q, k.transpose(0, 1, 3, 2))),
                ), (head_dim, length, pad)
                assert not np.any(padded[..., length:])


class TestForwardRaggedExactness:
    def test_rows_match_per_row_cached_forward(self, model, rng):
        """Mixed prefill/decode rows are bit-identical to running alone."""
        prompts = [rng.integers(0, 64, size=n) for n in (9, 4, 1, 14)]
        refs, caches = [], []
        for p in prompts:
            cache = model.new_kv_cache()
            refs.append(model.forward_with_cache(p[None, :], cache, last_only=True))
            caches.append(model.new_kv_cache())
        width = max(p.size for p in prompts)
        tokens = np.zeros((len(prompts), width), dtype=np.int64)
        for r, p in enumerate(prompts):
            tokens[r, width - p.size :] = p
        new_lens = np.asarray([p.size for p in prompts])
        out = model.forward_ragged(tokens, caches, new_lens)
        for r in range(len(prompts)):
            np.testing.assert_array_equal(out[r], refs[r][0])

    def test_decode_steps_stay_exact_after_ragged_prefill(self, model, rng):
        prompts = [rng.integers(0, 64, size=n) for n in (6, 2)]
        ref_caches = [model.new_kv_cache() for _ in prompts]
        refs = [
            model.forward_with_cache(p[None, :], c, last_only=True)
            for p, c in zip(prompts, ref_caches)
        ]
        caches = [model.new_kv_cache() for _ in prompts]
        width = max(p.size for p in prompts)
        tokens = np.zeros((2, width), dtype=np.int64)
        for r, p in enumerate(prompts):
            tokens[r, width - p.size :] = p
        out = model.forward_ragged(tokens, caches, np.asarray([6, 2]))
        for step in range(3):
            nxt = np.argmax(out[:, -1], axis=-1)
            out = model.forward_ragged(nxt[:, None], caches, np.ones(2, dtype=np.int64))
            for r in range(2):
                ref = model.forward_with_cache(
                    nxt[r][None, None], ref_caches[r], last_only=True
                )
                np.testing.assert_array_equal(out[r], ref[0])

    def test_full_logits_shape_without_last_only(self, model, rng):
        caches = [model.new_kv_cache(), model.new_kv_cache()]
        tokens = rng.integers(0, 64, size=(2, 5))
        out = model.forward_ragged(
            tokens, caches, np.asarray([5, 3]), last_only=False
        )
        assert out.shape == (2, 5, 64)

    def test_attention_kernel_matches_dense_masked_reference(self, rng):
        """Slicing pads off == applying the additive -inf mask (semantics)."""
        from repro.nn.attention import MultiHeadSelfAttention
        from repro.nn.kv_cache import LayerKVCache

        attn = MultiHeadSelfAttention(16, 2, rng=rng)
        new_lens = np.asarray([5, 2, 1])
        x = rng.normal(size=(3, 5, 16))
        kvs = [LayerKVCache() for _ in range(3)]
        out = attn.forward_ragged(x, kvs, new_lens)

        # Dense reference: batched projections, additive ragged mask, plain
        # softmax, batched context — mathematically identical, ulp-different.
        q = attn._split_heads(attn.q_proj.forward_det(x))
        k = attn._split_heads(attn.k_proj.forward_det(x))
        v = attn._split_heads(attn.v_proj.forward_det(x))
        scale = 1.0 / np.sqrt(attn.head_dim)
        mask = ragged_attention_mask(new_lens, np.zeros(3, dtype=np.int64))
        scores = det_matmul(q, k.transpose(0, 1, 3, 2)) * scale + mask[:, None]
        weights = softmax(scores, axis=-1)
        dense = attn.out_proj.forward_det(
            attn._merge_heads(det_matmul(weights, v))
        )
        for r, n in enumerate(new_lens):
            pad = 5 - n
            np.testing.assert_allclose(
                out[r, pad:], dense[r, pad:], atol=1e-12, rtol=1e-12
            )

    def test_validation(self, model, rng):
        caches = [model.new_kv_cache()]
        good = np.zeros((1, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            model.forward_ragged(good, caches, np.asarray([0]))
        with pytest.raises(ValueError):
            model.forward_ragged(good, caches, np.asarray([4]))
        with pytest.raises(ValueError):
            model.forward_ragged(good, caches + caches, np.asarray([3]))
        with pytest.raises(RuntimeError):
            model.train()
            model.forward_ragged(good, caches, np.asarray([3]))

    def test_max_position_overflow_rejected(self, model):
        model.eval()
        cache = model.new_kv_cache()
        max_pos = model.config.max_position
        model.forward_with_cache(np.zeros((1, max_pos), dtype=np.int64), cache)
        with pytest.raises(ValueError):
            model.forward_ragged(
                np.zeros((1, 1), dtype=np.int64), [cache], np.asarray([1])
            )
