"""KV-cache regression tests: incremental decoding must be bit-exact."""

from functools import lru_cache

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.functional import causal_mask, causal_mask_offset, det_matmul
from repro.nn.generation import generate, generate_batch
from repro.nn.kv_cache import KVCache, LayerKVCache
from repro.nn.model import OPTLanguageModel


@pytest.fixture
def model(rng):
    return OPTLanguageModel(get_config("opt-test"), rng=rng)


@lru_cache(maxsize=None)
def preset_model(preset):
    return OPTLanguageModel(get_config(preset), rng=np.random.default_rng(9))


def preset_weight(preset, name):
    """A linear's weight operand, in the layout the model passes it."""
    model = preset_model(preset)
    if name == "logits":
        return model.token_embedding.weight.data.T
    block = model.blocks[-1]
    if name in ("fc1", "fc2"):
        return getattr(block.ffn, name).weight.data
    return getattr(block.attention, name).weight.data


class TestDeterministicMatmul:
    def test_row_slices_are_bit_identical(self, rng):
        """The property the KV cache relies on: rows don't see the batch."""
        x = rng.normal(size=(48, 96))
        w = rng.normal(size=(96, 384))
        full = det_matmul(x, w)
        for i in (0, 17, 47):
            np.testing.assert_array_equal(det_matmul(x[i : i + 1], w), full[i : i + 1])

    def test_matches_blas_closely(self, rng):
        x = rng.normal(size=(16, 32))
        w = rng.normal(size=(32, 8))
        np.testing.assert_allclose(det_matmul(x, w), x @ w, rtol=1e-13)

    def test_batched_dims(self, rng):
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        out = det_matmul(a, b)
        assert out.shape == (2, 3, 4, 6)

    @pytest.mark.parametrize("name", ["q_proj", "out_proj", "fc1", "fc2", "logits"])
    @pytest.mark.parametrize("preset", ["opt-test", "opt-125m-sim", "opt-350m-sim"])
    def test_rows_do_not_see_the_batch_at_model_shapes(self, preset, name):
        """Every linear, fc2's ``4 * embed_dim`` contraction and the
        transposed logit table included: a row's bytes do not depend on
        which rows share the call, their order, or the leading axes."""
        w = preset_weight(preset, name)
        rows = 12
        x = np.random.default_rng(0).normal(size=(rows, w.shape[0]))
        full = det_matmul(x, w)
        for i in range(rows):
            np.testing.assert_array_equal(det_matmul(x[i : i + 1], w), full[i : i + 1])
        np.testing.assert_array_equal(det_matmul(x[3:9], w), full[3:9])
        np.testing.assert_array_equal(det_matmul(x[::-1], w), full[::-1])
        for shape in ((3, 4), (2, 3, 2)):
            stacked = det_matmul(x.reshape(*shape, w.shape[0]), w)
            np.testing.assert_array_equal(stacked.reshape(rows, -1), full)


class TestCausalMaskOffset:
    def test_no_past_equals_square_mask(self):
        np.testing.assert_array_equal(causal_mask_offset(6, 6), causal_mask(6))

    def test_with_past_allows_all_cached_positions(self):
        mask = causal_mask_offset(2, 5)
        # Row 0 is absolute position 3: sees keys 0..3, not 4.
        np.testing.assert_array_equal(mask[0], [0.0, 0.0, 0.0, 0.0, -np.inf])
        np.testing.assert_array_equal(mask[1], np.zeros(5))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            causal_mask_offset(0, 4)
        with pytest.raises(ValueError):
            causal_mask_offset(5, 4)


class TestKVCacheContainers:
    def test_empty_cache_shape(self, model):
        cache = model.new_kv_cache()
        assert len(cache) == len(model.blocks)
        assert cache.seq_len == 0

    def test_append_grows_seq_axis(self):
        kv = LayerKVCache()
        k = np.zeros((2, 4, 3, 8))
        kv.append(k, k.copy())
        kv.append(k[:, :, :1], k[:, :, :1].copy())
        assert kv.seq_len == 4

    def test_append_validates_shapes(self):
        kv = LayerKVCache()
        with pytest.raises(ValueError):
            kv.append(np.zeros((2, 4, 3, 8)), np.zeros((2, 4, 2, 8)))
        kv.append(np.zeros((2, 4, 3, 8)), np.zeros((2, 4, 3, 8)))
        with pytest.raises(ValueError):
            kv.append(np.zeros((1, 4, 1, 8)), np.zeros((1, 4, 1, 8)))

    def test_layer_count_validated_by_model(self, model):
        model.eval()
        with pytest.raises(ValueError):
            model.forward_with_cache(np.zeros((1, 2), dtype=np.int64), KVCache(1))


class TestIncrementalExactness:
    """The acceptance criterion: cached decoding == full re-prefill, exactly."""

    def _incremental_logits(self, model, ids, prefill):
        cache = model.new_kv_cache()
        chunks = [model.forward_with_cache(ids[:, :prefill], cache)]
        for t in range(prefill, ids.shape[1]):
            chunks.append(model.forward_with_cache(ids[:, t : t + 1], cache))
        return np.concatenate(chunks, axis=1)

    def test_incremental_matches_full_prefill_exactly(self, model, rng):
        model.eval()
        ids = rng.integers(0, 64, size=(2, 20))
        incremental = self._incremental_logits(model, ids, prefill=5)
        full = model.forward_with_cache(ids, model.new_kv_cache())
        np.testing.assert_array_equal(incremental, full)

    def test_exact_with_normalizer_swap(self, model, rng, paper_format):
        """Bit-exactness holds with the IterL2Norm eval normalizer active."""
        model.eval()
        model.replace_layernorm("iterl2norm", fmt=paper_format, num_steps=5)
        try:
            ids = rng.integers(0, 64, size=(1, 12))
            incremental = self._incremental_logits(model, ids, prefill=4)
            full = model.forward_with_cache(ids, model.new_kv_cache())
            np.testing.assert_array_equal(incremental, full)
        finally:
            model.restore_layernorm()

    def test_cached_forward_close_to_standard_forward(self, model, rng):
        """The det-matmul path tracks the BLAS forward to float64 precision."""
        model.eval()
        ids = rng.integers(0, 64, size=(2, 10))
        cached = model.forward_with_cache(ids, model.new_kv_cache())
        standard = model(ids)
        np.testing.assert_allclose(cached, standard, atol=1e-9)

    def test_last_only_matches_full_logits_slice(self, model, rng):
        model.eval()
        ids = rng.integers(0, 64, size=(2, 9))
        full = model.forward_with_cache(ids, model.new_kv_cache())
        last = model.forward_with_cache(ids, model.new_kv_cache(), last_only=True)
        assert last.shape == (2, 1, 64)
        np.testing.assert_array_equal(last, full[:, -1:, :])

    def test_training_mode_rejected(self, model):
        model.train()
        with pytest.raises(RuntimeError):
            model.forward_with_cache(np.zeros((1, 2), dtype=np.int64), model.new_kv_cache())

    def test_cache_overflow_rejected(self, model):
        model.eval()
        cache = model.new_kv_cache()
        ids = np.zeros((1, 32), dtype=np.int64)
        model.forward_with_cache(ids, cache)
        with pytest.raises(ValueError):
            model.forward_with_cache(np.zeros((1, 1), dtype=np.int64), cache)


class TestChunkedArgmax:
    def test_chunk_argmax_matches_sequential_greedy(self, model):
        """One multi-token cached call reproduces token-by-token greedy argmax."""
        model.eval()
        prompt = np.array([1, 2, 3])
        out = generate(model, prompt, max_new_tokens=6, temperature=0.0)
        continuation = out[prompt.size :]

        cache = model.new_kv_cache()
        model.forward_with_cache(prompt[None, :-1], cache)
        assert int(np.argmax(model.forward_with_cache(
            prompt[None, -1:], cache, last_only=True)[0, -1])) == continuation[0]
        # Feed the first five generated tokens in one call.
        chunk = out[None, prompt.size : prompt.size + 5]
        greedy = np.argmax(model.forward_with_cache(chunk, cache), axis=-1)
        np.testing.assert_array_equal(greedy[0], continuation[1:6])


class TestRaggedLastOnly:
    def test_last_only_matches_full_logits_trailing_slot(self, model, rng):
        """``last_only`` returns the bytes of the full output's final slot."""
        model.eval()
        caches = [model.new_kv_cache() for _ in range(2)]
        warm = rng.integers(0, 64, size=(2, 4))
        for row, cache in enumerate(caches):
            model.forward_with_cache(warm[row : row + 1], cache)
        ids = rng.integers(0, 64, size=(2, 3))
        new_lens = np.array([3, 1])
        ids[1, :2] = 0  # pad lanes of the short row

        full_caches = [model.new_kv_cache() for _ in range(2)]
        for row, cache in enumerate(full_caches):
            model.forward_with_cache(warm[row : row + 1], cache)
        full = model.forward_ragged(ids, full_caches, new_lens, last_only=False)
        last = model.forward_ragged(ids, caches, new_lens)
        assert last.shape == (2, 1, 64)
        np.testing.assert_array_equal(last, full[:, -1:, :])


class TestCachedGeneration:
    def test_cached_greedy_is_argmax_of_uncached_reference(self, model):
        """Every cached-path token maximizes the reference (uncached) logits.

        Token-by-token replay against the plain forward, with a tolerance on
        the argmax margin, so the test cannot flake on a BLAS build where
        the two matmul kernels differ in the last ulp.
        """
        prompt = np.array([1, 2, 3])
        max_pos = model.config.max_position
        # 43 tokens > max_position=32: the sliding-window tail is covered.
        out = generate(model, prompt, max_new_tokens=40, temperature=0.0)
        assert out.size == 43
        for t in range(prompt.size, out.size):
            context = out[max(0, t - max_pos) : t][None, :]
            reference = model(context)[0, -1]
            chosen = out[t]
            assert reference[chosen] >= reference.max() - 1e-9

    def test_cached_greedy_is_deterministic(self, model):
        prompt = np.array([1, 2, 3])
        out1 = generate(model, prompt, max_new_tokens=40, temperature=0.0)
        out2 = generate(model, prompt, max_new_tokens=40, temperature=0.0)
        np.testing.assert_array_equal(out1, out2)

    def test_zero_new_tokens_returns_prompt(self, model):
        prompt = np.array([4, 5, 6])
        np.testing.assert_array_equal(
            generate(model, prompt, max_new_tokens=0), prompt
        )

    def test_sampling_reproducible_across_paths_shape(self, model):
        out = generate(
            model,
            np.array([1]),
            max_new_tokens=4,
            temperature=1.0,
            top_k=5,
            rng=np.random.default_rng(0),
        )
        assert out.size == 5
        assert np.all((out >= 0) & (out < 64))


class TestBatchedGeneration:
    def test_batch_rows_match_single_sequences(self, model):
        """Row independence: batched greedy decode equals per-prompt decode."""
        prompts = np.array([[1, 2, 3], [9, 8, 7], [4, 4, 4]])
        batch = generate_batch(model, prompts, max_new_tokens=12, temperature=0.0)
        for row in range(prompts.shape[0]):
            single = generate(model, prompts[row], max_new_tokens=12, temperature=0.0)
            np.testing.assert_array_equal(batch[row], single)

    def test_batch_slides_past_max_position(self, model):
        """Row independence holds across the sliding-window rebuild."""
        prompts = np.tile(np.arange(4), (2, 1))
        out = generate_batch(model, prompts, max_new_tokens=35, temperature=0.0)
        assert out.shape == (2, 39)
        # Same code path with a single row: must be bit-identical.
        alone = generate_batch(model, prompts[:1], max_new_tokens=35, temperature=0.0)
        np.testing.assert_array_equal(out[0], alone[0])

    def test_zero_new_tokens(self, model):
        prompts = np.array([[1, 2], [3, 4]])
        np.testing.assert_array_equal(
            generate_batch(model, prompts, max_new_tokens=0), prompts
        )

    def test_rejects_bad_shapes(self, model):
        with pytest.raises(ValueError):
            generate_batch(model, np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            generate_batch(model, np.zeros((2, 0), dtype=np.int64))
