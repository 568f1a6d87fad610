"""Block pool: allocation, reuse, amortized growth, gather correctness."""

import gc
import weakref
from functools import partial

import numpy as np
import pytest

from repro.nn.kv_cache import LayerKVCache
from repro.serve.kv_pool import BlockKVPool


def make_pool(**kwargs):
    defaults = dict(num_layers=2, num_heads=2, head_dim=4, block_size=4, initial_blocks=4)
    defaults.update(kwargs)
    return BlockKVPool(**defaults)


class TestAllocation:
    def test_allocate_free_roundtrip(self):
        pool = make_pool()
        ids = [pool.allocate() for _ in range(3)]
        assert len(set(ids)) == 3
        assert pool.blocks_in_use == 3
        pool.free(ids)
        assert pool.blocks_in_use == 0

    def test_freed_blocks_are_reused(self):
        """The acceptance property: retired requests' blocks serve new ones."""
        pool = make_pool()
        first = [pool.allocate() for _ in range(4)]
        pool.free(first)
        second = [pool.allocate() for _ in range(4)]
        assert set(second) == set(first)  # no growth: same physical blocks
        assert pool.blocks_reused == 4
        assert pool.grow_events == 0

    def test_growth_is_amortized_not_per_token(self):
        """Allocating far beyond the initial capacity grows O(log n) times."""
        pool = make_pool(initial_blocks=2)
        for _ in range(128):
            pool.allocate()
        # 2 -> 4 -> 8 -> 16 -> 32 -> 64 -> 128: geometric, not per-allocation.
        assert pool.grow_events <= 7
        assert pool.capacity_blocks >= 128

    def test_growth_preserves_stored_values(self):
        pool = make_pool(initial_blocks=1)
        seq = pool.sequence()
        k = np.arange(2 * 6 * 4, dtype=np.float64).reshape(1, 2, 6, 4)
        seq.append_many(0, k, -k)
        for _ in range(pool.capacity_blocks * 2):  # force at least one grow
            pool.allocate()
        k_all, v_all = seq.gather(0)
        np.testing.assert_array_equal(k_all, k)
        np.testing.assert_array_equal(v_all, -k)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_pool(block_size=0)
        with pytest.raises(ValueError):
            make_pool(grow_factor=1.0)


class TestSequenceKV:
    def test_append_gather_matches_layer_kv_cache_exactly(self):
        """The pooled cache is a drop-in for LayerKVCache, bit-for-bit."""
        rng = np.random.default_rng(0)
        pool = make_pool()
        seq = pool.sequence()
        ref = LayerKVCache()
        for chunk_len in (5, 1, 1, 3, 1):
            k = rng.normal(size=(1, 2, chunk_len, 4))
            v = rng.normal(size=(1, 2, chunk_len, 4))
            k_pool, v_pool = seq.layers[0].append(k, v)
            k_ref, v_ref = ref.append(k, v)
            np.testing.assert_array_equal(k_pool, k_ref)
            np.testing.assert_array_equal(v_pool, v_ref)
        assert seq.layers[0].seq_len == ref.seq_len == 11

    def test_gather_returns_strided_views_like_layer_kv_cache(self):
        """Same memory-layout class as LayerKVCache views (einsum parity)."""
        pool = make_pool()
        seq = pool.sequence()
        k = np.zeros((1, 2, 5, 4))
        k_all, v_all = seq.layers[0].append(k, k.copy())
        ref = LayerKVCache()
        k_ref, _ = ref.append(k, k.copy())
        assert k_all.flags.c_contiguous == k_ref.flags.c_contiguous == False  # noqa: E712

    def test_layers_are_independent(self):
        pool = make_pool()
        seq = pool.sequence()
        k0 = np.full((1, 2, 3, 4), 1.0)
        k1 = np.full((1, 2, 2, 4), 2.0)
        seq.layers[0].append(k0, k0)
        seq.layers[1].append(k1, k1)
        np.testing.assert_array_equal(seq.gather(0)[0], k0)
        np.testing.assert_array_equal(seq.gather(1)[0], k1)

    def test_blocks_shared_across_layers_not_duplicated(self):
        """One block covers all layers: appending to both layers of the same
        positions must not consume extra blocks."""
        pool = make_pool()
        seq = pool.sequence()
        k = np.zeros((1, 2, 6, 4))
        seq.layers[0].append(k, k)
        blocks_after_layer0 = len(seq.block_ids)
        seq.layers[1].append(k, k)
        assert len(seq.block_ids) == blocks_after_layer0 == 2  # ceil(6/4)

    def test_no_per_token_reallocation(self):
        """Decode-style growth: one token per step allocates only on block
        boundaries and never copies existing history."""
        pool = make_pool(initial_blocks=16)
        seq = pool.sequence()
        token = np.zeros((1, 2, 1, 4))
        for _ in range(32):
            seq.layers[0].append(token, token)
        # 32 tokens / block_size 4 = 8 allocations, not 32.
        assert pool.blocks_allocated == 8
        assert pool.grow_events == 0

    def test_release_is_idempotent_and_frees_blocks(self):
        pool = make_pool()
        seq = pool.sequence()
        k = np.zeros((1, 2, 9, 4))
        seq.layers[0].append(k, k)
        held = pool.blocks_in_use
        assert held == 3
        seq.release()
        seq.release()
        assert pool.blocks_in_use == 0

    def test_dropped_sequence_frees_without_cyclic_collector(self):
        """A sequence and its layer views form no reference cycle, so the
        last reference going away frees the sequence — and a pool no one
        else holds — at once, not whenever the cyclic collector next runs."""
        pool = make_pool()
        seq = pool.sequence()
        seq.layers[0].append(np.zeros((1, 2, 5, 4)), np.zeros((1, 2, 5, 4)))
        seq.release()
        seq_ref, pool_ref = weakref.ref(seq), weakref.ref(pool)
        gc.disable()
        try:
            del seq, pool
            assert seq_ref() is None and pool_ref() is None
        finally:
            gc.enable()

    def test_use_after_release_rejected(self):
        pool = make_pool()
        seq = pool.sequence()
        seq.release()
        with pytest.raises(RuntimeError):
            seq.layers[0].append(np.zeros((1, 2, 1, 4)), np.zeros((1, 2, 1, 4)))

    def test_shape_validation(self):
        pool = make_pool()
        seq = pool.sequence()
        with pytest.raises(ValueError):
            seq.layers[0].append(np.zeros((2, 2, 1, 4)), np.zeros((2, 2, 1, 4)))
        with pytest.raises(ValueError):
            seq.layers[0].append(np.zeros((1, 2, 1, 4)), np.zeros((1, 2, 2, 4)))


class TestRollback:
    """Speculative rollback on the pooled cache: blocks, refcounts, COW."""

    def _fill_all(self, seq, tokens, value=1.0):
        k = np.full((1, 2, tokens, 4), value)
        for layer in range(seq.pool.num_layers):
            seq.layers[layer].append(k, -k)

    def test_rollback_then_reappend_is_bit_identical(self):
        rng = np.random.default_rng(3)
        pool = make_pool()
        seq, ref = pool.sequence(), pool.sequence()
        base_k = rng.normal(size=(1, 2, 6, 4))
        base_v = rng.normal(size=(1, 2, 6, 4))
        tail_k = rng.normal(size=(1, 2, 3, 4))
        tail_v = rng.normal(size=(1, 2, 3, 4))
        junk = rng.normal(size=(1, 2, 4, 4))
        for layer in range(pool.num_layers):
            seq.layers[layer].append(base_k, base_v)
            ref.layers[layer].append(base_k, base_v)
        for layer in range(pool.num_layers):
            seq.layers[layer].append(junk, -junk)  # rejected drafts
        seq.rollback(4)
        assert seq.seq_len == 6
        for layer in range(pool.num_layers):
            k_roll, v_roll = seq.layers[layer].append(tail_k, tail_v)
            k_ref, v_ref = ref.layers[layer].append(tail_k, tail_v)
            np.testing.assert_array_equal(k_roll, k_ref)
            np.testing.assert_array_equal(v_roll, v_ref)

    def test_rollback_frees_whole_blocks_across_boundaries(self):
        pool = make_pool()
        seq = pool.sequence()
        self._fill_all(seq, 10)  # 3 blocks (4+4+2)
        assert pool.blocks_in_use == 3
        seq.rollback(7)  # back to 3 tokens: one partial block
        assert seq.seq_len == 3
        assert len(seq.block_ids) == 1
        assert pool.blocks_in_use == 1
        seq.rollback(3)  # down to empty
        assert seq.seq_len == 0
        assert seq.block_ids == []
        assert pool.blocks_in_use == 0

    def test_rollback_shared_block_drops_reference_not_content(self):
        """A freed shared block survives for its other holder, bytes intact."""
        pool = make_pool(prefix_caching=True)
        writer = pool.sequence()
        self._fill_all(writer, 8, value=5.0)
        writer.register_prefix(list(range(8)))
        reader = pool.sequence()
        assert reader.adopt_prefix(list(range(8))) == 8
        reader.rollback(8)  # drop everything it adopted
        assert reader.seq_len == 0
        # The index still holds the blocks; a fresh adopter reads 5.0s.
        fresh = pool.sequence()
        assert fresh.adopt_prefix(list(range(8))) == 8
        np.testing.assert_array_equal(
            fresh.gather(0)[0], np.full((1, 2, 8, 4), 5.0)
        )

    def test_rollback_mid_shared_block_forks_before_truncate(self):
        """A partial shared tail is forked so the cached prefix stays immutable."""
        pool = make_pool(prefix_caching=True)
        writer = pool.sequence()
        self._fill_all(writer, 4, value=7.0)
        writer.register_prefix(list(range(4)))
        reader = pool.sequence()
        reader.adopt_prefix(list(range(4)), max_tokens=3)  # partial tail
        shared_block = reader.block_ids[0]
        assert pool.refcount(shared_block) >= 2
        forks_before = pool.cow_forks
        reader.rollback(1)  # 3 -> 2 committed, mid-block, still shared
        assert pool.cow_forks == forks_before + 1
        assert reader.block_ids[0] != shared_block
        # Writing through the fork must not touch the registered bytes.
        two = np.full((1, 2, 2, 4), -9.0)
        for layer in range(pool.num_layers):
            reader.layers[layer].append(two, two)
        np.testing.assert_array_equal(
            writer.gather(0)[0], np.full((1, 2, 4, 4), 7.0)
        )

    def test_private_partial_tail_not_forked(self):
        pool = make_pool()
        seq = pool.sequence()
        self._fill_all(seq, 6)
        forks = pool.cow_forks
        seq.rollback(1)  # 5 committed: partial tail, refcount 1
        assert pool.cow_forks == forks
        assert seq.seq_len == 5

    def test_rollback_to_exact_block_boundary_keeps_boundary_block(self):
        """Rolling back to a length that exactly fills its last block must
        keep that block (ceil division, not floor) and free only the rest."""
        pool = make_pool()
        seq = pool.sequence()
        self._fill_all(seq, 8)  # exactly 2 full blocks
        assert pool.blocks_in_use == 2
        seq.rollback(4)  # back to 4 tokens: the boundary block stays
        assert seq.seq_len == 4
        assert len(seq.block_ids) == 1
        assert pool.blocks_in_use == 1
        np.testing.assert_array_equal(
            seq.gather(0)[0], np.full((1, 2, 4, 4), 1.0)
        )

    def test_rollback_onto_shared_boundary_block_neither_frees_nor_forks(self):
        """Rollback landing exactly on a shared block boundary: the still-
        referenced boundary block survives untouched (no free, no COW fork —
        future appends open a fresh block, so the cached bytes can't be hit)."""
        pool = make_pool(prefix_caching=True)
        writer = pool.sequence()
        self._fill_all(writer, 8, value=5.0)  # 2 full blocks
        writer.register_prefix(list(range(8)))
        reader = pool.sequence()
        assert reader.adopt_prefix(list(range(8))) == 8
        boundary = reader.block_ids[0]
        refs_before = pool.refcount(boundary)
        forks_before = pool.cow_forks
        reader.rollback(4)  # new length 4 == block_size: exact boundary
        assert reader.seq_len == 4
        assert reader.block_ids == [boundary]  # same physical block, no fork
        assert pool.refcount(boundary) == refs_before
        assert pool.cow_forks == forks_before
        # Appending after the boundary rollback writes a *new* block and
        # reproduces a fresh sequence bit-for-bit; the registered prefix
        # bytes stay intact for the writer.
        tail = np.full((1, 2, 3, 4), -2.0)
        fresh = pool.sequence()
        self._fill_all(fresh, 4, value=5.0)
        for layer in range(pool.num_layers):
            k_roll, v_roll = reader.layers[layer].append(tail, -tail)
            k_ref, v_ref = fresh.layers[layer].append(tail, -tail)
            np.testing.assert_array_equal(k_roll, k_ref)
            np.testing.assert_array_equal(v_roll, v_ref)
        np.testing.assert_array_equal(
            writer.gather(0)[0], np.full((1, 2, 8, 4), 5.0)
        )

    def test_rollback_zero_is_noop_even_when_shared(self):
        """rollback(0) must not free, fork, or touch refcounts — even on a
        fully shared sequence."""
        pool = make_pool(prefix_caching=True)
        writer = pool.sequence()
        self._fill_all(writer, 8, value=3.0)
        writer.register_prefix(list(range(8)))
        reader = pool.sequence()
        reader.adopt_prefix(list(range(8)))
        blocks = list(reader.block_ids)
        refs = [pool.refcount(b) for b in blocks]
        forks = pool.cow_forks
        reader.rollback(0)
        assert reader.seq_len == 8
        assert reader.block_ids == blocks
        assert [pool.refcount(b) for b in blocks] == refs
        assert pool.cow_forks == forks

    def test_rollback_validation(self):
        pool = make_pool()
        seq = pool.sequence()
        self._fill_all(seq, 3)
        with pytest.raises(ValueError):
            seq.rollback(4)
        with pytest.raises(ValueError):
            seq.rollback(-1)
        seq.rollback(0)  # no-op
        assert seq.seq_len == 3
        seq.release()
        with pytest.raises(RuntimeError):
            seq.rollback(1)

    def test_rollback_mid_forward_rejected(self):
        pool = make_pool()
        seq = pool.sequence()
        k = np.zeros((1, 2, 3, 4))
        seq.layers[0].append(k, k)  # layer 1 not yet appended
        with pytest.raises(RuntimeError):
            seq.rollback(1)


class TestAppendRaw:
    """The compiled executor's batched-quantize KV path: pre-quantized
    bytes written through ``append_raw`` must equal quantize-on-write."""

    def test_pooled_append_raw_matches_append(self):
        from repro.fpformats.quantize import quantize

        rng = np.random.default_rng(5)
        pool = make_pool(kv_fmt="fp8_e4m3")
        via_raw, via_append = pool.sequence(), pool.sequence()
        for chunk in (5, 1, 3):
            k = rng.normal(size=(1, 2, chunk, 4))
            v = rng.normal(size=(1, 2, chunk, 4))
            k_raw, v_raw = via_raw.append_raw(
                0, quantize(k, pool.kv_fmt), quantize(v, pool.kv_fmt)
            )
            k_ref, v_ref = via_append.append_many(0, k, v)
            np.testing.assert_array_equal(k_raw, k_ref)
            np.testing.assert_array_equal(v_raw, v_ref)

    def test_layer_view_exposes_fmt_and_raw_path(self):
        pool = make_pool(kv_fmt="fp8_e4m3")
        view = pool.sequence().layers[0]
        assert view.kv_fmt is pool.kv_fmt
        assert callable(view.append_raw)

    def test_private_cache_append_raw_matches_append(self):
        from repro.fpformats.quantize import quantize

        rng = np.random.default_rng(6)
        via_raw, via_append = LayerKVCache(fmt="fp8_e4m3"), LayerKVCache(fmt="fp8_e4m3")
        for chunk in (4, 1, 1):
            k = rng.normal(size=(1, 2, chunk, 4))
            v = rng.normal(size=(1, 2, chunk, 4))
            k_raw, v_raw = via_raw.append_raw(
                quantize(k, via_raw.kv_fmt), quantize(v, via_raw.kv_fmt)
            )
            k_ref, v_ref = via_append.append(k, v)
            np.testing.assert_array_equal(k_raw, k_ref)
            np.testing.assert_array_equal(v_raw, v_ref)

    @pytest.mark.parametrize("pooled", [True, False])
    def test_append_raw_out_packs_history_into_given_arrays(self, pooled):
        """With ``out``, the whole history lands in the caller's arrays —
        the compiled executor's padded batch workspace — and the returned
        views are those arrays, byte-equal to the cache's own history."""
        rng = np.random.default_rng(7)
        if pooled:
            cache = make_pool(kv_fmt="fp8_e4m3").sequence()
            append, history = partial(cache.append_raw, 0), partial(cache.gather, 0)
        else:
            cache = LayerKVCache(fmt="fp8_e4m3")
            append, history = cache.append_raw, lambda: (cache.k, cache.v)
        k_out, v_out = np.zeros((1, 2, 16, 4)), np.zeros((1, 2, 16, 4))
        for chunk in (5, 1, 3):
            k, v = rng.normal(size=(2, 1, 2, chunk, 4))
            k_got, v_got = append(k, v, (k_out, v_out))
            assert np.shares_memory(k_got, k_out) and np.shares_memory(v_got, v_out)
            for got, want in zip((k_got, v_got), history()):
                np.testing.assert_array_equal(got, want)
        assert not np.any(k_out[:, :, 9:]) and not np.any(v_out[:, :, 9:])

    def test_append_raw_rejects_released_sequence(self):
        pool = make_pool()
        seq = pool.sequence()
        seq.release()
        with pytest.raises(RuntimeError):
            seq.append_raw(0, np.zeros((1, 2, 1, 4)), np.zeros((1, 2, 1, 4)))


class TestFreeHardening:
    """free() rejects bad ids instead of corrupting the free list."""

    def test_free_unknown_id_raises(self):
        pool = make_pool()
        with pytest.raises(ValueError, match="unknown block id"):
            pool.free([99])
        with pytest.raises(ValueError, match="unknown block id"):
            pool.free([-1])

    def test_double_free_raises(self):
        pool = make_pool()
        block = pool.allocate()
        pool.free([block])
        with pytest.raises(ValueError, match="double free"):
            pool.free([block])

    def test_free_of_never_allocated_id_raises(self):
        pool = make_pool()
        with pytest.raises(ValueError, match="double free"):
            pool.free([0])  # valid id, but never handed out

    def test_failed_free_does_not_corrupt_counters(self):
        """The regression the old code had: a bad free() silently
        double-appended the id and drove blocks_in_use negative."""
        pool = make_pool()
        block = pool.allocate()
        pool.free([block])
        before = (len(pool._free), pool.blocks_in_use)
        with pytest.raises(ValueError):
            pool.free([block])
        assert (len(pool._free), pool.blocks_in_use) == before
        # The recycled block is handed out exactly once.
        assert pool.allocate() == block
        assert pool.blocks_in_use == 1

    def test_failed_batch_free_is_atomic(self):
        """A rejected batch mutates nothing: no leaked or half-freed ids."""
        pool = make_pool()
        good = pool.allocate()
        other = pool.allocate()
        with pytest.raises(ValueError):
            pool.free([good, 99, other])
        assert pool.blocks_in_use == 2  # neither reference was dropped
        pool.free([good, other])  # the corrected retry succeeds
        assert pool.blocks_in_use == 0

    def test_batch_free_counts_duplicate_ids_against_refcount(self):
        pool = make_pool()
        block = pool.allocate()
        pool.share(block)  # refcount 2
        with pytest.raises(ValueError, match="double free"):
            pool.free([block, block, block])  # 3 drops > 2 references
        assert pool.blocks_in_use == 1
        pool.free([block, block])
        assert pool.blocks_in_use == 0

    def test_refcounted_free_releases_on_last_reference(self):
        pool = make_pool()
        block = pool.allocate()
        pool.share(block)
        pool.free([block])  # drops to 1: still in use
        assert pool.blocks_in_use == 1
        pool.free([block])  # drops to 0: returned
        assert pool.blocks_in_use == 0
        with pytest.raises(ValueError):
            pool.free([block])


class TestFreeListRecycling:
    """The invariant documented in _grow: recycled ids pop before grown ids."""

    def test_recycled_ids_pop_before_freshly_grown_ids(self):
        pool = make_pool(initial_blocks=2)
        first = [pool.allocate(), pool.allocate()]
        pool.free(first)  # both recycled, sitting on top of the free list
        pool._grow()  # grown ids are pushed *below* the recycled ones
        assert {pool.allocate(), pool.allocate()} == set(first)
        # Only after the recycled ids drain do fresh ids appear, lowest first.
        assert pool.allocate() == 2
        assert pool.blocks_reused == 2

    def test_grown_ids_pop_lowest_first(self):
        pool = make_pool(initial_blocks=1)
        assert pool.allocate() == 0
        got = [pool.allocate() for _ in range(3)]
        assert got == sorted(got)

    def test_peak_blocks_in_use_across_grow_free_cycles(self):
        pool = make_pool(initial_blocks=2)
        ids = [pool.allocate() for _ in range(5)]  # forces growth past 2
        assert pool.peak_blocks_in_use == 5
        pool.free(ids)
        assert pool.blocks_in_use == 0
        assert pool.peak_blocks_in_use == 5  # the high-water mark sticks
        for _ in range(3):
            pool.allocate()
        assert pool.peak_blocks_in_use == 5  # not exceeded: unchanged
        for _ in range(4):
            pool.allocate()
        assert pool.blocks_in_use == 7
        assert pool.peak_blocks_in_use == 7  # new high-water mark


class TestGatherWorkspaceReuse:
    """Satellite perf task: gather reuses per-layer workspaces across steps."""

    def test_decode_steps_reuse_the_workspace_buffer(self):
        pool = make_pool(initial_blocks=16)
        seq = pool.sequence()
        token = np.zeros((1, 2, 1, 4))
        seq.layers[0].append(token, token)
        ws = seq._ws_k[0]
        reallocs = 0
        for _ in range(30):
            seq.layers[0].append(token, token)
            if seq._ws_k[0] is not ws:
                reallocs += 1
                ws = seq._ws_k[0]
        # 31 appends with doubling growth: a handful of reallocations,
        # not one per decode step.
        assert reallocs <= 5

    def test_workspace_growth_is_amortized_doubling(self):
        pool = make_pool(initial_blocks=64)
        seq = pool.sequence()
        token = np.zeros((1, 2, 1, 4))
        capacities = set()
        for _ in range(100):
            seq.layers[0].append(token, token)
            capacities.add(seq._ws_k[0].shape[2])
        assert len(capacities) <= 8  # O(log n) distinct capacities

    def test_workspace_views_stay_strided_and_exact(self):
        """Layout class and bytes both match the per-call allocation."""
        rng = np.random.default_rng(1)
        pool = make_pool()
        seq = pool.sequence()
        ref = LayerKVCache()
        for chunk in (3, 1, 1, 6, 1):
            k = rng.normal(size=(1, 2, chunk, 4))
            v = rng.normal(size=(1, 2, chunk, 4))
            k_pool, v_pool = seq.layers[0].append(k, v)
            k_ref, v_ref = ref.append(k, v)
            assert not k_pool.flags.c_contiguous
            np.testing.assert_array_equal(k_pool, k_ref)
            np.testing.assert_array_equal(v_pool, v_ref)

    def test_release_drops_workspaces(self):
        pool = make_pool()
        seq = pool.sequence()
        token = np.zeros((1, 2, 1, 4))
        seq.layers[0].append(token, token)
        assert seq._ws_k[0] is not None
        seq.release()
        assert seq._ws_k[0] is None


class TestLayerKVCacheGrowth:
    """The private (generate-path) cache also grows amortized now."""

    def test_append_one_token_at_a_time_reallocates_logarithmically(self):
        kv = LayerKVCache()
        token = np.zeros((1, 2, 1, 8))
        for _ in range(200):
            kv.append(token, token.copy())
        assert kv.seq_len == 200
        # 16 -> 32 -> 64 -> 128 -> 256: five allocations, not 200.
        assert kv.realloc_count <= 5

    def test_views_track_appends(self):
        kv = LayerKVCache()
        k1 = np.full((1, 1, 2, 2), 3.0)
        kv.append(k1, k1.copy())
        k_all, _ = kv.append(k1 * 2, k1.copy() * 2)
        assert k_all.shape == (1, 1, 4, 2)
        np.testing.assert_array_equal(k_all[0, 0, :2], k1[0, 0])
        np.testing.assert_array_equal(k_all[0, 0, 2:], 2 * k1[0, 0])
