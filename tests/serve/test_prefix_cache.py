"""Shared-prefix paged KV cache: trie index, adoption, copy-on-write.

The acceptance properties of the prefix-caching tentpole:

* adopting another request's blocks produces **bit-identical** served
  tokens (exactness tests live in ``test_engine_scheduling.py``);
* the trie matches full blocks and partial tails, holds its own
  references, and evicts LRU entries only when nobody else uses them;
* writing into a shared block forks it first, so sharers never observe
  each other's writes.
"""

import numpy as np
import pytest

from repro.serve.kv_pool import BlockKVPool, PoolExhaustedError


def make_pool(**kwargs):
    defaults = dict(
        num_layers=2,
        num_heads=2,
        head_dim=4,
        block_size=4,
        initial_blocks=8,
        prefix_caching=True,
    )
    defaults.update(kwargs)
    return BlockKVPool(**defaults)


def fill(seq, layer, tokens_worth, value=1.0, heads=2, head_dim=4):
    """Append ``tokens_worth`` positions of a recognizable constant."""
    k = np.full((1, heads, tokens_worth, head_dim), value)
    seq.layers[layer].append(k, -k)
    return k


def fill_all_layers(seq, tokens_worth, value=1.0):
    for layer in range(seq.pool.num_layers):
        fill(seq, layer, tokens_worth, value=value)


class TestPrefixIndex:
    def test_register_then_match_full_blocks(self):
        pool = make_pool()
        writer = pool.sequence()
        tokens = list(range(10))  # 2 full blocks + partial tail of 2
        fill_all_layers(writer, 10)
        added = writer.register_prefix(tokens)
        assert added == 3  # two full entries + one partial tail
        full_ids, partial_id, partial_len = pool.prefix.match(tokens)
        assert full_ids == writer.block_ids[:2]
        assert partial_id == writer.block_ids[2]
        assert partial_len == 2

    def test_match_respects_token_content(self):
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 8)
        writer.register_prefix([1, 2, 3, 4, 5, 6, 7, 8])
        full_ids, partial_id, partial_len = pool.prefix.match([1, 2, 3, 9])
        assert full_ids == []
        assert partial_id == writer.block_ids[0]
        assert partial_len == 3  # first three tokens of the first block

    def test_registration_is_idempotent(self):
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 6)
        tokens = [5, 6, 7, 8, 9, 10]
        assert writer.register_prefix(tokens) == 2
        assert writer.register_prefix(tokens) == 0  # already covered
        assert len(pool.prefix) == 2

    def test_index_holds_blocks_after_writer_releases(self):
        """Cache retention across requests: the chat-multi-turn property."""
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 8)
        writer.register_prefix(list(range(8)))
        writer.release()
        assert pool.blocks_in_use == 2  # the index's references survive
        full_ids, _, _ = pool.prefix.match(list(range(8)))
        assert len(full_ids) == 2

    def test_recomputed_span_is_deduped_onto_the_indexed_block(self):
        """Two requests that prefilled the same prefix side by side: the
        later registrant switches to the indexed blocks and frees its copies."""
        pool = make_pool()
        first, second = pool.sequence(), pool.sequence()
        fill_all_layers(first, 8, value=2.0)
        fill_all_layers(second, 12, value=2.0)
        first.register_prefix(list(range(8)))
        own = list(second.block_ids)
        assert second.register_prefix(list(range(12))) == 1  # only block 3 is new
        assert second.block_ids == first.block_ids + own[2:]
        assert pool.blocks_in_use == 3
        for block in first.block_ids:
            assert pool.refcount(block) == 3  # first, second and the index
        for layer in range(2):
            k_all, v_all = second.gather(layer)
            np.testing.assert_array_equal(k_all, np.full((1, 2, 12, 4), 2.0))
            np.testing.assert_array_equal(v_all, np.full((1, 2, 12, 4), -2.0))
        pool.check_invariants()

    def test_deduped_registrant_does_not_pin_duplicate_ancestors(self):
        """Without the dedupe the index would hold the first request's
        blocks as ancestors of the registrant's entries: referenced by
        nobody else, yet unevictable while the registrant runs."""
        pool = make_pool(initial_blocks=6, max_blocks=6)
        first, second = pool.sequence(), pool.sequence()
        fill_all_layers(first, 8)
        fill_all_layers(second, 12)
        first.register_prefix(list(range(8)))
        first.release()
        second.register_prefix(list(range(12)))
        assert pool.blocks_in_use == 3
        assert pool.can_provide(3)
        fill_all_layers(second, 12)  # grows to 24 positions: three new blocks
        assert len(second.block_ids) == 6
        pool.check_invariants()

    def test_register_more_tokens_than_committed_rejected(self):
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 3)
        with pytest.raises(ValueError):
            writer.register_prefix([1, 2, 3, 4])


class TestAdoption:
    def test_adopted_blocks_share_storage_and_bytes(self):
        rng = np.random.default_rng(0)
        pool = make_pool()
        writer = pool.sequence()
        k = rng.normal(size=(1, 2, 8, 4))
        v = rng.normal(size=(1, 2, 8, 4))
        for layer in range(2):
            writer.layers[layer].append(k, v)
        tokens = list(range(100, 108))
        writer.register_prefix(tokens)

        reader = pool.sequence()
        adopted = reader.adopt_prefix(tokens)
        assert adopted == 8
        assert reader.block_ids == writer.block_ids
        assert reader.adopted_tokens == 8
        for layer in range(2):
            k_all, v_all = reader.gather(layer)
            np.testing.assert_array_equal(k_all, k)
            np.testing.assert_array_equal(v_all, v)

    def test_adoption_caps_at_max_tokens(self):
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 8)
        tokens = list(range(8))
        writer.register_prefix(tokens)
        reader = pool.sequence()
        # The engine always leaves >= 1 position to compute.
        assert reader.adopt_prefix(tokens, max_tokens=7) == 7
        assert reader.seq_len == 7
        assert len(reader.block_ids) == 2  # second block adopted partially

    def test_adoption_bumps_refcounts_and_release_decrements(self):
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 4)
        writer.register_prefix(list(range(4)))
        block = writer.block_ids[0]
        assert pool.refcount(block) == 2  # writer + index
        reader = pool.sequence()
        reader.adopt_prefix(list(range(4)))
        assert pool.refcount(block) == 3
        assert pool.blocks_adopted == 1
        reader.release()
        writer.release()
        assert pool.refcount(block) == 1  # the index keeps it cached
        assert pool.blocks_in_use == 1

    def test_adopt_requires_empty_sequence(self):
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 4)
        writer.register_prefix(list(range(4)))
        seq = pool.sequence()
        fill_all_layers(seq, 1)
        with pytest.raises(RuntimeError):
            seq.adopt_prefix(list(range(4)))

    def test_pool_without_index_adopts_nothing(self):
        pool = make_pool(prefix_caching=False)
        seq = pool.sequence()
        assert seq.adopt_prefix([1, 2, 3]) == 0
        assert seq.register_prefix([]) == 0


class TestCopyOnWrite:
    def test_write_into_shared_tail_forks(self):
        """The adopter's writes never touch the shared block."""
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 6, value=1.0)  # 1 full block + tail of 2
        tokens = list(range(6))
        writer.register_prefix(tokens)
        tail = writer.block_ids[1]

        reader = pool.sequence()
        assert reader.adopt_prefix(tokens, max_tokens=5) == 5
        before_forks = pool.cow_forks
        fill_all_layers(reader, 3, value=9.0)  # writes positions 5..7
        assert pool.cow_forks == before_forks + 1
        assert reader.block_ids[1] != tail  # forked a private copy

        # The writer still reads its own bytes everywhere.
        for layer in range(2):
            k_writer, _ = writer.gather(layer)
            np.testing.assert_array_equal(k_writer, np.full((1, 2, 6, 4), 1.0))
        # The reader sees the adopted prefix plus its own writes.
        for layer in range(2):
            k_reader, _ = reader.gather(layer)
            np.testing.assert_array_equal(k_reader[0, :, :5], np.full((2, 5, 4), 1.0))
            np.testing.assert_array_equal(k_reader[0, :, 5:], np.full((2, 3, 4), 9.0))

    def test_fork_copies_all_layers_once(self):
        """Layer 0's write forks; layers 1.. write into the same fork."""
        rng = np.random.default_rng(3)
        pool = make_pool()
        writer = pool.sequence()
        per_layer = [rng.normal(size=(1, 2, 6, 4)) for _ in range(2)]
        for layer, k in enumerate(per_layer):
            writer.layers[layer].append(k, -k)
        tokens = list(range(6))
        writer.register_prefix(tokens)

        reader = pool.sequence()
        reader.adopt_prefix(tokens, max_tokens=5)
        new = rng.normal(size=(1, 2, 1, 4))
        for layer in range(2):
            reader.layers[layer].append(new, -new)
        assert pool.cow_forks == 1
        for layer in range(2):
            k_all, v_all = reader.gather(layer)
            np.testing.assert_array_equal(k_all[0, :, :5], per_layer[layer][0, :, :5])
            np.testing.assert_array_equal(k_all[0, :, 5:], new[0])
            np.testing.assert_array_equal(v_all[0, :, 5:], -new[0])

    def test_owner_decode_past_registered_tail_forks_too(self):
        """Registration freezes the tail: even the writer forks to extend it."""
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 6, value=1.0)
        writer.register_prefix(list(range(6)))
        tail = writer.block_ids[1]
        fill_all_layers(writer, 1, value=5.0)  # decode writes position 6
        assert writer.block_ids[1] != tail
        assert pool.cow_forks == 1
        # The cached entry still matches and still reads the original bytes.
        _, partial_id, partial_len = pool.prefix.match(list(range(6)))
        assert partial_id == tail
        assert partial_len == 2


class TestEvictionAndExhaustion:
    def test_lru_eviction_frees_unreferenced_entries(self):
        pool = make_pool(initial_blocks=4, max_blocks=4)
        writer = pool.sequence()
        fill_all_layers(writer, 8)  # 2 blocks
        writer.register_prefix(list(range(8)))
        writer.release()
        assert pool.blocks_in_use == 2
        # Exhaust the pool: two fresh blocks then one more forces eviction.
        seq = pool.sequence()
        fill_all_layers(seq, 8)
        assert pool.blocks_in_use == 4
        fill_all_layers(seq, 4)  # needs a 3rd block -> evict a cached entry
        assert pool.prefix_evictions >= 1
        assert len(pool.prefix) <= 1

    def test_adopted_entries_are_not_evictable(self):
        pool = make_pool(initial_blocks=4, max_blocks=4)
        writer = pool.sequence()
        fill_all_layers(writer, 8)
        tokens = list(range(8))
        writer.register_prefix(tokens)
        writer.release()
        reader = pool.sequence()
        reader.adopt_prefix(tokens, max_tokens=7)
        assert pool.prefix.evictable_count(pool) == 0
        hog = pool.sequence()
        fill_all_layers(hog, 8)  # takes the 2 free blocks
        with pytest.raises(PoolExhaustedError):
            fill_all_layers(hog, 4)

    def test_evictable_count_is_transitive_and_blocked_by_children(self):
        pool = make_pool()
        writer = pool.sequence()
        fill_all_layers(writer, 8)
        tokens = list(range(8))
        writer.register_prefix(tokens)
        writer.release()
        # Both chained entries are reclaimable once leaves go first.
        assert pool.prefix.evictable_count(pool) == 2
        reader = pool.sequence()
        reader.adopt_prefix(tokens)  # pins both blocks
        assert pool.prefix.evictable_count(pool) == 0
        reader.release()
        assert pool.prefix.evictable_count(pool) == 2

    def test_can_provide_accounts_for_growth_and_eviction(self):
        pool = make_pool(initial_blocks=4, max_blocks=6)
        assert pool.can_provide(6)
        assert not pool.can_provide(7)
        writer = pool.sequence()
        fill_all_layers(writer, 16)  # all 4 initial + grown to 6? no: 4 blocks
        assert pool.can_provide(2)
        assert not pool.can_provide(3)
        writer.register_prefix(list(range(16)))
        writer.release()
        # 4 cached blocks are evictable again on top of the headroom.
        assert pool.can_provide(6)


class TestConcurrentTurnsOnATightPool:
    """Turns of one chat that prefill side by side recompute the shared
    opening; the later registrant's copy is deduped onto the indexed blocks.

    The pool holds the longest request plus two blocks.  Kept, the copy
    would leave the index pinning the earlier turn's blocks under the
    later turn's entries, and the lone remaining request ran out of blocks
    (``PoolExhaustedError``) mid-decode.
    """

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    @pytest.mark.parametrize("policy", ["fp16", "bf16-fp8kv"])
    def test_serves_every_turn_exactly(self, policy, backend):
        from repro.nn.config import get_config
        from repro.nn.generation import generate
        from repro.nn.model import OPTLanguageModel
        from repro.serve import ServeEngine, generate_workload

        model = OPTLanguageModel(
            get_config("opt-test"), rng=np.random.default_rng(39), policy=policy
        )
        model.eval()
        workload = generate_workload(
            "chat-multiturn", num_requests=5, vocab_size=model.config.vocab_size, seed=39
        )
        longest = max(r.prompt_ids.size + r.max_new_tokens for r in workload)
        engine = ServeEngine(
            model,
            max_batch_size=2,
            block_size=2,
            prefix_caching=True,
            prefill_budget=3,
            max_blocks=-(-longest // 2) + 2,
            backend=backend,
        )
        report = engine.serve(workload)
        assert len(report.completed) == len(workload)
        engine.pool.check_invariants()
        for request in workload:
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens,
                generate(
                    model,
                    request.prompt_ids,
                    max_new_tokens=request.max_new_tokens,
                    temperature=request.temperature,
                    top_k=request.top_k,
                    rng=np.random.default_rng(request.seed),
                    stop_tokens=request.stop_tokens,
                ),
            )
