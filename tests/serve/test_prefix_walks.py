"""The prefix index's reclaim walks on randomized tries, and pool lifetime.

``evictable_count`` promises the transitive closure of what repeated
``evict`` (or ``demote`` and then ``evict``) can free; ``evict`` promises
LRU order among the current droppables.  These tests hold the walks to
both promises on random tries — shared prefixes, partial tails, blocks
pinned by live readers — and check that a served engine's pool (K/V
arrays included) is freed by reference counting alone, with the cyclic
collector off, after a round that evicts or demotes.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.model import OPTLanguageModel
from repro.serve import ServeEngine
from repro.serve.kv_pool import BlockKVPool
from repro.serve.workload import SCENARIOS, generate_workload

LAYERS, HEADS, DIM, BS = 2, 2, 4, 4
SEEDS = range(8)


def make_pool(**kwargs):
    return BlockKVPool(
        num_layers=LAYERS,
        num_heads=HEADS,
        head_dim=DIM,
        block_size=BS,
        initial_blocks=8,
        prefix_caching=True,
        **kwargs,
    )


def random_prompts(rng, count=12):
    """Prompts that branch off one another at random points."""
    prompts: list[list[int]] = []
    for _ in range(count):
        head: list[int] = []
        if prompts and rng.random() < 0.7:
            parent = prompts[int(rng.integers(len(prompts)))]
            head = parent[: int(rng.integers(len(parent) + 1))]
        tail = rng.integers(0, 3, size=int(rng.integers(1, 2 * BS + 3))).tolist()
        prompts.append(head + tail)
    return prompts


def build_trie(pool, rng):
    """Register random prompts; returns the readers pinning some of them."""
    prompts = random_prompts(rng)
    for value, tokens in enumerate(prompts):
        writer = pool.sequence()
        chunk = np.full((1, HEADS, len(tokens), DIM), float(value))
        for layer in range(LAYERS):
            writer.layers[layer].append(chunk, -chunk)
        writer.register_prefix(tokens)
        writer.release()
    readers = []
    for tokens in prompts:
        if rng.random() < 0.3:
            reader = pool.sequence()
            reader.adopt_prefix(tokens)
            readers.append(reader)
    # Touch a random subset so LRU order differs from insertion order.
    for tokens in prompts:
        if rng.random() < 0.5:
            pool.prefix.match(tokens)
    return readers


def present(candidate):
    _, container, handle, entry = candidate
    if isinstance(container, dict):
        return container.get(handle) is entry
    return any(e is entry for e in container)


def evict_one_at_a_time(pool):
    freed = 0
    while True:
        candidates = pool.prefix._evictable(pool)
        if not candidates:
            assert pool.prefix.evict(pool, 1) == 0
            return freed
        oldest = min(candidates, key=lambda c: c[0])
        assert pool.prefix.evict(pool, 1) == 1
        assert not present(oldest), "evict() skipped the least recently used entry"
        freed += 1
        pool.check_invariants()


@pytest.mark.parametrize("seed", SEEDS)
def test_eviction_frees_exactly_the_evictable_count_in_lru_order(seed):
    rng = np.random.default_rng(seed)
    pool = make_pool()
    readers = build_trie(pool, rng)
    expected = pool.prefix.evictable_count(pool)

    assert evict_one_at_a_time(pool) == expected
    assert pool.prefix.evictable_count(pool) == 0
    for reader in readers:
        reader.release()
    # With no reader left, every hot block the index holds is reclaimable.
    held = pool.blocks_in_use
    assert pool.prefix.evictable_count(pool) == held
    assert evict_one_at_a_time(pool) == held
    assert pool.blocks_in_use == 0
    assert len(pool.prefix) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_demotion_then_eviction_frees_exactly_the_evictable_count(seed):
    rng = np.random.default_rng(seed)
    pool = make_pool(max_blocks=256, tier_blocks=256)
    readers = build_trie(pool, rng)
    expected = pool.prefix.evictable_count(pool)

    demoted = 0
    while (freed := pool.prefix.demote(pool, 1)) > 0:
        demoted += freed
        pool.check_invariants()
    assert expected > 0 and pool.blocks_demoted > 0
    assert demoted + evict_one_at_a_time(pool) == expected
    assert pool.prefix.evictable_count(pool) == 0
    for reader in readers:
        reader.release()
    pool.check_invariants()


@pytest.mark.parametrize("tier_ratio", [0.0, 0.5], ids=["evict", "demote"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_served_engine_frees_pool_without_cyclic_collector(scenario, tier_ratio):
    model = OPTLanguageModel(get_config("opt-test"), rng=np.random.default_rng(12345))
    model.eval()
    workload = generate_workload(
        scenario, sessions=6, vocab_size=model.config.vocab_size, seed=7
    )
    gc.collect()
    gc.disable()
    try:
        engine = ServeEngine(
            model,
            max_batch_size=3,
            block_size=4,
            prefix_caching=True,
            max_blocks=12,
            tier_ratio=tier_ratio,
        )
        report = engine.serve(workload)
        assert len(report.completed) == len(workload)
        reclaimed = "blocks_demoted" if tier_ratio else "prefix_evictions"
        assert report.pool_stats[reclaimed] > 0
        engine_ref, pool_ref = weakref.ref(engine), weakref.ref(engine.pool)
        del engine, report
        assert engine_ref() is None and pool_ref() is None
    finally:
        gc.enable()
