"""Randomized property test: BlockKVPool against a naive reference model.

Satellite coverage for the pool's bookkeeping under adversarial
interleavings.  A seeded fuzzer drives long random sequences of
``alloc`` / ``share`` / ``fork`` / ``free`` / ``register_prefix`` /
``adopt_prefix`` / ``rollback`` / eviction operations through a bounded
pool.  Where every operation's effect is directly observable (the
alloc/free churn test) a dead-simple reference model shadows the exact
refcounts; the full-interleaving fuzzer checks the structural invariants
after every operation:

* refcounts are never negative;
* the free list contains no duplicates and no live blocks;
* ``blocks_in_use`` equals the number of blocks with a positive refcount;
* bytes written through one sequence are never observed through another
  (copy-on-write), and registered prefix bytes never change.
"""

import numpy as np
import pytest

from repro.serve.kv_pool import BlockKVPool, PoolExhaustedError

LAYERS, HEADS, DIM, BS = 2, 2, 4, 4


def make_pool(**kwargs):
    defaults = dict(
        num_layers=LAYERS,
        num_heads=HEADS,
        head_dim=DIM,
        block_size=BS,
        initial_blocks=8,
        prefix_caching=True,
    )
    defaults.update(kwargs)
    return BlockKVPool(**defaults)


class ReferenceModel:
    """Naive shadow bookkeeping: a dict of refcounts, nothing clever."""

    def __init__(self):
        self.refcount: dict[int, int] = {}

    def alloc(self, block_id):
        assert self.refcount.get(block_id, 0) == 0, "allocated a live block"
        self.refcount[block_id] = 1

    def share(self, block_id):
        assert self.refcount.get(block_id, 0) >= 1
        self.refcount[block_id] += 1

    def free(self, block_id):
        assert self.refcount.get(block_id, 0) >= 1, "double free"
        self.refcount[block_id] -= 1

    @property
    def live(self):
        return {b for b, c in self.refcount.items() if c > 0}


def check_structural_invariants(pool):
    counts = pool._refcount
    assert (counts >= 0).all(), "negative refcount"
    free = pool._free
    assert len(free) == len(set(free)), "duplicate ids in the free list"
    for block_id in free:
        assert counts[block_id] == 0, "live block on the free list"
    assert pool.blocks_in_use == int((counts > 0).sum())
    # Every id is either free or live: nothing leaks out of both worlds.
    assert len(free) + pool.blocks_in_use == pool.capacity_blocks


def check_against_reference(pool, ref):
    check_structural_invariants(pool)
    counts = pool._refcount
    live = {int(b) for b in np.flatnonzero(counts > 0)}
    assert live == ref.live
    for block_id, expected in ref.refcount.items():
        assert counts[block_id] == expected, f"refcount drift on {block_id}"


def fill(seq, tokens_worth, value):
    chunk = np.full((1, HEADS, tokens_worth, DIM), float(value))
    for layer in range(LAYERS):
        seq.layers[layer].append(chunk, -chunk)


@pytest.mark.parametrize("seed", range(6))
def test_randomized_interleavings_hold_invariants(seed):
    rng = np.random.default_rng(seed)
    pool = make_pool(max_blocks=24)

    sequences = {}  # live SequenceKV -> private write value
    registered = {}  # prefix key -> (writer value, registered length)
    next_value = 1.0
    # Real K/V bytes are a pure function of the token ids, so the index may
    # legitimately cross-match keys sharing a token prefix.  The fuzzer's
    # fill values are per-writer instead, so keys get a unique first token
    # to keep every registered prefix disjoint in the trie.
    key_serial = 0

    for _ in range(250):
        op = rng.choice(
            ["open", "append", "rollback", "register", "adopt", "close", "evict"]
        )
        try:
            if op == "open" or not sequences:
                seq = pool.sequence()
                sequences[seq] = next_value
                next_value += 1.0
            elif op == "append":
                seq = list(sequences)[rng.integers(len(sequences))]
                fill(seq, int(rng.integers(1, 6)), sequences[seq])
            elif op == "rollback":
                seq = list(sequences)[rng.integers(len(sequences))]
                if seq.seq_len:
                    seq.rollback(int(rng.integers(1, seq.seq_len + 1)))
            elif op == "register":
                seq = list(sequences)[rng.integers(len(sequences))]
                if seq.seq_len:
                    key_serial += 1
                    key = (10_000 + key_serial,) + tuple(
                        int(t) for t in rng.integers(0, 50, seq.seq_len - 1)
                    )
                    seq.register_prefix(list(key))
                    registered[key] = (sequences[seq], seq.seq_len)
            elif op == "adopt":
                if registered:
                    key = list(registered)[rng.integers(len(registered))]
                    seq = pool.sequence()
                    # The adopter reads the writer's bytes until it writes;
                    # track it under the writer's value and never append to
                    # it, so the final byte check stays exact.
                    seq.adopt_prefix(list(key))
                    sequences[seq] = registered[key][0]
            elif op == "close":
                seq = list(sequences)[rng.integers(len(sequences))]
                seq.release()
                del sequences[seq]
            elif op == "evict":
                pool.prefix.evict(pool, int(rng.integers(1, 4)))
        except PoolExhaustedError:
            # Legal under a bounded pool: drop a victim and move on,
            # exactly as the scheduler would.
            if sequences:
                victim = list(sequences)[0]
                victim.release()
                del sequences[victim]

        check_structural_invariants(pool)

    # Cached prefix bytes were never mutated by any interleaving: whatever
    # the index still covers must hold the registering writer's value.
    for key, (value, _) in registered.items():
        probe = pool.sequence()
        adopted = probe.adopt_prefix(list(key))
        if adopted:
            expected = np.full((1, HEADS, adopted, DIM), value)
            np.testing.assert_array_equal(probe.gather(0)[0], expected)
        probe.release()

    for seq in list(sequences):
        seq.release()
    check_structural_invariants(pool)
    # Only index-held references may remain (entries hold one ref each).
    assert pool.blocks_in_use <= len(pool.prefix)


def test_cow_isolation_under_random_forks():
    """Two adopters of one prefix never observe each other's writes."""
    rng = np.random.default_rng(99)
    for _ in range(5):
        pool = make_pool()
        writer = pool.sequence()
        length = int(rng.integers(3, 10))
        fill(writer, length, 7.0)
        key = [int(t) for t in rng.integers(0, 50, length)]
        writer.register_prefix(key)

        a, b = pool.sequence(), pool.sequence()
        adopted_a = a.adopt_prefix(key, max_tokens=length - 1)
        adopted_b = b.adopt_prefix(key, max_tokens=length - 1)
        assert adopted_a == adopted_b > 0
        fill(a, int(rng.integers(1, 4)), 1.0)
        fill(b, int(rng.integers(1, 4)), 2.0)
        k_a, _ = a.gather(0)
        k_b, _ = b.gather(0)
        np.testing.assert_array_equal(k_a[0, :, :adopted_a], 7.0)
        np.testing.assert_array_equal(k_b[0, :, :adopted_b], 7.0)
        np.testing.assert_array_equal(k_a[0, :, adopted_a:], 1.0)
        np.testing.assert_array_equal(k_b[0, :, adopted_b:], 2.0)
        # The registered copy itself is untouched.
        np.testing.assert_array_equal(writer.gather(0)[0], 7.0)
        check_structural_invariants(pool)


@pytest.mark.parametrize("seed", range(4))
def test_tiered_churn_holds_invariants(seed):
    """Demote/promote/evict churn through a tiered pool never corrupts it.

    The fuzzer adds the cold tier to the interleaving space: explicit
    ``demote`` ops, tier-aware adoption (which *promotes* cold spans or,
    at tier capacity, drops them), and the allocation-pressure path that
    demotes in-flight.  :meth:`BlockKVPool.check_invariants` runs after
    every operation — refcount conservation, duplicate-free free list,
    one-to-one cold-entry/tier-record matching — and the final byte
    sweep proves promoted spans still carry their writer's bytes (a cold
    span was never aliased by a hot write).
    """
    rng = np.random.default_rng(seed)
    pool = make_pool(max_blocks=16, initial_blocks=8, tier_blocks=6)

    sequences = {}
    registered = {}
    next_value = 1.0
    key_serial = 0

    for _ in range(250):
        op = rng.choice(
            ["open", "append", "register", "adopt", "close", "evict", "demote"],
            p=[0.2, 0.25, 0.15, 0.15, 0.13, 0.05, 0.07],
        )
        try:
            if op == "open" or not sequences:
                seq = pool.sequence()
                sequences[seq] = next_value
                next_value += 1.0
            elif op == "append":
                seq = list(sequences)[rng.integers(len(sequences))]
                fill(seq, int(rng.integers(1, 6)), sequences[seq])
            elif op == "register":
                seq = list(sequences)[rng.integers(len(sequences))]
                if seq.seq_len:
                    key_serial += 1
                    key = (10_000 + key_serial,) + tuple(
                        int(t) for t in rng.integers(0, 50, seq.seq_len - 1)
                    )
                    seq.register_prefix(list(key))
                    registered[key] = sequences[seq]
            elif op == "adopt":
                if registered:
                    key = list(registered)[rng.integers(len(registered))]
                    seq = pool.sequence()
                    seq.adopt_prefix(list(key))
                    sequences[seq] = registered[key]
            elif op == "close":
                seq = list(sequences)[rng.integers(len(sequences))]
                seq.release()
                del sequences[seq]
            elif op == "evict":
                pool.prefix.evict(pool, int(rng.integers(1, 4)))
            elif op == "demote":
                pool.prefix.demote(pool, int(rng.integers(1, 4)))
        except PoolExhaustedError:
            if sequences:
                victim = list(sequences)[0]
                victim.release()
                del sequences[victim]

        pool.check_invariants()
        check_structural_invariants(pool)

    # Promotions restored byte-exact blocks: whatever the index still
    # covers — hot or cold — reads back the registering writer's value.
    for key, value in registered.items():
        probe = pool.sequence()
        adopted = probe.adopt_prefix(list(key))
        if adopted:
            expected = np.full((1, HEADS, adopted, DIM), value)
            np.testing.assert_array_equal(probe.gather(0)[0], expected)
        probe.release()
        pool.check_invariants()

    for seq in list(sequences):
        seq.release()
    pool.check_invariants()


def position_bytes(stream, start, stop):
    """K bytes of ``stream[start:stop]``: a pure function of the token
    prefix, as a real model's K/V are (each position's value encodes its
    token and position)."""
    values = [stream[p] + p / 64.0 for p in range(start, stop)]
    return np.asarray(values, dtype=np.float64)[None, None, :, None] * np.ones(
        (1, HEADS, 1, DIM)
    )


@pytest.mark.parametrize("seed", range(8))
def test_overlapping_registrations_dedupe_and_hold_invariants(seed):
    """Requests recompute and register spans other requests already cached.

    Unlike the fuzzers above, the keys here are real token prefixes: a few
    conversation streams share a common opening, and each sequence writes
    bytes that are a pure function of its token prefix.  So sequences
    running side by side recompute the same spans, and a registration
    finds spans that are already indexed.  After every registration the
    registrant's full blocks must be the indexed blocks (no duplicate copy
    stays pinned), every live sequence reads back exactly its own
    prefix's bytes, and the pool's bookkeeping stays consistent.
    """
    rng = np.random.default_rng(seed)
    pool = make_pool(max_blocks=20, initial_blocks=8, tier_blocks=4 * (seed % 2))
    opening = [int(t) for t in rng.integers(1, 40, 9)]
    streams = [
        opening + [int(t) for t in rng.integers(1, 40, 14)] for _ in range(3)
    ]
    sequences = {}  # live SequenceKV -> its stream

    def expected(seq, stream):
        return position_bytes(stream, 0, seq.seq_len)

    for _ in range(200):
        op = rng.choice(
            ["open", "append", "register", "rollback", "close", "evict"],
            p=[0.2, 0.35, 0.2, 0.08, 0.12, 0.05],
        )
        try:
            if op == "open" or not sequences:
                stream = streams[int(rng.integers(len(streams)))]
                seq = pool.sequence()
                sequences[seq] = stream
                if rng.random() < 0.5:
                    want = int(rng.integers(2, len(stream)))
                    seq.adopt_prefix(stream[:want], max_tokens=want - 1)
            elif op == "append":
                seq = list(sequences)[rng.integers(len(sequences))]
                stream = sequences[seq]
                stop = min(seq.seq_len + int(rng.integers(1, 6)), len(stream))
                chunk = position_bytes(stream, seq.seq_len, stop)
                for layer in range(LAYERS):
                    seq.layers[layer].append(chunk, -chunk)
            elif op == "register":
                seq = list(sequences)[rng.integers(len(sequences))]
                if seq.seq_len:
                    tokens = sequences[seq][: seq.seq_len]
                    seq.register_prefix(tokens)
                    full_ids, _, _ = pool.prefix.match(tokens)
                    assert seq.block_ids[: len(full_ids)] == full_ids
            elif op == "rollback":
                seq = list(sequences)[rng.integers(len(sequences))]
                if seq.seq_len:
                    seq.rollback(int(rng.integers(1, seq.seq_len + 1)))
            elif op == "close":
                seq = list(sequences)[rng.integers(len(sequences))]
                seq.release()
                del sequences[seq]
            elif op == "evict":
                pool.prefix.evict(pool, int(rng.integers(1, 4)))
        except PoolExhaustedError:
            if sequences:
                victim = list(sequences)[0]
                victim.release()
                del sequences[victim]

        pool.check_invariants()
        check_structural_invariants(pool)
        for seq, stream in sequences.items():
            for layer in range(LAYERS):
                k_all, v_all = seq.gather(layer)
                np.testing.assert_array_equal(k_all, expected(seq, stream))
                np.testing.assert_array_equal(v_all, -expected(seq, stream))

    for seq in list(sequences):
        seq.release()
    pool.check_invariants()
    assert pool.blocks_in_use <= len(pool.prefix)


def test_alloc_free_churn_matches_reference_exactly():
    """Where each effect is observable, the shadow model tracks refcounts."""
    rng = np.random.default_rng(5)
    pool = make_pool(initial_blocks=4, max_blocks=12, prefix_caching=False)
    ref = ReferenceModel()
    held = []
    for _ in range(300):
        roll = rng.random()
        if held and roll < 0.45:
            block = held.pop(int(rng.integers(len(held))))
            pool.free([block])
            ref.free(block)
        elif held and roll < 0.6:
            block = held[int(rng.integers(len(held)))]
            pool.share(block)
            ref.share(block)
            held.append(block)
        else:
            try:
                block = pool.allocate()
            except PoolExhaustedError:
                continue
            ref.alloc(block)
            held.append(block)
        check_against_reference(pool, ref)
    # Unknown and double frees are rejected without corrupting state.
    with pytest.raises(ValueError):
        pool.free([10**6])
    freed = held.pop()
    pool.free([freed])
    ref.free(freed)
    if freed not in held:
        with pytest.raises(ValueError):
            pool.free([freed])
    check_against_reference(pool, ref)
