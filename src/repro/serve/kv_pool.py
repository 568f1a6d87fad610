"""Pooled, block-granular KV cache with prefix sharing and copy-on-write.

:class:`~repro.nn.kv_cache.LayerKVCache` grows one private buffer per
sequence; a server juggling hundreds of short-lived requests would allocate
and abandon such buffers continuously.  :class:`BlockKVPool` instead
preallocates one shared store of fixed-size *blocks* (each block holds
``block_size`` token positions of K and V for **all** layers of one
sequence) and hands blocks out through a free list:

* admission and decode growth take blocks from the free list — O(1), no
  copying of existing history, no per-token reallocation;
* retirement returns the request's blocks, so subsequent requests reuse
  them (``blocks_reused`` counts this, and the tests assert it happens);
* only when the free list is empty does the pool grow, geometrically, so
  allocation events are amortized O(log total-tokens) — mirroring the
  block-pool design of paged serving runtimes.

On top of the free list sit three paged-serving mechanisms:

* **Reference counts.**  Every live block carries a refcount; ``free``
  decrements and only returns the block once the last reference drops
  (and it raises on unknown or already-free ids instead of silently
  corrupting the free list).
* **Prefix sharing.**  With ``prefix_caching=True`` the pool keeps a
  :class:`PrefixIndex` — a trie keyed on block-sized token-id spans.  When
  a request's prompt completes prefill, the blocks covering it are
  registered; a later request whose prompt starts with the same tokens
  *adopts* those blocks (bumping refcounts) instead of recomputing their
  K/V.  This is sound and **bit-exact** because the K/V bytes of positions
  ``0..n-1`` are a pure function of the token ids ``0..n-1`` under the
  deterministic kernels — the chunked==prefill exactness tests pin exactly
  this invariance.
* **Copy-on-write.**  A prefix match may end mid-block (the trie also
  indexes a prompt's partially filled tail block).  Writing into a block
  whose refcount exceeds one first *forks* it — the committed positions of
  every layer are copied into a private block — so sharers never observe
  each other's writes.

When a bounded pool (``max_blocks``) runs dry, allocation first evicts
least-recently-used index entries nobody references, then raises
:class:`PoolExhaustedError` — the scheduler's cue to preempt a victim
request (legal, because decode is bit-reproducible from the prompt+seed).

With a **cold tier** configured (``tier_blocks > 0``), pressure first
*demotes* instead of evicting: the LRU demotable full-block entries (the
index holds the sole reference and the whole subtree below them is
already cold) have their K/V re-quantized to ``tier_fmt`` and parked in a
side store, freeing the pool block while keeping the span matchable.  A
later prompt hitting a cold span *promotes* it — the tier bytes are
written into a freshly allocated block — but only when the tier format
makes the restored bytes identical to a fresh write (quantization is
elementwise round-to-nearest-even, hence idempotent, so ``tier_fmt ==
kv_fmt`` and raw-float64 tiers are lossless).  A lossy tier (an
explicitly narrower ``tier_fmt``) refuses the hit and the tokens are
re-prefilled, so served tokens stay bit-identical to ``generate()``
under every configuration.  Entries are *hot* (``block_id`` set), *cold*
(``tier_id`` set), or dead (removed); a cold entry's descendants are
always cold, so a cold chain can be cascade-dropped without orphaning
hot state.  Partial tail entries are never demoted, only evicted.

Because NumPy's einsum cannot read scattered blocks in place (the way a
paged attention kernel would), :meth:`SequenceKV.gather` packs a sequence's
blocks into a per-layer workspace for the attention read — O(seq) reads the
kernel performs anyway.  The workspace persists across decode steps and
grows by doubling, so a long decode performs O(log n) workspace
allocations instead of one fresh ``(heads, seq+1, head_dim)`` pair per
layer per token.  It is always at least one position larger than the
sequence and handed out as a sliced view, so its memory-layout class
(strided view) matches what :class:`~repro.nn.kv_cache.LayerKVCache`
returns — one of the conditions for served tokens being bit-identical to
single-request :func:`~repro.nn.generation.generate` (see the KV-cache
notes on layout classes).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.nn.kv_cache import resolve_kv_format
from repro.precision.ops import caster, requantize_blocks


class PoolExhaustedError(RuntimeError):
    """The pool is at ``max_blocks`` with nothing left to evict."""


@dataclass(frozen=True)
class PoolStats:
    """Snapshot of the pool's allocation counters."""

    capacity_blocks: int
    blocks_in_use: int
    peak_blocks_in_use: int
    blocks_allocated: int  # total allocate() calls served
    blocks_reused: int  # allocations served by a previously used block
    grow_events: int  # geometric store growths (O(log) of total demand)
    blocks_adopted: int  # shared-prefix adoptions (refcount bumps by sequences)
    cow_forks: int  # copy-on-write forks of shared blocks
    prefix_blocks_cached: int  # live prefix-index entries
    prefix_evictions: int  # index entries evicted under pool pressure
    blocks_demoted: int  # hot prefix blocks re-quantized into the cold tier
    blocks_promoted: int  # cold spans restored into fresh pool blocks
    tier_evictions: int  # cold entries dropped (tier LRU or failed promote)
    cold_blocks_cached: int  # live cold-tier entries
    hot_kv_bytes: int  # nominal footprint of in-use blocks at kv_fmt width
    cold_kv_bytes: int  # nominal footprint of tier entries at tier_fmt width

    def as_dict(self) -> dict[str, int]:
        return {
            "capacity_blocks": self.capacity_blocks,
            "blocks_in_use": self.blocks_in_use,
            "peak_blocks_in_use": self.peak_blocks_in_use,
            "blocks_allocated": self.blocks_allocated,
            "blocks_reused": self.blocks_reused,
            "grow_events": self.grow_events,
            "blocks_adopted": self.blocks_adopted,
            "cow_forks": self.cow_forks,
            "prefix_blocks_cached": self.prefix_blocks_cached,
            "prefix_evictions": self.prefix_evictions,
            "blocks_demoted": self.blocks_demoted,
            "blocks_promoted": self.blocks_promoted,
            "tier_evictions": self.tier_evictions,
            "cold_blocks_cached": self.cold_blocks_cached,
            "hot_kv_bytes": self.hot_kv_bytes,
            "cold_kv_bytes": self.cold_kv_bytes,
        }


class _TrieNode:
    """One level of the prefix trie (a block boundary)."""

    __slots__ = ("children", "partials")

    def __init__(self) -> None:
        #: full-block token tuple -> _FullEntry
        self.children: dict[tuple[int, ...], _FullEntry] = {}
        #: partially filled tail blocks registered at this depth
        self.partials: list[_PartialEntry] = []


class _FullEntry:
    """A full-block span: *hot* (``block_id``), *cold* (``tier_id``), or dead."""

    __slots__ = ("block_id", "node", "last_used", "tier_id")

    def __init__(self, block_id: int, last_used: int) -> None:
        self.block_id: int | None = block_id
        self.node = _TrieNode()
        self.last_used = last_used
        self.tier_id: int | None = None


class _PartialEntry:
    __slots__ = ("tokens", "block_id", "last_used")

    def __init__(self, tokens: tuple[int, ...], block_id: int, last_used: int) -> None:
        self.tokens = tokens
        self.block_id = block_id
        self.last_used = last_used


def _common_prefix_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


# The trie walks below are module-level functions that take ``pool`` as an
# argument.  A nested ``walk`` that calls itself sits in a reference cycle
# (function -> closure cell -> function) whose cells also hold the pool, so
# every call would leave the whole pool, K/V arrays included, for the
# cyclic collector to find.
def _walk_evictable(node: _TrieNode, pool: "BlockKVPool", out: list) -> bool:
    """Post-order collect of hot droppables; returns whether all is cold."""
    all_cold = True
    for key, entry in node.children.items():
        sub_cold = _walk_evictable(entry.node, pool, out)
        if entry.block_id is None:
            all_cold = all_cold and sub_cold
            continue
        all_cold = False
        if sub_cold and pool.refcount(entry.block_id) == 1:
            out.append((entry.last_used, node.children, key, entry))
    for entry in node.partials:
        all_cold = False
        if pool.refcount(entry.block_id) == 1:
            out.append((entry.last_used, node.partials, entry, entry))
    return all_cold


def _walk_reclaimable(node: _TrieNode, pool: "BlockKVPool") -> tuple[int, bool]:
    """Reclaimable blocks under ``node``, and whether all of it is reclaimable."""
    count, subtree_clear = 0, True
    for entry in node.children.values():
        sub_count, sub_clear = _walk_reclaimable(entry.node, pool)
        count += sub_count
        if entry.block_id is None:
            subtree_clear = subtree_clear and sub_clear
            continue
        if sub_clear and pool.refcount(entry.block_id) == 1:
            count += 1
        else:
            subtree_clear = False
    for entry in node.partials:
        if pool.refcount(entry.block_id) == 1:
            count += 1
        else:
            subtree_clear = False
    return count, subtree_clear


def _walk_demotable(
    node: _TrieNode, pool: "BlockKVPool", candidates: list, cold_lru: list
) -> tuple[bool, list]:
    """Post-order collect of demotion candidates and cold entries.

    Returns whether everything under ``node`` is cold, plus the
    unreferenced partial entries hanging below it.
    """
    all_cold = True
    partials_below: list = []
    for key, entry in node.children.items():
        sub_cold, sub_partials = _walk_demotable(entry.node, pool, candidates, cold_lru)
        if entry.block_id is None:
            cold_lru.append((entry.last_used, node.children, key, entry))
            all_cold = all_cold and sub_cold
            partials_below.extend(sub_partials)
            continue
        all_cold = False
        if sub_cold and pool.refcount(entry.block_id) == 1:
            candidates.append((entry.last_used, entry, sub_partials))
    for entry in node.partials:
        if pool.refcount(entry.block_id) == 1:
            partials_below.append((node.partials, entry))
        else:
            all_cold = False
    return all_cold, partials_below


class PrefixIndex:
    """Trie from token-id prefixes to immutable pool blocks.

    Full blocks are trie edges keyed by their ``block_size`` token span;
    a prompt's partially filled tail block is stored as a *partial* entry
    on the node where it ends.  The index holds one reference (refcount)
    per registered block, so cached prefixes survive the registering
    request's retirement — that is what lets a later turn of the same chat
    adopt them.  Entries are timestamped on every touch for LRU eviction.
    """

    def __init__(self, block_size: int) -> None:
        self.block_size = int(block_size)
        self.root = _TrieNode()
        self._clock = 0
        self.entries = 0

    def __len__(self) -> int:
        return self.entries

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # -- lookup --------------------------------------------------------------------
    def match(self, tokens) -> tuple[list[int], int | None, int]:
        """Longest indexed prefix of ``tokens``.

        Returns ``(full_block_ids, partial_block_id, partial_len)``: the
        chain of fully matched blocks, plus (optionally) one block whose
        first ``partial_len`` positions extend the match mid-block.  Cold
        entries end the match: a read-only lookup cannot promote, so only
        the hot chain is reported (use :meth:`adopt_into` to promote).
        """
        tokens = tuple(int(t) for t in tokens)
        bs = self.block_size
        node = self.root
        full_ids: list[int] = []
        pos = 0
        while pos + bs <= len(tokens):
            entry = node.children.get(tokens[pos : pos + bs])
            if entry is None or entry.block_id is None:
                break
            entry.last_used = self._tick()
            full_ids.append(entry.block_id)
            node = entry.node
            pos += bs
        rest = tokens[pos:]
        best_len, best_entry = 0, None
        if rest:
            for key, entry in node.children.items():
                if entry.block_id is None:
                    continue
                p = _common_prefix_len(key, rest)
                if p > best_len:
                    best_len, best_entry = p, entry
            for entry in node.partials:
                p = _common_prefix_len(entry.tokens, rest)
                if p > best_len:
                    best_len, best_entry = p, entry
        if best_entry is None:
            return full_ids, None, 0
        best_entry.last_used = self._tick()
        return full_ids, best_entry.block_id, best_len

    # -- insertion -----------------------------------------------------------------
    def register(self, tokens, block_ids, pool: "BlockKVPool") -> int:
        """Insert the blocks covering ``tokens``; returns newly cached count.

        ``block_ids`` must cover at least ``len(tokens)`` positions.  Spans
        already indexed keep their block; when the registrant computed its
        own copy of such a span, ``block_ids`` (the registrant's list) is
        pointed at the indexed block and the copy is freed.  Each newly
        cached block receives one index-owned reference via
        :meth:`BlockKVPool.share`.
        """
        tokens = tuple(int(t) for t in tokens)
        bs = self.block_size
        if len(block_ids) * bs < len(tokens):
            raise ValueError(
                f"{len(block_ids)} blocks cannot cover {len(tokens)} tokens"
            )
        node = self.root
        added = 0
        pos = 0
        while pos + bs <= len(tokens):
            key = tokens[pos : pos + bs]
            entry = node.children.get(key)
            if entry is None:
                entry = _FullEntry(int(block_ids[pos // bs]), self._tick())
                node.children[key] = entry
                pool.share(entry.block_id, adopted=False)
                self.entries += 1
                added += 1
            elif entry.block_id is None:
                # Refresh-over-cold: the registrant just recomputed the
                # span's bytes (bit-identical by the exactness invariant),
                # so point the entry at its block and discard the tier
                # copy — cold bytes are never aliased by hot writes.
                entry.block_id = pool.share(int(block_ids[pos // bs]), adopted=False)
                pool._tier_discard(entry.tier_id)
                entry.tier_id = None
                entry.last_used = self._tick()
                added += 1
            else:
                entry.last_used = self._tick()
                own = int(block_ids[pos // bs])
                if own != entry.block_id:
                    # Dedupe: the registrant recomputed a span another
                    # request published while both ran (bit-identical by
                    # the exactness invariant).  It switches to the
                    # indexed block and returns its copy; kept, the
                    # copy would pin the indexed ancestors of its own
                    # deeper entries, unevictable while it runs.
                    block_ids[pos // bs] = pool.share(entry.block_id, adopted=False)
                    pool.free([own])
            node = entry.node
            pos += bs
        rest = tokens[pos:]
        if rest and not self._covered(node, rest):
            entry = _PartialEntry(rest, int(block_ids[pos // bs]), self._tick())
            node.partials.append(entry)
            pool.share(entry.block_id, adopted=False)
            self.entries += 1
            added += 1
        return added

    @staticmethod
    def _covered(node: _TrieNode, rest: tuple[int, ...]) -> bool:
        """True when an existing entry already matches every token of ``rest``."""
        for key in node.children:
            if key[: len(rest)] == rest:
                return True
        for entry in node.partials:
            if entry.tokens[: len(rest)] == rest:
                return True
        return False

    # -- eviction / tiering --------------------------------------------------------
    def _evictable(self, pool: "BlockKVPool"):
        """Hot droppables as ``(last_used, container, handle, entry)``.

        An entry is droppable when the index holds the block's only
        reference and — for full blocks — everything deeper is *cold*
        (cold descendants hold no pool reference and are cascade-dropped
        with their ancestor, so evicting cold-subtree-first keeps every
        remaining entry reachable).
        """
        out: list = []
        _walk_evictable(self.root, pool, out)
        return out

    def evictable_count(self, pool: "BlockKVPool") -> int:
        """Blocks reclaimable by repeated eviction/demotion (scheduler preflight).

        A full-block entry only becomes reclaimable once its whole subtree
        is gone or cold, so an entry counts only when the index holds its
        block's sole reference *and* every descendant entry is likewise
        reclaimable — the transitive closure of what :meth:`evict` (or
        :meth:`demote`) can actually free, not just the current leaves.
        Cold entries hold no pool reference, so they contribute nothing
        and never block an ancestor.
        """
        return _walk_reclaimable(self.root, pool)[0]

    def evict(self, pool: "BlockKVPool", needed: int) -> int:
        """Drop up to ``needed`` LRU entries nobody references; returns count.

        One trie walk serves the whole batch: every currently evictable
        entry is a leaf (or partial, or parent of a cold-only subtree)
        whose removal cannot invalidate another candidate from the same
        walk, so the sorted list can be drained directly.  Entries that
        only *become* evictable once their children go (a parent whose
        last leaf was just dropped) are picked up by the next call —
        :meth:`BlockKVPool.allocate` re-walks only when the free list is
        dry again.  Dropping a full entry cascade-drops its (all-cold)
        subtree, releasing the tier slots too.
        """
        candidates = sorted(self._evictable(pool), key=lambda c: c[0])
        freed = 0
        for _, container, handle, entry in candidates[:needed]:
            block_id = entry.block_id
            if isinstance(container, dict):
                del container[handle]
                self._drop_cold_subtree(entry.node, pool)
            else:
                container.remove(handle)
            self.entries -= 1
            pool.free([block_id])
            pool.prefix_evictions += 1
            freed += 1
        return freed

    def demote(self, pool: "BlockKVPool", needed: int) -> int:
        """Move up to ``needed`` LRU demotable entries into the cold tier.

        A full-block entry is demotable when the index holds its block's
        only reference and every full-block descendant is already cold —
        the same reclaimability condition as :meth:`evict`, except the
        bytes are re-quantized to ``tier_fmt`` (one vectorized pass for
        the batch) and parked instead of dropped, so a re-arrival of the
        span can promote instead of recomputing.  Partial tail entries
        are never demoted (a sub-block span cannot be promoted whole);
        an unreferenced partial hanging below a candidate is *evicted*
        with it — the tail is the cheapest recompute in the chain and
        must not pin whole demotable blocks hot.  When the tier is full,
        its LRU cold spans are dropped first (cascading their subtrees).
        Returns blocks freed.
        """
        if not pool.tier_blocks:
            return 0
        candidates: list = []
        cold_lru: list = []
        _walk_demotable(self.root, pool, candidates, cold_lru)
        candidates.sort(key=lambda c: c[0])
        cold_lru.sort(key=lambda c: c[0])
        chosen = candidates[: min(int(needed), pool.tier_blocks)]
        # Make room: drop LRU cold spans until the batch fits the tier.
        lru_iter = iter(cold_lru)
        while chosen and len(pool._tier_k) + len(chosen) > pool.tier_blocks:
            try:
                _, container, key, entry = next(lru_iter)
            except StopIteration:
                chosen = chosen[: max(0, pool.tier_blocks - len(pool._tier_k))]
                break
            if entry.tier_id is None:
                continue  # already dropped by an earlier cascade
            self._drop_cold_entry(container, key, pool)
        if not chosen:
            return 0
        freed = 0
        for _, _, partials in chosen:
            for container, partial in partials:
                container.remove(partial)
                self.entries -= 1
                pool.free([partial.block_id])
                pool.prefix_evictions += 1
                freed += 1
        ids = [entry.block_id for _, entry, _ in chosen]
        k_q, v_q = requantize_blocks(pool._k[ids], pool._v[ids], pool.tier_fmt)
        for i, (_, entry, _) in enumerate(chosen):
            block_id = entry.block_id
            entry.tier_id = pool._tier_put(k_q[i].copy(), v_q[i].copy())
            entry.block_id = None
            pool.free([block_id])
            pool.blocks_demoted += 1
            freed += 1
        return freed

    def adopt_into(self, tokens, pool: "BlockKVPool", seq: "SequenceKV"):
        """Adopt the longest indexed prefix directly into ``seq``.

        The tier-aware twin of :meth:`match`: hot spans are shared as the
        walk goes (so a reentrant demotion triggered by a promotion's
        allocation can never reclaim an already-matched block), and cold
        spans are *promoted* — tier bytes restored into a fresh block —
        when the tier is lossless and the cost model prices the restore
        below recompute.  Otherwise the cold chain is refused and those
        tokens re-prefill.  A promotion that hits
        :class:`PoolExhaustedError` drops the entry (and its all-cold
        subtree) whole: the tier record was popped first, so no
        half-moved block survives in either store.  Returns
        ``(adopted_tokens, restored_tokens, refused_tokens)``.
        """
        tokens = tuple(int(t) for t in tokens)
        bs = self.block_size
        node = self.root
        pos = 0
        restored_blocks = 0
        refused_blocks = 0
        while pos + bs <= len(tokens):
            key = tokens[pos : pos + bs]
            entry = node.children.get(key)
            if entry is None:
                break
            if entry.block_id is None:
                cold_blocks = self._cold_chain_len(node, tokens, pos)
                if not (pool.tier_lossless and pool._promote_pays):
                    # Lossy tier (or restore priced above recompute): the
                    # span cannot be byte-restored, so the hit is refused
                    # and the tokens re-prefill — exactness over reuse.
                    refused_blocks += cold_blocks
                    entry.last_used = self._tick()
                    break
                try:
                    self._promote(pool, entry)
                except PoolExhaustedError:
                    refused_blocks += cold_blocks
                    self._drop_cold_entry(node.children, key, pool)
                    break
                restored_blocks += 1
            entry.last_used = self._tick()
            pool.share(entry.block_id)
            seq.block_ids.append(entry.block_id)
            node = entry.node
            pos += bs
        adopted = pos
        rest = tokens[pos:]
        best_len, best_entry = 0, None
        if rest:
            for key, entry in node.children.items():
                if entry.block_id is None:
                    continue
                p = _common_prefix_len(key, rest)
                if p > best_len:
                    best_len, best_entry = p, entry
            for entry in node.partials:
                p = _common_prefix_len(entry.tokens, rest)
                if p > best_len:
                    best_len, best_entry = p, entry
        if best_entry is not None:
            best_entry.last_used = self._tick()
            pool.share(best_entry.block_id)
            seq.block_ids.append(best_entry.block_id)
            adopted += best_len
        return adopted, restored_blocks * bs, refused_blocks * bs

    def _cold_chain_len(self, node: _TrieNode, tokens, pos: int) -> int:
        """Matching full-block spans from ``pos`` down (an all-cold chain)."""
        bs = self.block_size
        count = 0
        while pos + bs <= len(tokens):
            entry = node.children.get(tokens[pos : pos + bs])
            if entry is None:
                break
            count += 1
            node = entry.node
            pos += bs
        return count

    def _promote(self, pool: "BlockKVPool", entry: _FullEntry) -> None:
        """Restore one cold entry into a fresh pool block (index-owned ref).

        The tier record is popped *before* the allocation: if the
        allocation fails the entry is left dead (no storage in either
        tier) for the caller to drop — never half-moved.  The allocation
        itself may reentrantly demote or evict other entries; the entry
        being promoted is invisible to those walks (its ``tier_id`` is
        already cleared).
        """
        k, v = pool._tier_pop(entry.tier_id)
        entry.tier_id = None
        block_id = pool.allocate()
        pool._k[block_id] = k
        pool._v[block_id] = v
        entry.block_id = block_id
        pool.blocks_promoted += 1

    def _drop_cold_entry(self, container: dict, key, pool) -> None:
        """Remove a cold entry and its (all-cold) subtree from the index."""
        entry = container[key]
        del container[key]
        if entry.tier_id is not None:
            pool._tier_discard(entry.tier_id)
        entry.tier_id = None
        self.entries -= 1
        pool.tier_evictions += 1
        self._drop_cold_subtree(entry.node, pool)

    def _drop_cold_subtree(self, node: _TrieNode, pool) -> None:
        """Cascade-drop every (cold) descendant entry under ``node``."""
        for key, entry in list(node.children.items()):
            if entry.tier_id is not None:
                pool._tier_discard(entry.tier_id)
            entry.tier_id = None
            entry.block_id = None
            del node.children[key]
            self.entries -= 1
            pool.tier_evictions += 1
            self._drop_cold_subtree(entry.node, pool)


class BlockKVPool:
    """Shared block store for every request's K/V history.

    Parameters
    ----------
    num_layers / num_heads / head_dim:
        Shape of the model's per-token K/V activations (use
        :meth:`for_model`).
    block_size:
        Token positions per block.
    initial_blocks:
        Blocks preallocated up front.
    grow_factor:
        Capacity multiplier when the free list runs dry.
    kv_fmt:
        Optional :mod:`repro.fpformats` format name; K/V chunks are
        quantized round-to-nearest-even to it on write (the precision
        policy's ``kv_cache_fmt``).  ``None``/``"fp64"`` stores raw
        float64.  Matches :class:`~repro.nn.kv_cache.LayerKVCache`, so the
        pooled and private cache paths stay bit-identical under a policy.
    max_blocks:
        Hard capacity ceiling.  ``None`` (default) grows without bound;
        with a ceiling, exhausted allocation evicts unreferenced prefix
        cache entries and then raises :class:`PoolExhaustedError`.
    prefix_caching:
        Enable the shared-prefix :class:`PrefixIndex` (adoption via
        :meth:`SequenceKV.adopt_prefix`, registration via
        :meth:`SequenceKV.register_prefix`).
    tier_blocks:
        Cold-tier capacity in blocks; 0/``None`` disables tiering.
        Requires ``prefix_caching`` (the tier holds demoted index
        entries).  Under pressure, demotable entries move here instead of
        being evicted; see the module notes on hot/cold entries.
    tier_fmt:
        Format cold blocks are re-quantized to on demotion.  ``None``
        (default) uses ``kv_fmt`` — lossless by quantize idempotence, so
        promotions restore byte-identical blocks.  An explicitly
        different format makes the tier lossy: cold hits are refused and
        re-prefilled instead (served tokens stay exact either way).
    tier_cost_model:
        Optional :class:`~repro.serve.costs.TierCostModel`; when its
        per-block restore time exceeds recompute, promotions are refused
        in favour of re-prefill.  ``None`` always promotes.
    """

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        head_dim: int,
        block_size: int = 16,
        initial_blocks: int = 64,
        grow_factor: float = 2.0,
        kv_fmt: str | None = None,
        max_blocks: int | None = None,
        prefix_caching: bool = False,
        tier_blocks: int | None = None,
        tier_fmt: str | None = None,
        tier_cost_model=None,
    ) -> None:
        if min(num_layers, num_heads, head_dim, block_size, initial_blocks) < 1:
            raise ValueError("pool dimensions must all be >= 1")
        if grow_factor <= 1.0:
            raise ValueError(f"grow_factor must be > 1, got {grow_factor}")
        if max_blocks is not None and max_blocks < initial_blocks:
            raise ValueError(
                f"max_blocks {max_blocks} smaller than initial_blocks {initial_blocks}"
            )
        if tier_blocks is not None and tier_blocks < 0:
            raise ValueError(f"tier_blocks must be >= 0, got {tier_blocks}")
        if tier_blocks and not prefix_caching:
            raise ValueError("tier_blocks requires prefix_caching")
        self.num_layers = int(num_layers)
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.block_size = int(block_size)
        self.grow_factor = float(grow_factor)
        self.kv_fmt = resolve_kv_format(kv_fmt)
        self._kv_cast = caster(self.kv_fmt)
        self.max_blocks = None if max_blocks is None else int(max_blocks)
        self.prefix = PrefixIndex(self.block_size) if prefix_caching else None
        self.tier_blocks = 0 if tier_blocks is None else int(tier_blocks)
        self.tier_fmt = (
            self.kv_fmt if tier_fmt is None else resolve_kv_format(tier_fmt)
        )
        self.tier_lossless = self.tier_fmt is None or self.tier_fmt == self.kv_fmt
        self._promote_pays = (
            tier_cost_model is None
            or tier_cost_model.promotion_pays(self.block_size)
        )
        self._tier_k: dict[int, np.ndarray] = {}
        self._tier_v: dict[int, np.ndarray] = {}
        self._tier_next = 0

        shape = (initial_blocks, num_layers, num_heads, block_size, head_dim)
        self._k = np.empty(shape, dtype=np.float64)
        self._v = np.empty(shape, dtype=np.float64)
        self._free: list[int] = list(range(initial_blocks - 1, -1, -1))
        self._used_before = np.zeros(initial_blocks, dtype=bool)
        self._refcount = np.zeros(initial_blocks, dtype=np.int64)

        self.blocks_in_use = 0
        self.peak_blocks_in_use = 0
        self.blocks_allocated = 0
        self.blocks_reused = 0
        self.grow_events = 0
        self.blocks_adopted = 0
        self.cow_forks = 0
        self.prefix_evictions = 0
        self.blocks_demoted = 0
        self.blocks_promoted = 0
        self.tier_evictions = 0

    @classmethod
    def for_model(cls, model, **kwargs) -> "BlockKVPool":
        """A pool shaped for ``model``'s decoder stack and precision policy."""
        config = model.config
        policy = getattr(config, "policy", None)
        if policy is not None:
            kwargs.setdefault("kv_fmt", policy.kv_cache_fmt)
        return cls(
            num_layers=config.num_layers,
            num_heads=config.num_heads,
            head_dim=config.embed_dim // config.num_heads,
            **kwargs,
        )

    @property
    def capacity_blocks(self) -> int:
        return self._k.shape[0]

    def refcount(self, block_id: int) -> int:
        """Live references (sequences plus the prefix index) to a block."""
        return int(self._refcount[int(block_id)])

    def _block_nbytes(self, fmt) -> int:
        """Nominal bytes one block occupies at ``fmt``'s width (K and V).

        The backing store is emulated in float64; this is the footprint
        the format *represents* — what the tier-compression accounting in
        ``hot_kv_bytes``/``cold_kv_bytes`` reports.
        """
        bits = 64 if fmt is None else fmt.total_bits
        values = self.num_layers * self.num_heads * self.block_size * self.head_dim
        return values * 2 * bits // 8

    def stats(self) -> PoolStats:
        return PoolStats(
            capacity_blocks=self.capacity_blocks,
            blocks_in_use=self.blocks_in_use,
            peak_blocks_in_use=self.peak_blocks_in_use,
            blocks_allocated=self.blocks_allocated,
            blocks_reused=self.blocks_reused,
            grow_events=self.grow_events,
            blocks_adopted=self.blocks_adopted,
            cow_forks=self.cow_forks,
            prefix_blocks_cached=0 if self.prefix is None else len(self.prefix),
            prefix_evictions=self.prefix_evictions,
            blocks_demoted=self.blocks_demoted,
            blocks_promoted=self.blocks_promoted,
            tier_evictions=self.tier_evictions,
            cold_blocks_cached=len(self._tier_k),
            hot_kv_bytes=self.blocks_in_use * self._block_nbytes(self.kv_fmt),
            cold_kv_bytes=len(self._tier_k) * self._block_nbytes(self.tier_fmt),
        )

    def _grow(self) -> None:
        old = self.capacity_blocks
        if self.max_blocks is not None and old >= self.max_blocks:
            raise PoolExhaustedError(
                f"pool at max_blocks={self.max_blocks} with an empty free list"
            )
        new = max(int(old * self.grow_factor), old + 1)
        if self.max_blocks is not None:
            new = min(new, self.max_blocks)
        shape = (new, self.num_layers, self.num_heads, self.block_size, self.head_dim)
        k = np.empty(shape, dtype=np.float64)
        v = np.empty(shape, dtype=np.float64)
        k[:old] = self._k
        v[:old] = self._v
        self._k, self._v = k, v
        self._used_before = np.concatenate(
            [self._used_before, np.zeros(new - old, dtype=bool)]
        )
        self._refcount = np.concatenate(
            [self._refcount, np.zeros(new - old, dtype=np.int64)]
        )
        # Push new ids so the lowest new id pops first; recycled old ids
        # (pushed on free()) still take priority because they sit above.
        self._free = list(range(new - 1, old - 1, -1)) + self._free
        self.grow_events += 1

    def allocate(self) -> int:
        """Take one block id from the free list (growing the store if dry).

        At ``max_blocks``, least-recently-used prefix-cache entries that
        nobody references are demoted to the cold tier (when one is
        configured) and then evicted to refill the free list; when even
        that fails the pool is genuinely exhausted and
        :class:`PoolExhaustedError` propagates to the scheduler.
        """
        if not self._free:
            try:
                self._grow()
            except PoolExhaustedError:
                if self.prefix is not None:
                    # Reclaim a small batch per trie walk: the next few
                    # allocations then come straight off the free list
                    # instead of re-walking the index per block.  Demotion
                    # runs first so reclaimed spans stay promotable;
                    # eviction mops up partials and tier overflow.
                    if self.tier_blocks:
                        self.prefix.demote(self, 8)
                    if not self._free:
                        self.prefix.evict(self, 8)
                if not self._free:
                    raise
        block_id = self._free.pop()
        self.blocks_allocated += 1
        if self._used_before[block_id]:
            self.blocks_reused += 1
        self._used_before[block_id] = True
        self._refcount[block_id] = 1
        self.blocks_in_use += 1
        self.peak_blocks_in_use = max(self.peak_blocks_in_use, self.blocks_in_use)
        return block_id

    def share(self, block_id: int, adopted: bool = True) -> int:
        """Add one reference to a live block (prefix adoption / registration)."""
        bid = int(block_id)
        if not 0 <= bid < self.capacity_blocks or self._refcount[bid] < 1:
            raise ValueError(f"cannot share block {bid}: not currently allocated")
        self._refcount[bid] += 1
        if adopted:
            self.blocks_adopted += 1
        return bid

    def fork(self, block_id: int, length: int) -> int:
        """Copy-on-write: private copy of positions ``[0, length)``, all layers.

        The caller's reference to the shared block moves to the fresh
        block (the shared one's refcount drops by one).
        """
        bid = int(block_id)
        if self._refcount[bid] < 1:
            raise ValueError(f"cannot fork block {bid}: not currently allocated")
        new_id = self.allocate()
        if length:
            self._k[new_id, :, :, :length] = self._k[bid, :, :, :length]
            self._v[new_id, :, :, :length] = self._v[bid, :, :, :length]
        self.free([bid])
        self.cow_forks += 1
        return new_id

    def free(self, block_ids) -> None:
        """Drop one reference per id; last reference returns the block.

        Raises :class:`ValueError` on ids the pool never allocated or that
        are already free — silently appending those to the free list would
        hand the same block to two sequences and corrupt
        ``blocks_in_use``.  Validation runs over the whole batch *before*
        any reference drops, so a rejected call mutates nothing (no
        half-freed batches to leak or double-free on retry).
        """
        ids = [int(block_id) for block_id in block_ids]
        drops: dict[int, int] = {}
        for bid in ids:
            if not 0 <= bid < self.capacity_blocks:
                raise ValueError(f"cannot free unknown block id {bid}")
            drops[bid] = drops.get(bid, 0) + 1
            if self._refcount[bid] < drops[bid]:
                raise ValueError(f"double free of block {bid}")
        for bid in ids:
            self._refcount[bid] -= 1
            if self._refcount[bid] == 0:
                self._free.append(bid)
                self.blocks_in_use -= 1

    def can_provide(self, blocks: int) -> bool:
        """Whether ``blocks`` allocations can succeed without preemption.

        Counts the free list, unreferenced (evictable) prefix-cache
        entries, and the remaining growth headroom under ``max_blocks``.
        Unbounded pools can always provide.
        """
        if self.max_blocks is None:
            return True
        available = len(self._free) + (self.max_blocks - self.capacity_blocks)
        if available >= blocks:
            return True
        if self.prefix is not None:
            available += self.prefix.evictable_count(self)
        return available >= blocks

    # -- cold-tier store -----------------------------------------------------------
    def _tier_put(self, k: np.ndarray, v: np.ndarray) -> int:
        """Park one demoted block's (re-quantized) K/V; returns its tier id."""
        tier_id = self._tier_next
        self._tier_next += 1
        self._tier_k[tier_id] = k
        self._tier_v[tier_id] = v
        return tier_id

    def _tier_pop(self, tier_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return a tier record (promotion pops before allocating)."""
        return self._tier_k.pop(tier_id), self._tier_v.pop(tier_id)

    def _tier_discard(self, tier_id: int | None) -> None:
        """Drop a tier record if present (cascade drops, refresh-over-cold)."""
        self._tier_k.pop(tier_id, None)
        self._tier_v.pop(tier_id, None)

    def check_invariants(self) -> None:
        """Raise ``RuntimeError`` when pool/index/tier bookkeeping disagrees.

        The debugging backstop the tier tests lean on: no duplicate
        free-list ids, no negative refcounts, ``blocks_in_use`` equal to
        the live-refcount population, every block either free or
        referenced, hot index entries actually allocated, and a perfect
        one-to-one match between cold entries and tier records (a cold
        span can never alias a hot write).
        """
        free = self._free
        if len(set(free)) != len(free):
            raise RuntimeError(f"free list holds duplicates: {sorted(free)}")
        if (self._refcount < 0).any():
            raise RuntimeError("negative refcount")
        in_use = int((self._refcount > 0).sum())
        if in_use != self.blocks_in_use:
            raise RuntimeError(
                f"blocks_in_use={self.blocks_in_use} but {in_use} refcounted"
            )
        if any(self._refcount[bid] != 0 for bid in free):
            raise RuntimeError("free list holds a referenced block")
        if len(free) + in_use != self.capacity_blocks:
            raise RuntimeError(
                f"{len(free)} free + {in_use} in use != "
                f"capacity {self.capacity_blocks}"
            )
        if len(self._tier_k) > max(self.tier_blocks, 0):
            raise RuntimeError(
                f"tier holds {len(self._tier_k)} > tier_blocks={self.tier_blocks}"
            )
        if self.prefix is None:
            return
        tier_ids: list[int] = []
        stack = [self.prefix.root]
        count = 0
        while stack:
            node = stack.pop()
            for entry in node.children.values():
                count += 1
                stack.append(entry.node)
                if entry.block_id is not None:
                    if entry.tier_id is not None:
                        raise RuntimeError("entry both hot and cold")
                    if self._refcount[entry.block_id] < 1:
                        raise RuntimeError(
                            f"hot entry references freed block {entry.block_id}"
                        )
                elif entry.tier_id is None:
                    raise RuntimeError("dead entry still in the index")
                else:
                    tier_ids.append(entry.tier_id)
            for entry in node.partials:
                count += 1
                if self._refcount[entry.block_id] < 1:
                    raise RuntimeError(
                        f"partial entry references freed block {entry.block_id}"
                    )
        if count != self.prefix.entries:
            raise RuntimeError(
                f"index says {self.prefix.entries} entries, trie holds {count}"
            )
        if len(tier_ids) != len(set(tier_ids)):
            raise RuntimeError("two cold entries share a tier record")
        if set(tier_ids) != set(self._tier_k):
            raise RuntimeError(
                f"cold entries reference tier ids {sorted(set(tier_ids))} but "
                f"the store holds {sorted(self._tier_k)}"
            )

    def sequence(self) -> "SequenceKV":
        """A new, empty per-request cache backed by this pool."""
        return SequenceKV(self)


class _LayerView:
    """Per-(sequence, layer) adapter implementing the LayerKVCache protocol.

    :meth:`append` writes the new tokens into the sequence's pool blocks
    and returns gathered ``(k_all, v_all)`` — exactly what
    :meth:`repro.nn.attention.MultiHeadSelfAttention.forward_ragged`
    expects from a cache.
    """

    __slots__ = ("seq", "pool", "layer")

    def __init__(self, seq: "SequenceKV", layer: int) -> None:
        # Weak: the sequence holds its views, so a strong back-reference
        # would make every sequence a reference cycle that keeps it, and
        # through it the whole pool, alive until the cyclic collector runs.
        # A view therefore appends only while its sequence is referenced.
        self.seq = weakref.proxy(seq)
        self.pool = seq.pool
        self.layer = layer

    @property
    def seq_len(self) -> int:
        return self.seq._layer_len[self.layer]

    @property
    def kv_fmt(self):
        """Storage format K/V are quantized to on write (``None`` = fp64)."""
        return self.pool.kv_fmt

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.seq.append_many(self.layer, k, v)

    def append_raw(
        self, k: np.ndarray, v: np.ndarray, out=None
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.seq.append_raw(self.layer, k, v, out)


class SequenceKV:
    """One request's K/V history, stored in (possibly shared) pool blocks.

    Mirrors the :class:`~repro.nn.kv_cache.KVCache` protocol (``seq_len``
    plus per-layer ``layers[i].append``), so
    :meth:`~repro.nn.model.OPTLanguageModel.forward_ragged` accepts either
    interchangeably.
    """

    def __init__(self, pool: BlockKVPool) -> None:
        self.pool = pool
        self.block_ids: list[int] = []
        self._layer_len = [0] * pool.num_layers
        self.layers = [_LayerView(self, i) for i in range(pool.num_layers)]
        self._released = False
        #: Prompt tokens whose K/V was adopted from the prefix index.
        self.adopted_tokens = 0
        #: Adopted tokens restored from the cold tier (promotions).
        self.cold_tokens_restored = 0
        #: Cold-span tokens the adoption refused (lossy tier / failed
        #: promotion) — they re-prefill instead.
        self.cold_tokens_refused = 0
        # Persistent per-layer gather workspaces, grown by doubling so a
        # long decode reallocates O(log n) times, not once per token.
        self._ws_k: list[np.ndarray | None] = [None] * pool.num_layers
        self._ws_v: list[np.ndarray | None] = [None] * pool.num_layers

    @property
    def seq_len(self) -> int:
        """Committed token positions (all layers agree between forwards)."""
        return self._layer_len[0]

    # -- prefix sharing ------------------------------------------------------------
    def adopt_prefix(self, tokens, max_tokens: int | None = None) -> int:
        """Adopt cached blocks covering the longest indexed prefix of ``tokens``.

        Must be called on an empty sequence, before any append.  Bumps the
        refcount of every adopted block; a partially matched tail block is
        adopted read-only and forked (copy-on-write) by the first write
        into it.  ``max_tokens`` caps the adoption — the engine passes
        ``len(prompt) - 1`` so the final prompt position is always
        computed, which is what produces the first sampled token's logits.
        Returns the number of adopted token positions.
        """
        if self._released:
            raise RuntimeError("SequenceKV used after release()")
        if self.pool.prefix is None:
            return 0
        if self.block_ids or any(self._layer_len):
            raise RuntimeError("adopt_prefix requires an empty sequence")
        cap = len(tokens) if max_tokens is None else min(int(max_tokens), len(tokens))
        if cap <= 0:
            return 0
        if self.pool.tier_blocks:
            adopted, restored, refused = self.pool.prefix.adopt_into(
                tokens[:cap], self.pool, self
            )
            self._layer_len = [adopted] * self.pool.num_layers
            self.adopted_tokens = adopted
            self.cold_tokens_restored = restored
            self.cold_tokens_refused = refused
            return adopted
        full_ids, partial_id, partial_len = self.pool.prefix.match(tokens[:cap])
        for bid in full_ids:
            self.pool.share(bid)
            self.block_ids.append(bid)
        adopted = len(full_ids) * self.pool.block_size
        if partial_id is not None:
            self.pool.share(partial_id)
            self.block_ids.append(partial_id)
            adopted += partial_len
        self._layer_len = [adopted] * self.pool.num_layers
        self.adopted_tokens = adopted
        return adopted

    def register_prefix(self, tokens) -> int:
        """Publish this sequence's blocks for ``tokens`` in the prefix index.

        The engine calls this the moment a prompt's prefill completes —
        every position of ``tokens`` is committed and the covering blocks
        will never be rewritten (decode appends strictly after them, and a
        shared tail is forked on write).  Returns newly cached blocks.
        """
        if self._released:
            raise RuntimeError("SequenceKV used after release()")
        if self.pool.prefix is None:
            return 0
        if len(tokens) > self.seq_len:
            raise ValueError(
                f"cannot register {len(tokens)} tokens; only {self.seq_len} committed"
            )
        return self.pool.prefix.register(tokens, self.block_ids, self.pool)

    # -- append / gather -----------------------------------------------------------
    def _ensure_blocks(self, needed_tokens: int) -> None:
        while len(self.block_ids) * self.pool.block_size < needed_tokens:
            self.block_ids.append(self.pool.allocate())

    def append_many(
        self, layer: int, k: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write a multi-token K/V chunk for ``layer`` into pool blocks.

        The chunk may span any number of block boundaries: whole prompts
        or prompt chunks during prefill, one token per decode step.  A
        write landing in a block whose refcount exceeds one forks it first
        (copy-on-write), so a cached prefix is never mutated.  Returns the
        gathered ``(k_all, v_all)`` views for the attention read.
        """
        if self._released:
            raise RuntimeError("SequenceKV used after release()")
        if k.shape != v.shape or k.ndim != 4 or k.shape[0] != 1:
            raise ValueError(
                f"expected matching (1, heads, seq, head_dim) tensors, got "
                f"{k.shape} and {v.shape}"
            )
        # One rounding per chunk, before the scatter: LayerKVCache's bytes.
        cast = self.pool._kv_cast
        return self._write_chunk(layer, cast(k), cast(v))

    def append_raw(
        self, layer: int, k: np.ndarray, v: np.ndarray, out=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write a chunk whose bytes are **already** in :attr:`BlockKVPool.kv_fmt`.

        Fast path for executors that quantize a whole step's K/V once and
        append per-row slices; quantize is elementwise and idempotent, so
        the stored bytes equal routing the raw chunk through
        :meth:`append_many`.  Validation is skipped — callers own the
        shape contract.  ``out`` is passed on to :meth:`gather`.
        """
        if self._released:
            raise RuntimeError("SequenceKV used after release()")
        return self._write_chunk(layer, k, v, out)

    def _write_chunk(
        self, layer: int, k: np.ndarray, v: np.ndarray, out=None
    ) -> tuple[np.ndarray, np.ndarray]:
        bs = self.pool.block_size
        start = self._layer_len[layer]
        end = start + k.shape[2]
        self._ensure_blocks(end)

        pos, taken = start, 0
        while pos < end:
            index = pos // bs
            block = self.block_ids[index]
            offset = pos % bs
            if self.pool.refcount(block) > 1:
                # Copy-on-write: the block is shared (another sequence or
                # the prefix index references it).  Fork before the write
                # so sharers keep reading the original bytes.
                block = self.pool.fork(block, offset)
                self.block_ids[index] = block
            take = min(bs - offset, end - pos)
            self.pool._k[block, layer, :, offset : offset + take] = k[
                0, :, taken : taken + take
            ]
            self.pool._v[block, layer, :, offset : offset + take] = v[
                0, :, taken : taken + take
            ]
            pos += take
            taken += take
        self._layer_len[layer] = end
        return self.gather(layer, out)

    # No engine caller; kept because wallbench/tracer.py wraps it on every traced run.
    def rollback(self, n: int) -> None:
        """Discard the last ``n`` committed positions.

        Called between forwards (every layer agrees on the length).  Blocks
        that fall entirely past the new length drop one reference back to
        the pool — a shared block survives for its other holders, a private
        one returns to the free list.  When the new tail ends mid-block and
        that block is still shared (an adopted prefix the sequence never
        wrote into), it is forked **before** truncation: the surviving
        positions are copied into a private block so later appends can
        never mutate the cached prefix other sequences read.  Rollback
        followed by re-appending is bit-identical to having appended the
        final content directly (the rollback tests pin this).
        """
        if self._released:
            raise RuntimeError("SequenceKV used after release()")
        n = int(n)
        if n == 0:
            return
        length = self.seq_len
        if not 0 <= n <= length:
            raise ValueError(f"cannot roll back {n} of {length} positions")
        if any(layer_len != length for layer_len in self._layer_len):
            raise RuntimeError("rollback mid-forward: layers disagree on length")
        new_len = length - n
        bs = self.pool.block_size
        keep_blocks = -(-new_len // bs)  # ceil division
        if keep_blocks < len(self.block_ids):
            self.pool.free(self.block_ids[keep_blocks:])
            del self.block_ids[keep_blocks:]
        tail = new_len % bs
        if tail and self.pool.refcount(self.block_ids[-1]) > 1:
            # Fork-before-truncate: the partially surviving tail block is
            # shared, and the positions past ``tail`` are now rewritable.
            self.block_ids[-1] = self.pool.fork(self.block_ids[-1], tail)
        self._layer_len = [new_len] * self.pool.num_layers
        self.adopted_tokens = min(self.adopted_tokens, new_len)

    def gather(self, layer: int, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Pack the layer's blocks into ``(1, heads, seq, head_dim)`` views.

        The workspace is kept strictly longer than the sequence and the
        result returned as a ``[:seq]`` slice, so it is always a strided
        view — the same memory-layout class
        :class:`~repro.nn.kv_cache.LayerKVCache` produces, keeping einsum's
        accumulation identical between the pooled and private cache paths.
        The workspace persists across calls (each call rewrites it from
        the blocks, so copy-on-write forks are picked up transparently)
        and doubles on growth, amortizing allocation over a decode.

        ``out = (k_out, v_out)``, two ``(1, heads, >= seq, head_dim)``
        arrays, replaces the workspace: the history is packed into their
        leading ``seq`` positions and views of those are returned.  The
        compiled executor gathers each row straight into its padded batch
        workspace this way.
        """
        length = self._layer_len[layer]
        pool, bs = self.pool, self.pool.block_size
        if out is not None:
            k_out, v_out = out
        else:
            k_out, v_out = self._ws_k[layer], self._ws_v[layer]
            if k_out is None or k_out.shape[2] <= length:
                capacity = max(length + 1, 2 * (0 if k_out is None else k_out.shape[2]))
                k_out = np.empty((1, pool.num_heads, capacity, pool.head_dim))
                v_out = np.empty_like(k_out)
                self._ws_k[layer], self._ws_v[layer] = k_out, v_out
        for i, block in enumerate(self.block_ids):
            lo = i * bs
            if lo >= length:
                break
            take = min(bs, length - lo)
            k_out[0, :, lo : lo + take] = pool._k[block, layer, :, :take]
            v_out[0, :, lo : lo + take] = pool._v[block, layer, :, :take]
        return k_out[:, :, :length], v_out[:, :, :length]

    def release(self) -> None:
        """Drop every block reference back to the pool (idempotent)."""
        if not self._released:
            self.pool.free(self.block_ids)
            self.block_ids = []
            self._ws_k = [None] * self.pool.num_layers
            self._ws_v = [None] * self.pool.num_layers
            self._released = True
