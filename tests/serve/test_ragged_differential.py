"""Randomized differential test: compiled ``forward_ragged`` vs the reference.

The compiled backend runs a ragged batch's attention once per layer over K/V
padded to the batch's longest row; the reference model attends each row over
exactly its own keys.  Seeded draws mix single-token decode rows with prefill
chunks (up to 8 tokens) and pad lanes, at batch 1-16 and histories up to
``max_position - n``, across both precision extremes, three head widths and
both cache kinds.  Logits and every stored K/V byte must agree exactly —
compared as bit patterns, so ``-0.0`` and NaN count.  That holds on pad
lanes too, whose output callers ignore: both backends leave the pad lanes'
attention context at zero.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.executor import CompiledExecutor
from repro.nn.model import OPTLanguageModel
from repro.serve import BlockKVPool

#: head_dim 16, 24 and 32.
PRESETS = ("opt-test", "opt-125m-sim", "opt-350m-sim")
POLICIES = ("fp64-ref", "bf16-fp8kv")
CACHE_KINDS = ("layer", "pooled")


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def make_model(preset, policy):
    model = OPTLanguageModel(
        get_config(preset), rng=np.random.default_rng(7), policy=policy
    )
    model.eval()
    return model


def cache_factory(model, kind):
    if kind == "layer":
        return model.new_kv_cache
    return BlockKVPool.for_model(model, block_size=8, initial_blocks=16).sequence


def stored(cache, layer):
    """The ``(k, v)`` history a cache holds for one layer."""
    if hasattr(cache, "gather"):
        return cache.gather(layer)
    view = cache.layers[layer]
    return view.k, view.v


def draw_batch(rng, config, kind):
    """``(token_ids, new_lens, pasts)`` for one ragged step.  ``kind`` is
    ``"single"`` (one row), ``"decode"`` (every row one token) or
    ``"mixed"`` (decode rows next to prefill chunks)."""
    batch = 1 if kind == "single" else int(rng.integers(2, 17))
    lens = rng.integers(2, 9, size=batch)
    if kind == "decode":
        lens[:] = 1
    elif kind == "mixed":
        lens[rng.random(batch) < 0.5] = 1
    # Sometimes widen the chunk so that every row carries pad lanes.
    width = int(lens.max()) + int(rng.integers(0, 2))
    pasts = rng.integers(0, config.max_position - lens + 1)
    ids = rng.integers(0, config.vocab_size, size=(batch, width))
    return ids, lens, pasts


def fill_histories(rng, model, pasts, cache_sets, poison=None, poisoned=()):
    """Append one random K/V history per row to the same row of every cache
    set.  ``poison = (row, tensor, value)`` writes ``value`` into one element
    of that row's ``"k"`` or ``"v"`` history, in the cache sets whose
    indices are in ``poisoned`` only."""
    config = model.config
    heads, head_dim = config.num_heads, config.embed_dim // config.num_heads
    for r, past in enumerate(pasts.tolist()):
        if past == 0:
            continue
        for layer in range(config.num_layers):
            k = rng.normal(size=(1, heads, past, head_dim))
            v = rng.normal(size=k.shape)
            for i, caches in enumerate(cache_sets):
                k_r, v_r = k.copy(), v.copy()
                if i in poisoned and poison[0] == r:
                    target = k_r if poison[1] == "k" else v_r
                    target[0, heads - 1, past // 2, head_dim // 3] = poison[2]
                caches[r].layers[layer].append(k_r, v_r)


def assert_rows_equal(got, expected, rows, what):
    for r in rows:
        assert np.array_equal(bits(got[r]), bits(expected[r])), f"{what}: row {r}"


def assert_kv_equal(caches, twins, rows, num_layers):
    for r in rows:
        for layer in range(num_layers):
            for name, a, b in zip("kv", stored(caches[r], layer), stored(twins[r], layer)):
                assert np.array_equal(bits(a), bits(b)), f"row {r} layer {layer} {name}"


@pytest.mark.parametrize("cache_kind", CACHE_KINDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("preset", PRESETS)
def test_compiled_ragged_matches_reference(preset, policy, cache_kind):
    model = make_model(preset, policy)
    config = model.config
    new_cache = cache_factory(model, cache_kind)
    # One executor across every draw: no state may leak between batches.
    executor = CompiledExecutor(model)
    rng = np.random.default_rng(
        [PRESETS.index(preset), POLICIES.index(policy), CACHE_KINDS.index(cache_kind)]
    )
    for kind in ("mixed", "single", "decode", "mixed", "mixed"):
        ids, lens, pasts = draw_batch(rng, config, kind)
        ref_caches = [new_cache() for _ in lens]
        caches = [new_cache() for _ in lens]
        fill_histories(rng, model, pasts, (ref_caches, caches))
        expected = model.forward_ragged(ids, ref_caches, lens, last_only=False)
        got = executor.forward_ragged(ids, caches, lens, last_only=False)
        rows = range(len(lens))
        assert_rows_equal(
            got, expected, rows,
            f"{kind} draw, lens {lens.tolist()}, pasts {pasts.tolist()}",
        )
        assert_kv_equal(caches, ref_caches, rows, config.num_layers)


@pytest.mark.parametrize("poison", [("k", np.nan), ("v", np.inf)])
@pytest.mark.parametrize("cache_kind", CACHE_KINDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_non_finite_history_stays_in_its_row(policy, cache_kind, poison):
    """One row's history holds a NaN key or an inf value: that row's output
    follows the reference, and every other row keeps the bytes it has in
    the clean batch — the padded batch never mixes rows."""
    model = make_model("opt-125m-sim", policy)
    config = model.config
    new_cache = cache_factory(model, cache_kind)
    rng = np.random.default_rng(3)
    ids, lens, pasts = draw_batch(rng, config, "mixed")
    pasts = np.maximum(pasts, 2)
    bad = int(rng.integers(0, len(lens)))
    clean, ref_bad, got_bad = ([new_cache() for _ in lens] for _ in range(3))
    fill_histories(
        rng, model, pasts, (clean, ref_bad, got_bad),
        poison=(bad, *poison), poisoned=(1, 2),
    )
    executor = CompiledExecutor(model)
    got_clean = executor.forward_ragged(ids, clean, lens, last_only=False).copy()
    with np.errstate(all="ignore"):
        expected = model.forward_ragged(ids, ref_bad, lens, last_only=False)
        got = executor.forward_ragged(ids, got_bad, lens, last_only=False)
    assert not np.all(np.isfinite(got[bad])), "the poison never reached the output"
    rows = range(len(lens))
    assert_rows_equal(got, expected, rows, "poisoned batch vs reference")
    assert_kv_equal(got_bad, ref_bad, rows, config.num_layers)
    others = [r for r in rows if r != bad]
    assert_rows_equal(got, got_clean, others, "poisoned vs clean batch")
    assert_kv_equal(got_bad, clean, others, config.num_layers)


def test_stale_workspace_never_reaches_a_later_batch():
    """A batch slot whose row held an inf value last step, and is a short
    row now, must read zeros on its pad keys — never the stale inf, which
    ``0 * inf`` would turn into NaN."""
    model = make_model("opt-test", "fp64-ref")
    executor = CompiledExecutor(model)
    rng = np.random.default_rng(5)
    ids, lens = rng.integers(0, model.config.vocab_size, size=(2, 1)), np.ones(2, int)
    stale = [model.new_kv_cache() for _ in lens]
    fill_histories(
        rng, model, np.array([24, 4]), (stale,), poison=(0, "v", np.inf), poisoned=(0,)
    )
    with np.errstate(all="ignore"):
        executor.forward_ragged(ids, stale, lens)
    # Row 0's pad keys now cover the slot positions that held the inf.
    ref_caches, caches = ([model.new_kv_cache() for _ in lens] for _ in range(2))
    fill_histories(rng, model, np.array([4, 24]), (ref_caches, caches))
    with np.errstate(invalid="raise", over="raise"):
        expected = model.forward_ragged(ids, ref_caches, lens)
        got = executor.forward_ragged(ids, caches, lens)
    assert np.all(np.isfinite(got))
    assert_rows_equal(got, expected, range(2), "batch after a poisoned one")
