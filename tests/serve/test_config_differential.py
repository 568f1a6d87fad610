"""Randomized differential test over the serving configuration space.

The serving invariant: every served token equals
:func:`repro.nn.generation.generate` run on that request alone, whatever
the engine is configured to do.  Instead of enumerating features by hand,
each seed draws one whole configuration — precision preset, normalizer
(exact LayerNorm or IterL2Norm in the policy's working format), backend,
workload scenario, batch width, KV block size, prefix caching with a
bounded pool, a cold KV tier (byte-exact or lossy) and chunked prefill —
serves a small seeded workload through the stepwise interface with the
pool's invariants checked after every step, and checks every request
against ``generate()``.  The draw is part of the failure message, so a
failing seed names the configuration that broke.
"""

import math

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve import ServeEngine
from repro.serve.workload import SCENARIOS, generate_workload

POLICIES = ("fp64-ref", "fp32", "fp16", "bf16", "bf16-fp8kv")
BACKENDS = ("reference", "compiled")
SEEDS = range(48)


def draw_config(seed):
    """One seeded point of the configuration space."""
    rng = np.random.default_rng([2024, seed])
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    config = {
        "policy": pick(POLICIES),
        "iterl2norm_steps": pick((None, 3, 5)),
        "backend": pick(BACKENDS),
        "scenario": pick(sorted(SCENARIOS)),
        "max_batch_size": int(rng.integers(1, 7)),
        "block_size": pick((2, 4, 8)),
        "prefix_caching": bool(rng.integers(2)),
        "prefill_budget": pick((None, 3, 8)),
    }
    rng.integers(2)  # a retired axis; still drawn so each seed keeps its fields
    config |= {
        "pool_slack": int(rng.integers(0, 12)),
        "tier": pick((None, "exact", "fp8_e4m3")),
    }
    if not config["prefix_caching"]:
        config["tier"] = None
    return config


def build(config, seed):
    model = OPTLanguageModel(
        get_config("opt-test"),
        rng=np.random.default_rng(seed),
        policy=config["policy"],
    )
    model.eval()
    if config["iterl2norm_steps"] is not None:
        model.replace_layernorm(
            "iterl2norm",
            fmt=model.policy.variant_normalizer_fmt or "fp16",
            num_steps=config["iterl2norm_steps"],
        )
    workload = generate_workload(
        config["scenario"],
        num_requests=5,
        vocab_size=model.config.vocab_size,
        seed=seed,
    )
    engine_kwargs = dict(
        max_batch_size=config["max_batch_size"],
        block_size=config["block_size"],
        prefix_caching=config["prefix_caching"],
        prefill_budget=config["prefill_budget"],
        backend=config["backend"],
    )
    if config["prefix_caching"]:
        # Bounded pool: room for the longest request plus some slack, so
        # cached prefixes get evicted (or demoted to the tier) under load.
        longest = max(r.prompt_ids.size + r.max_new_tokens for r in workload)
        engine_kwargs["max_blocks"] = (
            math.ceil(longest / config["block_size"]) + 1 + config["pool_slack"]
        )
        if config["tier"] is not None:
            engine_kwargs["tier_blocks"] = 8
            if config["tier"] != "exact":
                engine_kwargs["tier_fmt"] = config["tier"]
    return model, workload, engine_kwargs


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s:02d}")
def test_served_tokens_match_generate(seed, fixed_timer, serve_checked):
    config = draw_config(seed)
    model, workload, engine_kwargs = build(config, seed)
    engine = ServeEngine(model, timer=fixed_timer, **engine_kwargs)
    try:
        report = serve_checked(engine, workload)
    except RuntimeError as exc:  # a broken pool invariant or PoolExhaustedError
        raise AssertionError(f"serving failed under {config}") from exc
    assert sorted(c.request_id for c in report.completed) == sorted(
        r.request_id for r in workload
    ), f"not every request completed under {config}"
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
            err_msg=f"request {request.request_id} diverged under {config}",
        )


def test_draws_cover_the_space():
    """The seeds reach every preset, backend and scenario, both normalizers
    and every tier kind — so a regression in any of them fails some seed."""
    draws = [draw_config(seed) for seed in SEEDS]
    assert {d["policy"] for d in draws} == set(POLICIES)
    assert {d["backend"] for d in draws} == set(BACKENDS)
    assert {d["scenario"] for d in draws} == set(SCENARIOS)
    assert {d["iterl2norm_steps"] for d in draws} == {None, 3, 5}
    assert {d["tier"] for d in draws} == {None, "exact", "fp8_e4m3"}
    assert {d["prefill_budget"] for d in draws} == {None, 3, 8}
