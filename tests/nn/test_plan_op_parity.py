"""Op-by-op parity: every closure of the compiled plan against its module.

The backend parity tests compare served tokens, and a logit that moves
without flipping an argmax slips past them.  These tests compare each op
the compiled plan binds — the q/k/v, out-projection, FFN (fc1 → ReLU →
fc2) and tied-logit linears, the normalizers (exact LayerNorm or an
approximate replacement) and the embedding — with the module call the
reference path makes, as bit patterns, under every precision preset.
All linears, out-projection and fc2 included, run the one
``det_matmul`` kernel on both sides, so any difference is a re-staging
bug in the plan.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.executor import _Plan
from repro.nn.functional import relu
from repro.nn.model import OPTLanguageModel

POLICIES = ("fp64-ref", "fp32", "fp16", "bf16", "bf16-fp8kv")
LINEARS = ("q", "k", "v", "out", "ffn")
NORMALIZERS = ("layernorm", "exact", "iterl2norm", "fisr", "lut")
#: (batch, seq) input shapes: one decode row, a prefill chunk, a ragged batch.
SHAPES = ((1, 1), (1, 7), (5, 3))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(actual, expected, what):
    assert actual.shape == expected.shape, what
    np.testing.assert_array_equal(bits(actual), bits(expected), err_msg=what)


def make_model(policy, normalizer="layernorm"):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(5), policy=policy
    )
    model.eval()
    if normalizer != "layernorm":
        model.replace_layernorm(normalizer, fmt=model.policy.variant_normalizer_fmt)
    return model


def activations(rng, dim):
    for batch, seq in SHAPES:
        yield rng.normal(scale=2.0, size=(batch, seq, dim))


def reference_linear(block, name):
    attention = block.attention
    if name == "ffn":
        return lambda x: block.ffn.fc2.forward_det(relu(block.ffn.fc1.forward_det(x)))
    proj = {"q": attention.q_proj, "k": attention.k_proj, "v": attention.v_proj}
    return proj.get(name, attention.out_proj).forward_det


def planned_linear(layer, name):
    if name in ("q", "k", "v"):
        index = "qkv".index(name)
        return lambda x: layer.qkv(x)[index]
    return layer.out if name == "out" else layer.ffn


@pytest.mark.parametrize("name", LINEARS)
@pytest.mark.parametrize("policy", POLICIES)
def test_linear_closures_match_modules(policy, name):
    model = make_model(policy)
    plan = _Plan(model)
    rng = np.random.default_rng(1)
    for index, (block, layer) in enumerate(zip(model.blocks, plan.layers)):
        for x in activations(rng, model.config.embed_dim):
            assert_same_bits(
                planned_linear(layer, name)(x),
                reference_linear(block, name)(x),
                f"layer {index} {name} at shape {x.shape}",
            )


@pytest.mark.parametrize("normalizer", NORMALIZERS)
@pytest.mark.parametrize("policy", POLICIES)
def test_norm_closures_match_modules(policy, normalizer):
    model = make_model(policy, normalizer)
    plan = _Plan(model)
    rng = np.random.default_rng(2)
    pairs = [(plan.final_norm, model.final_norm, "final")]
    for index, (block, layer) in enumerate(zip(model.blocks, plan.layers)):
        pairs.append((layer.attn_norm, block.attn_norm, f"layer {index} attn"))
        pairs.append((layer.ffn_norm, block.ffn_norm, f"layer {index} ffn"))
    for x in activations(rng, model.config.embed_dim):
        for planned, module, what in pairs:
            assert_same_bits(planned(x), module(x), f"{what} norm at shape {x.shape}")


@pytest.mark.parametrize("policy", POLICIES)
def test_tied_logits_match_the_reference_projection(policy):
    model = make_model(policy)
    plan = _Plan(model)
    rng = np.random.default_rng(3)
    table_t = model.token_embedding.weight.data.T
    for h in activations(rng, model.config.embed_dim):
        expected = model.ops.linear_det(h, table_t, None)
        assert_same_bits(plan.out_proj(h), expected, f"logits at shape {h.shape}")
        if plan.out_proj_into is not None:
            out = np.empty(expected.shape)
            plan.out_proj_into(h, out)
            assert_same_bits(out, expected, f"logits into a buffer at {h.shape}")


@pytest.mark.parametrize("policy", POLICIES)
def test_embedding_matches_the_reference_lookup(policy):
    model = make_model(policy)
    plan = _Plan(model)
    rng = np.random.default_rng(4)
    config = model.config
    for batch, seq in SHAPES:
        ids = rng.integers(0, config.vocab_size, size=(batch, seq))
        positions = rng.integers(0, config.max_position, size=(batch, seq))
        assert_same_bits(
            plan.embed(ids, positions),
            model.ops.embed(
                model.token_embedding.weight.data,
                model.position_embedding.weight.data,
                ids,
                positions,
            ),
            f"embedding at shape {(batch, seq)}",
        )
