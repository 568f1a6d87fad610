"""The bound casters serve the bytes the per-call ``quantize`` casts served.

Every activation, accumulator and KV cast of a quantizing policy is a
:func:`~repro.precision.ops.caster`, i.e. the format's bound
:func:`~repro.fpformats.quantize.rounder`.  Compiled-vs-reference parity
cannot catch a cast that both backends share, so these tests build a twin
model whose casters call the reference ``quantize(x, fmt)`` on every cast
and demand byte-equal logits from ``forward_with_cache`` and
``forward_ragged``, byte-equal KV caches and equal ``generate()`` tokens,
on both backends.

The two casts also differ in layout: :func:`quantize`'s fp32/fp16 path
keeps a transposed or Fortran-ordered input's layout, while a rounder
returns C order.  einsum picks its accumulation loop by operand layout, so
the end-to-end twin is what pins that no cast's layout reaches a matmul in
a way that moves a bit; the cast-level tests pin the values for every
layout the executor feeds in.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import repro.nn.executor  # noqa: F401 - loads every module that binds a caster
import repro.serve.kv_pool  # noqa: F401
from repro.fpformats.quantize import quantize
from repro.fpformats.spec import FLOAT64, FORMATS, get_format
from repro.nn.config import get_config
from repro.nn.executor import resolve_executor
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.precision.ops import caster

POLICIES = ("fp32", "fp16", "bf16", "bf16-fp8kv")
BACKENDS = ("reference", "compiled")
FORMAT_NAMES = sorted({fmt.name for fmt in FORMATS.values()} - {"fp64"})


def caster_modules():
    """Every loaded ``repro`` module that binds :func:`caster` by name."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro.") and getattr(module, "caster", None) is caster
    ]


def test_every_cast_site_is_found():
    names = {module.__name__ for module in caster_modules()}
    assert {
        "repro.precision.ops",
        "repro.nn.executor",
        "repro.nn.kv_cache",
        "repro.serve.kv_pool",
    } <= names


@pytest.fixture
def quantize_casters(monkeypatch):
    """Install per-call ``quantize`` casters; returns the calls per format."""
    calls = Counter()

    def quantize_caster(fmt):
        if fmt is None or get_format(fmt) == FLOAT64:
            return lambda x: x
        fmt = get_format(fmt)

        def cast(x):
            calls[fmt.name] += 1
            return quantize(x, fmt)

        return cast

    def install():
        for module in caster_modules():
            monkeypatch.setattr(module, "caster", quantize_caster)
        return calls

    return install


def make_model(policy):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(31), policy=policy
    )
    model.eval()
    return model


def run_everything(policy, backend):
    """Logits, caches and tokens of one model on one backend, as bytes."""
    model = make_model(policy)
    executor = resolve_executor(backend, model)
    rng = np.random.default_rng(3)
    out = {}

    # forward_with_cache: a batched prefill, then single-token steps.
    cache = model.new_kv_cache()
    prompt = rng.integers(0, 64, size=(2, 9))
    out["cached/prefill"] = executor.forward_with_cache(prompt, cache).tobytes()
    for step in range(3):
        new = rng.integers(0, 64, size=(2, 1))
        logits = executor.forward_with_cache(new, cache, last_only=True)
        out[f"cached/step{step}"] = logits.tobytes()
    for i, layer in enumerate(cache.layers):
        out[f"cached/kv{i}"] = layer.k.tobytes() + layer.v.tobytes()

    # forward_ragged: per-row caches, mixed prefill and decode lengths.
    caches = [model.new_kv_cache() for _ in range(3)]
    for step, lens in enumerate(([5, 2, 7], [1, 1, 1], [3, 1, 2], [1, 4, 1])):
        tokens = rng.integers(0, 64, size=(3, max(lens)))
        logits = executor.forward_ragged(tokens, caches, lens, last_only=False)
        logits = logits[:, -min(lens) :]  # the trailing positions every row owns
        out[f"ragged/step{step}"] = logits.tobytes()
    for r, row_cache in enumerate(caches):
        for i, layer in enumerate(row_cache.layers):
            out[f"ragged/kv{r}.{i}"] = layer.k.tobytes() + layer.v.tobytes()

    # generate(): the cached decode, then past max_position the dense tail.
    out["generate"] = generate(
        model, np.arange(3, 15), max_new_tokens=26, temperature=0.0, backend=backend
    ).tobytes()
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_bound_casters_match_quantize_casters(policy, backend, quantize_casters):
    got = run_everything(policy, backend)
    calls = quantize_casters()
    expected = run_everything(policy, backend)

    spec = make_model(policy).policy
    for fmt in {spec.activation_fmt, spec.accumulation_fmt, spec.kv_cache_fmt}:
        assert calls[get_format(fmt).name] > 0, f"the twin never cast to {fmt}"
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], f"{policy}/{backend}: {key} differs"


# -- casts of every layout the executor produces ----------------------------------
def layouts(rng):
    x = rng.standard_normal((4, 6, 2, 8)) * 10.0 ** rng.uniform(-3, 3, size=(4, 6, 1, 1))
    x[0, 0, 0, :4] = [np.nan, np.inf, -np.inf, 1e-300]
    matrix = x.reshape(24, 16)
    return {
        "c": matrix,
        "transposed": matrix.T,
        "fortran": np.asfortranarray(matrix),
        "strided": matrix[::2, 1::3],
        "head-split": x.transpose(0, 2, 1, 3),  # (batch, heads, seq, head_dim) view
        "row-of-head-split": x.transpose(0, 2, 1, 3)[1:2, :, 2:],
        "zero-d": np.array(0.1),
    }


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_caster_values_for_every_layout(name, rng):
    cast = caster(name)
    for layout, x in layouts(rng).items():
        before = x.copy()
        with np.errstate(all="ignore"):
            expected = np.asarray(quantize(x, name))
            got = cast(x)
        assert got.shape == x.shape, layout
        assert got.flags.c_contiguous, layout
        assert got.tobytes() == expected.tobytes(), f"{name}/{layout}"
        assert x.tobytes() == before.tobytes(), f"{name}/{layout}: input mutated"


@pytest.mark.parametrize("fmt", [None, "fp64", FLOAT64])
def test_fp64_caster_is_the_identity(fmt, rng):
    x = rng.standard_normal((3, 4)).T
    assert caster(fmt)(x) is x
