"""``IterL2Norm.forward`` runs in place on its own buffers only.

The forward rounds ``x`` into a fresh carrier array and runs every later
step in place on it.  These tests pin what that must not touch (``x``,
gamma, beta and their carrier copies), that each call returns a fresh
array, and the memory one large call needs.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.layernorm import IterL2Norm, IterL2NormConfig

FORMATS = ("fp64", "fp32", "bf16", "fp16", "fp8_e4m3", "fp8_e5m2")
ROWS = (0, 1, 16, 256)
D = 32


def make_layer(fmt: str, rng, in_format: bool = True) -> IterL2Norm:
    layer = IterL2Norm(D, IterL2NormConfig(num_steps=5, fmt=fmt))
    gamma = 1.0 + 0.1 * rng.standard_normal(D)
    beta = 0.1 * rng.standard_normal(D)
    if in_format:
        # Assigned after construction, rounded into the format, so the layer
        # binds carrier copies of both.
        gamma, beta = layer._arith.cast(gamma), layer._arith.cast(beta)
    layer.gamma, layer.beta = gamma, beta
    return layer


def inputs(rng, rows: int) -> np.ndarray:
    x = (rng.standard_normal((rows, D)) + rng.standard_normal((rows, 1))) * 10.0 ** rng.uniform(
        -2, 2, size=(rows, 1)
    )
    if rows >= 16:
        x[1] = 0.0
        x[2] = 7.0
        x[3, :4] = [np.inf, -np.inf, np.nan, 1e300]
    return x


def snapshot(*arrays) -> list[bytes]:
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("in_format", [True, False], ids=["carrier-params", "float64-params"])
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_forward_writes_none_of_its_operands(fmt, rows, in_format):
    rng = np.random.default_rng(rows)
    layer = make_layer(fmt, rng, in_format)
    x = inputs(rng, rows)
    x.setflags(write=False)
    params = [layer.gamma, layer.beta]
    carrier_params = [p for p in (layer._gamma_c, layer._beta_c) if p is not None]
    # Every float64 value is in fp64, so fp64 always binds carrier copies.
    assert len(carrier_params) == (2 if in_format or fmt == "fp64" else 0)
    before = snapshot(x, *params, *carrier_params)
    # Read-only operands: an in-place write into any of them raises.
    assert not any(p.flags.writeable for p in params + carrier_params)
    first = layer.forward(x)
    second = layer.forward(x)
    assert snapshot(x, *params, *carrier_params) == before
    assert first.tobytes() == second.tobytes()
    assert first.shape == x.shape and first.dtype == np.float64


@pytest.mark.parametrize("fmt", FORMATS)
def test_calls_return_fresh_arrays(fmt):
    rng = np.random.default_rng(3)
    layer = make_layer(fmt, rng)
    x = inputs(rng, 16)
    first, second = layer.forward(x), layer.forward(x)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, x) and not np.shares_memory(second, x)
    assert first.flags.writeable and first.flags.c_contiguous
    first[...] = 0.0
    assert second.tobytes() == layer.forward(x).tobytes()


@pytest.mark.parametrize("fmt", ["fp32", "bf16"])
def test_peak_memory_of_a_large_call(fmt):
    """One 256 x 1024 call allocates at most 2.5 x ``x.nbytes`` at its peak:
    the carrier buffer, the bf16 carry, the squares and the adder tree's
    levels, then the float64 result."""
    rng = np.random.default_rng(11)
    d = 1024
    layer = IterL2Norm(
        d,
        IterL2NormConfig(num_steps=5, fmt=fmt),
        gamma=1.0 + 0.1 * rng.standard_normal(d),
        beta=0.1 * rng.standard_normal(d),
    )
    x = rng.standard_normal((256, d)) * 10.0 ** rng.uniform(-2, 2, size=(256, 1))
    layer.forward(x)  # builds the per-format iteration table outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = layer.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == x.nbytes
    assert peak <= 2.5 * x.nbytes, f"peak {peak / x.nbytes:.2f} x the input"
