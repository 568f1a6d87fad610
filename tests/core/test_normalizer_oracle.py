"""The emulated normalizer's bytes, pinned against an op-by-op oracle.

The oracle below re-derives :class:`~repro.core.layernorm.IterL2Norm`,
:class:`~repro.fpformats.arithmetic.FormatArithmetic` reductions and
:func:`~repro.core.iteration.iterate_a_batch` from the public
:func:`~repro.fpformats.quantize.quantize`, rounding after every operation
in the datapath's order (Algorithm 1 of the paper, with 8-input adder
trees).  The library binds a faster but bit-identical rounder; any change
in the order of operations, a dropped or extra rounding, or a rounder that
differs from :func:`quantize` on some input shows up here as a byte
mismatch.  The sweep covers zero, constant, subnormal, overflowing and NaN
rows, rows whose squares are finite but whose squared norm ``m``
overflows to infinity (the exponent read of an infinite ``m``), and rows
that round to both +inf and -inf (whose sum is NaN); NaN payloads, signed
zeros and infinities must match too.
"""

import warnings

import numpy as np
import pytest

from repro.core.initialization import LAMBDA_COEFFICIENT
from repro.core.iteration import iterate_a_batch
from repro.core.layernorm import IterL2Norm, IterL2NormConfig
from repro.fpformats.arithmetic import FormatArithmetic
from repro.fpformats.bitops import unbiased_exponent
from repro.fpformats.quantize import quantize
from repro.fpformats.spec import FORMATS as REGISTRY, get_format

FORMATS = ("fp64", "fp32", "fp16", "bf16", "fp8_e4m3")
ALL_FORMATS = sorted({spec.name for spec in REGISTRY.values()})
D_VALUES = (1, 7, 64, 128, 200, 1024)
ROW_COUNTS = (1, 16, 256)
SPECIAL_ROWS = ("zero", "constant", "subnormal", "overflow", "nan", "m_overflow", "infinities")
FAN_IN = 8


# -- the oracle ------------------------------------------------------------------
def q(x, fmt) -> np.ndarray:
    return np.asarray(quantize(x, fmt), dtype=np.float64)


def oracle_tree_sum(rows: np.ndarray, fmt) -> np.ndarray:
    """Row sums of a 2-D array through rounded 8-input adder trees."""
    current = q(rows, fmt)
    if current.shape[-1] == 0:
        return np.zeros(current.shape[0])
    while current.shape[-1] > 1:
        pad = (-current.shape[-1]) % FAN_IN
        if pad:
            current = np.concatenate([current, np.zeros((current.shape[0], pad))], axis=-1)
        current = q(current.reshape(current.shape[0], -1, FAN_IN).sum(axis=-1), fmt)
    return current[:, 0]


def oracle_iterate(m, fmt, num_steps=5, lam=None, a0=None) -> np.ndarray:
    fmt = get_format(fmt)
    m_input = np.atleast_1d(np.asarray(m, dtype=np.float64))
    positive = m_input > 0.0
    m_arr = q(m_input, fmt)
    m_arr = np.where(positive & (m_arr <= 0.0), fmt.min_positive_subnormal, m_arr)
    m_safe = np.where(positive, m_arr, 1.0)
    exponents = np.asarray(unbiased_exponent(m_safe, fmt), dtype=np.float64)
    if a0 is None:
        a = q(np.exp2(-(exponents + 1.0) / 2.0), fmt)
    else:
        a = np.broadcast_to(q(a0, fmt), m_safe.shape).copy()
    if lam is None:
        lam_arr = q(LAMBDA_COEFFICIENT * np.exp2(-exponents), fmt)
    else:
        lam_arr = np.broadcast_to(q(lam, fmt), m_safe.shape)
    for _ in range(num_steps):
        ma = q(m_safe * a, fmt)
        ma2 = q(ma * a, fmt)
        one_minus = q(1.0 - ma2, fmt)
        lam_ma = q(lam_arr * ma, fmt)
        delta = q(lam_ma * one_minus, fmt)
        a = q(a + delta, fmt)
    a = np.where(positive, a, 0.0)
    return a.reshape(np.shape(m) if np.ndim(m) else (1,))


def oracle_forward(layer: IterL2Norm, x: np.ndarray) -> np.ndarray:
    fmt, cfg, d = layer.fmt, layer.config, layer.normalized_dim
    x_q = q(x.reshape(-1, d), fmt)
    sums = oracle_tree_sum(x_q, fmt)
    means = q(sums * q(1.0 / d, fmt), fmt).reshape(-1, 1)
    y = q(x_q - means, fmt)
    m = oracle_tree_sum(q(y * y, fmt), fmt)
    a = oracle_iterate(m, fmt, cfg.num_steps, cfg.update_rate, cfg.initial_a)
    scales = q(a * q(np.sqrt(d), fmt), fmt).reshape(-1, 1)
    y_hat = q(y * scales, fmt)
    if cfg.elementwise_affine:
        out = q(q(y_hat * layer.gamma, fmt) + layer.beta, fmt)
    else:
        out = y_hat
    return out.reshape(x.shape)


# -- inputs ------------------------------------------------------------------------
def special_row(kind: str, fmt: str, d: int, rng) -> np.ndarray:
    spec = get_format(fmt)
    if kind == "zero":
        return np.zeros(d)
    if kind == "constant":
        return np.full(d, 0.7)
    if kind == "subnormal":
        return spec.min_positive_subnormal * rng.integers(-3, 4, size=d)
    if kind == "overflow":
        return spec.max_finite * rng.choice([-0.9, 0.6, 0.99], size=d)
    if kind == "m_overflow":
        # Alternating +-0.75 sqrt(max): zero mean, each square about half the
        # largest finite value, so any two of them sum past it.
        return 0.75 * np.sqrt(spec.max_finite) * np.where(np.arange(d) % 2, -1.0, 1.0)
    if kind == "infinities":
        # Beyond the range on both sides: the rounded row holds +inf and -inf
        # among finite values, and the adder tree sums them to NaN.
        row = rng.standard_normal(d)
        row[0], row[d // 2] = 2.0 * spec.max_finite, -2.0 * spec.max_finite
        return row
    row = rng.standard_normal(d)
    row[rng.integers(d)] = np.nan
    return row


def make_batch(fmt: str, d: int, rows: int, seed: int) -> np.ndarray:
    """Random rows across four decades; the first rows are the special kinds."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(rows, 1))
    x = (rng.standard_normal((rows, d)) + rng.standard_normal((rows, 1))) * scale
    for index, kind in enumerate(SPECIAL_ROWS[:rows]):
        x[index] = special_row(kind, fmt, d, rng)
    return x


def make_layer(fmt: str, d: int, seed: int, **config) -> IterL2Norm:
    rng = np.random.default_rng(seed)
    return IterL2Norm(
        d,
        IterL2NormConfig(fmt=fmt, **config),
        gamma=1.0 + 0.1 * rng.standard_normal(d),
        beta=0.1 * rng.standard_normal(d),
    )


def assert_bytes_equal(got, expected):
    got, expected = np.asarray(got, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    if got.tobytes() != expected.tobytes():
        diff = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
        raise AssertionError(
            f"{diff.size} element(s) differ, first at flat index {diff[0]}: "
            f"{got.flat[diff[0]]!r} != {expected.flat[diff[0]]!r}"
        )


@pytest.fixture(autouse=True)
def quiet_float_errors():
    # Overflowing and NaN rows warn identically on both sides.
    with np.errstate(all="ignore"):
        yield


# -- IterL2Norm.forward ------------------------------------------------------------
@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("d", D_VALUES)
@pytest.mark.parametrize("fmt", FORMATS)
def test_forward_matches_oracle(fmt, d, rows):
    layer = make_layer(fmt, d, seed=d)
    x = make_batch(fmt, d, rows, seed=1000 * d + rows)
    assert_bytes_equal(layer.forward(x), oracle_forward(layer, x))


@pytest.mark.parametrize("kind", SPECIAL_ROWS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_single_special_row_matches_oracle(fmt, kind):
    layer = make_layer(fmt, 64, seed=3)
    x = special_row(kind, fmt, 64, np.random.default_rng(4))[None, :]
    assert_bytes_equal(layer.forward(x), oracle_forward(layer, x))


@pytest.mark.parametrize("affine", [True, False])
@pytest.mark.parametrize(
    "overrides",
    [{}, {"update_rate": 0.05}, {"initial_a": 0.3}, {"update_rate": 0.02, "initial_a": 0.11}],
    ids=["eq6-eq10", "lambda", "a0", "both"],
)
@pytest.mark.parametrize("num_steps", [0, 1, 5])
@pytest.mark.parametrize("fmt", FORMATS)
def test_config_variants_match_oracle(fmt, num_steps, overrides, affine):
    layer = make_layer(
        fmt, 64, seed=5, num_steps=num_steps, elementwise_affine=affine, **overrides
    )
    x = make_batch(fmt, 64, 16, seed=6).reshape(2, 8, 64)
    assert_bytes_equal(layer.forward(x), oracle_forward(layer, x))


@pytest.mark.parametrize("fmt", FORMATS)
def test_reassigned_gamma_and_beta_are_honoured(fmt):
    layer = make_layer(fmt, 128, seed=7)
    x = make_batch(fmt, 128, 16, seed=8)
    before = layer.forward(x)
    rng = np.random.default_rng(9)
    layer.gamma = 2.0 + rng.standard_normal(128)
    after_gamma = layer.forward(x)
    assert_bytes_equal(after_gamma, oracle_forward(layer, x))
    assert after_gamma[5:].tobytes() != before[5:].tobytes()
    layer.beta = rng.standard_normal(128)
    assert_bytes_equal(layer.forward(x), oracle_forward(layer, x))
    # Parameters are bound when assigned; an in-place write would go unseen.
    with pytest.raises(ValueError):
        layer.gamma[0] = 3.0


@pytest.mark.parametrize("d", (8, 64, 128))
@pytest.mark.parametrize("fmt", FORMATS)
def test_rows_whose_squared_norm_overflows(fmt, d):
    layer = make_layer(fmt, d, seed=12)
    rng = np.random.default_rng(13)
    x = np.concatenate([special_row("m_overflow", fmt, d, rng)[None, :],
                        make_batch(fmt, d, 15, seed=14)[6:]])
    arith = FormatArithmetic(fmt)
    y = q(x[:1], fmt) - q(q(x[:1], fmt).sum() / d, fmt)
    squares = q(y * y, fmt)
    assert np.all(np.isfinite(squares))
    assert np.isinf(arith.tree_sum(squares[0]))
    assert_bytes_equal(layer.forward(x), oracle_forward(layer, x))
    m = np.array([np.inf, 4.0, np.inf, 0.5])
    assert_bytes_equal(iterate_a_batch(m, fmt=fmt), oracle_iterate(m, fmt))


def strict(call, *args, **kwargs):
    """``call(*args, **kwargs)`` under NumPy's default float-error handling,
    with every warning raised as an error."""
    with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args, **kwargs)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_infinite_m_iterates_silently(fmt):
    # An infinite m drives a to NaN; the table gather and the update loop
    # report it the same way: not at all.
    spec = get_format(fmt)
    m = np.array([np.inf, 4.0, 2.0 * spec.max_finite, 1e308, -np.inf, np.nan])
    for num_steps in (0, 1, 5):
        for overrides in ({}, {"lam": 0.05}):
            got = strict(iterate_a_batch, m, num_steps=num_steps, fmt=fmt, **overrides)
            assert_bytes_equal(got, oracle_iterate(m, fmt, num_steps, **overrides))


@pytest.mark.parametrize("kind", SPECIAL_ROWS)
@pytest.mark.parametrize("fmt", [name for name in ALL_FORMATS if name != "fp64"])
def test_special_rows_normalize_silently(fmt, kind):
    # In fp64 an infinite m needs a float64 overflow in the squares or the
    # adder tree, which NumPy reports; every rounded format saturates to inf
    # in its rounder and then runs the iteration without a warning.
    layer = make_layer(fmt, 8, seed=15)
    rng = np.random.default_rng(16)
    top = get_format(fmt).max_finite
    x = np.stack([special_row(kind, fmt, 8, rng), top / 16.0 * np.arange(8)])
    assert_bytes_equal(strict(layer.forward, x), oracle_forward(layer, x))


# -- FormatArithmetic reductions ---------------------------------------------------
@pytest.mark.parametrize("d", D_VALUES)
@pytest.mark.parametrize("fmt", FORMATS)
def test_reductions_match_oracle(fmt, d):
    arith = FormatArithmetic(fmt)
    x = make_batch(fmt, d, 16, seed=d)
    assert_bytes_equal(arith.tree_sum(x, axis=-1), oracle_tree_sum(x, fmt))
    assert_bytes_equal(arith.tree_sum(x.T, axis=0), oracle_tree_sum(x, fmt))
    for row, other in zip(x, x[::-1]):
        total = arith.tree_sum(row)
        assert isinstance(total, float)
        assert_bytes_equal(total, oracle_tree_sum(row[None, :], fmt)[0])
        expected_dot = oracle_tree_sum(q(row * other, fmt)[None, :], fmt)[0]
        assert_bytes_equal(arith.dot(row, other), expected_dot)
        expected_mean = q(oracle_tree_sum(row[None, :], fmt)[0] * q(1.0 / d, fmt), fmt)
        assert_bytes_equal(arith.mean(row), expected_mean)


@pytest.mark.parametrize("fmt", FORMATS)
def test_elementwise_ops_keep_scalar_results_python_floats(fmt):
    arith = FormatArithmetic(fmt)
    for result in (arith.cast(0.1), arith.add(0.1, 0.2), arith.sub(1.0, 1e-3), arith.mul(3.0, 0.1)):
        assert type(result) is float
    assert_bytes_equal(arith.mul(3.0, 0.1), q(3.0 * 0.1, fmt))
    array = arith.add(np.array([0.1, 0.2]), 0.3)
    assert isinstance(array, np.ndarray) and array.shape == (2,)


# -- iterate_a_batch ---------------------------------------------------------------
def m_values(fmt: str) -> np.ndarray:
    spec = get_format(fmt)
    rng = np.random.default_rng(11)
    return np.concatenate(
        [
            10.0 ** rng.uniform(-6, 6, size=64),
            [0.0, -0.0, -3.0, np.inf, np.nan, spec.max_finite, 2.0 * spec.max_finite],
            [spec.min_positive_subnormal, spec.min_positive_normal, 1e-320, 1e-60],
        ]
    )


@pytest.mark.parametrize(
    "overrides",
    [{}, {"lam": 0.05}, {"a0": 0.3}, {"lam": 0.02, "a0": 0.11}],
    ids=["eq6-eq10", "lambda", "a0", "both"],
)
@pytest.mark.parametrize("num_steps", [0, 1, 5])
@pytest.mark.parametrize("fmt", FORMATS)
def test_iterate_a_batch_matches_oracle(fmt, num_steps, overrides):
    m = m_values(fmt)
    got = iterate_a_batch(m, num_steps=num_steps, fmt=fmt, **overrides)
    assert_bytes_equal(got, oracle_iterate(m, fmt, num_steps, **overrides))
    grid = m[:60].reshape(6, 10)
    got = iterate_a_batch(grid, num_steps=num_steps, fmt=fmt, **overrides)
    assert_bytes_equal(got, oracle_iterate(grid, fmt, num_steps, **overrides))


@pytest.mark.parametrize("fmt", FORMATS)
def test_iterate_a_batch_scalar_input(fmt):
    assert_bytes_equal(iterate_a_batch(2.0, fmt=fmt), oracle_iterate(2.0, fmt))
