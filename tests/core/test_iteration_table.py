"""The tabulated scalar iteration of formats up to 16 bits.

With the default ``a0`` and ``lambda``, :func:`iterate_a_batch` answers a
format of at most 16 bits from :func:`iteration_table`: the update loop, run
once over every positive value of the format.  These tests pin the gather
against the loop on every bit pattern of each such format (signed zeros,
negatives, subnormals, infinities and NaNs), on float64 ``m`` that underflow
or overflow when rounded, and against the scalar :func:`iterate_a_trace`;
and they check that wider formats and an explicit ``lam`` or ``a0`` never
read the table.
"""

import numpy as np
import pytest

import repro.core.iteration as iteration
from repro.core.iteration import iterate_a_batch, iterate_a_trace, iteration_table
from repro.fpformats.bitops import decode_bits
from repro.fpformats.spec import FORMATS, FloatFormat, get_format

TABLE_FORMATS = sorted({fmt.name for fmt in FORMATS.values() if fmt.total_bits <= 16})
WIDE_FORMATS = sorted({fmt.name for fmt in FORMATS.values() if fmt.total_bits > 16})
STEPS = (0, 1, 3, 4, 5, 10)
# Formats outside the registry: a 6-bit one, and one that flushes subnormals.
CUSTOM_FORMATS = (
    FloatFormat("e3m2", exponent_bits=3, mantissa_bits=2),
    FloatFormat("e4m3-ftz", exponent_bits=4, mantissa_bits=3, supports_subnormals=False),
)


def every_pattern(fmt) -> np.ndarray:
    """All ``2^total_bits`` bit patterns of ``fmt``, decoded to float64."""
    spec = get_format(fmt)
    return decode_bits(np.arange(1 << spec.total_bits), spec)


def off_grid_m(fmt) -> np.ndarray:
    """float64 ``m`` that are not values of ``fmt``: some round to zero or
    to infinity, the rest to a neighbouring value."""
    spec = get_format(fmt)
    tiny, top = spec.min_positive_subnormal, spec.max_finite
    rng = np.random.default_rng(spec.total_bits)
    return np.concatenate(
        [
            [5e-324, 1e-320, 1e-300, 0.25 * tiny, 0.5 * tiny, 0.51 * tiny, 1.49 * tiny],
            [1.001 * top, 1.5 * top, 2.0 * top, 1e300, np.finfo(np.float64).max],
            10.0 ** rng.uniform(-50.0, 50.0, size=256),
        ]
    )


def assert_bytes_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    if got.tobytes() != expected.tobytes():
        diff = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
        raise AssertionError(
            f"{diff.size} element(s) differ, first at flat index {diff[0]}: "
            f"{got.flat[diff[0]]!r} != {expected.flat[diff[0]]!r}"
        )


@pytest.fixture
def loop_only(monkeypatch):
    """Run :func:`iterate_a_batch` with the update loop for every format."""

    def run(m, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(iteration, "_TABLE_MAX_BITS", 0)
            patch.setattr(iteration, "iteration_table", _table_must_not_be_read)
            return iterate_a_batch(m, **kwargs)

    return run


def _table_must_not_be_read(*args):
    raise AssertionError("the iteration table was read")


@pytest.mark.parametrize("num_steps", STEPS)
@pytest.mark.parametrize("fmt", [*TABLE_FORMATS, *CUSTOM_FORMATS], ids=str)
def test_table_matches_loop_on_every_bit_pattern(fmt, num_steps, loop_only):
    m = np.concatenate([every_pattern(fmt), off_grid_m(fmt)])
    expected = loop_only(m, num_steps=num_steps, fmt=fmt)
    assert_bytes_equal(iterate_a_batch(m, num_steps=num_steps, fmt=fmt), expected)
    grid = m[: 8 * (m.size // 8)].reshape(8, -1)
    batched = iterate_a_batch(grid, num_steps=num_steps, fmt=fmt)
    assert_bytes_equal(batched, expected[: grid.size].reshape(grid.shape))


@pytest.mark.parametrize("num_steps", (1, 5))
@pytest.mark.parametrize("fmt", TABLE_FORMATS)
def test_table_matches_scalar_trace(fmt, num_steps):
    m = every_pattern(fmt)
    m = m[np.isfinite(m) & (m > 0.0)]
    rng = np.random.default_rng(get_format(fmt).total_bits + num_steps)
    m = rng.choice(m, size=min(500, m.size), replace=False)
    m = np.concatenate([m, [1e-320, 0.25 * get_format(fmt).min_positive_subnormal]])
    expected = np.array([iterate_a_trace(float(v), num_steps=num_steps, fmt=fmt).final_a for v in m])
    assert_bytes_equal(iterate_a_batch(m, num_steps=num_steps, fmt=fmt), expected)


@pytest.mark.parametrize("fmt", [*TABLE_FORMATS, *CUSTOM_FORMATS], ids=str)
def test_table_holds_every_positive_value_once(fmt):
    spec = get_format(fmt)
    values, results = iteration_table(spec, 5)
    patterns = every_pattern(spec)
    expected = np.unique(patterns[patterns > 0.0])  # NaN compares false
    assert_bytes_equal(values, expected)
    assert values[-1] == np.inf and results.shape == values.shape
    assert not values.flags.writeable and not results.flags.writeable
    assert iteration_table(spec, 5)[1] is results


@pytest.mark.parametrize(
    "overrides",
    [{"lam": 0.05}, {"a0": 0.3}, {"lam": 0.02, "a0": 0.11}],
    ids=["lambda", "a0", "both"],
)
@pytest.mark.parametrize("fmt", TABLE_FORMATS)
def test_explicit_lam_or_a0_never_reads_the_table(fmt, overrides, loop_only, monkeypatch):
    m = every_pattern(fmt)
    expected = loop_only(m, num_steps=5, fmt=fmt, **overrides)
    monkeypatch.setattr(iteration, "iteration_table", _table_must_not_be_read)
    assert_bytes_equal(iterate_a_batch(m, num_steps=5, fmt=fmt, **overrides), expected)
    with pytest.raises(AssertionError, match="table was read"):
        iterate_a_batch(m, num_steps=5, fmt=fmt)


@pytest.mark.parametrize("fmt", WIDE_FORMATS)
def test_wide_formats_never_read_the_table(fmt, monkeypatch):
    monkeypatch.setattr(iteration, "iteration_table", _table_must_not_be_read)
    m = np.array([0.5, 2.0, 1e6, 1e-40])
    expected = np.array([iterate_a_trace(v, fmt=fmt).final_a for v in m])
    assert_bytes_equal(iterate_a_batch(m, fmt=fmt), expected)
