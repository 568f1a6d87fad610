"""``stored_exponent`` equals ``unbiased_exponent`` on values in the format.

The batched IterL2Norm iteration reads the exponent of the already-rounded
``m`` with :func:`numpy.frexp` (:func:`stored_exponent`) instead of
encoding its bit pattern; Eq. (6)'s ``a0`` and Eq. (10)'s ``lambda`` are
functions of that exponent, so a single disagreement changes the
normalizer's bytes.  Every registered format is checked on a million random
bit patterns of the format itself, on a million random float64 patterns
rounded into it, and on each class boundary: zero, subnormals, the smallest
normal, the largest finite value, infinities and NaN.
"""

import numpy as np
import pytest

from repro.fpformats.bitops import decode_bits, stored_exponent, unbiased_exponent
from repro.fpformats.quantize import quantize
from repro.fpformats.spec import FORMATS, get_format

FORMAT_NAMES = sorted({fmt.name for fmt in FORMATS.values()})
N_PATTERNS = 1_000_000


def format_values(fmt, bits) -> np.ndarray:
    """The float64 values of ``fmt`` bit patterns."""
    if fmt.name == "fp64":
        return np.asarray(bits, dtype=np.uint64).view(np.float64)
    return np.asarray(decode_bits(bits, fmt), dtype=np.float64)


def assert_reads_agree(fmt, values):
    with np.errstate(all="ignore"):
        expected = np.asarray(unbiased_exponent(values, fmt))
    got = np.asarray(stored_exponent(values, fmt))
    assert got.shape == expected.shape
    mismatch = np.flatnonzero(got != expected)
    assert mismatch.size == 0, (
        f"{mismatch.size} mismatch(es), first {values.flat[mismatch[0]]!r}: "
        f"{got.flat[mismatch[0]]} != {expected.flat[mismatch[0]]}"
    )


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_random_format_bit_patterns(name):
    fmt = get_format(name)
    rng = np.random.default_rng(fmt.total_bits)
    if fmt.total_bits <= 20:  # every pattern, then random repeats
        bits = np.arange(1 << fmt.total_bits, dtype=np.uint64)
        extra = rng.integers(0, 1 << fmt.total_bits, N_PATTERNS - bits.size)
        bits = np.concatenate([bits, extra.astype(np.uint64)])
    else:
        bits = rng.integers(0, 1 << fmt.total_bits, N_PATTERNS, dtype=np.uint64, endpoint=False)
    assert bits.size == N_PATTERNS
    assert_reads_agree(fmt, format_values(fmt, bits))


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_random_float64_patterns_rounded_into_the_format(name):
    fmt = get_format(name)
    rng = np.random.default_rng(100 + fmt.total_bits)
    raw = rng.integers(0, np.iinfo(np.uint64).max, N_PATTERNS, dtype=np.uint64, endpoint=True)
    # Narrow formats see mostly 0 and inf from full-range patterns, so half
    # the draws keep the exponent within a few binades of the format's range.
    near = rng.uniform(fmt.min_normal_exponent - fmt.mantissa_bits - 4,
                       fmt.max_normal_exponent + 2, N_PATTERNS // 2)
    values = raw.view(np.float64).copy()
    with np.errstate(all="ignore"):
        values[: near.size] = rng.choice([-1.0, 1.0], near.size) * np.exp2(near)
        rounded = np.asarray(quantize(values, fmt))
    assert_reads_agree(fmt, rounded)


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_class_boundaries(name):
    fmt = get_format(name)
    tiny, normal, top = fmt.min_positive_subnormal, fmt.min_positive_normal, fmt.max_finite
    edges = np.array([
        0.0, tiny, 2 * tiny, normal - tiny, normal, normal + normal * fmt.machine_epsilon,
        1.0, 2.0, top / 2, top, np.inf, np.nan,
    ])
    values = np.concatenate([edges, -edges])
    assert_reads_agree(fmt, values)
    assert stored_exponent(np.inf, fmt) == fmt.max_exponent_field - fmt.bias
    assert stored_exponent(-np.inf, fmt) == fmt.max_exponent_field - fmt.bias
    assert stored_exponent(normal, fmt) == fmt.min_normal_exponent
    assert stored_exponent(tiny, fmt) == -fmt.bias
    assert stored_exponent(top, fmt) == fmt.max_normal_exponent


def test_shape_follows_input():
    assert np.ndim(stored_exponent(3.0, "bf16")) == 0
    grid = np.full((2, 3), 0.75)
    assert np.asarray(stored_exponent(grid, "fp16")).shape == (2, 3)
    np.testing.assert_array_equal(stored_exponent(grid.T, "fp32"), np.full((3, 2), -1))
