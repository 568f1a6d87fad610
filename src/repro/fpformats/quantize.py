"""Round-to-nearest-even quantization of arrays to an emulated format.

Quantization is the single primitive that turns float64 NumPy math into a
faithful emulation of FP16/BFloat16/FP32 datapaths: every intermediate value
is rounded to the target format before it is used again, exactly as a
hardware register of that width would store it.

Two entry points share one rounding per format:

* :func:`quantize` takes any value and a format name, and returns a Python
  float for a scalar.  It is the reference, and serves one-off roundings:
  the memoized weights, the KV tier's blocks, the normalizer's ``m``.
* :func:`rounder` resolves the format once and returns a float64 -> float64
  callable with the same bytes.  Every hot cast binds one instead of paying
  the format lookup, the scalar check and the float-error context of
  :func:`quantize` per call: the emulated IterL2Norm datapath
  (:class:`~repro.fpformats.arithmetic.FormatArithmetic` and the batched
  scalar iteration, some fifty small arrays per call) and the transformer's
  activation, accumulator and KV casts
  (:func:`~repro.precision.ops.caster`).

For bfloat16 the rounder rounds *once*, on the float64 bit pattern: add
``2^44 - 1 + bit45`` and clear the low 45 bits.  That is round-to-nearest-
even of the 52-bit mantissa to bfloat16's 7, the same result as
:func:`quantize`'s round-to-odd float32 prestep followed by RNE, whenever
every non-zero result lands in bfloat16's normal range.  An array with a
NaN, an infinity, an overflow or a subnormal-range element goes through the
reference path instead.

:func:`carrier` binds, per format, the native dtype that a chain of
operations on values *already in the format* can run in: float32 for fp32,
and for every narrower format whose precision ``p`` satisfies
``24 >= 2p + 2`` and whose range fits float32 (bf16, fp16, fp8); float64
otherwise.  For ``+``, ``-`` and ``*`` the native float32 result, rounded
into the format, equals the float64 result rounded into the format:
double rounding is innocuous when the wider precision ``p'`` is at least
``2p + 2`` (Figueroa, "When is double rounding innocuous?", 1995), and
53 >= 2 * 24 + 2 covers fp32 itself, whose float32 result needs no further
rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fpformats.spec import BFLOAT16, FLOAT32, FLOAT16, FLOAT64, FloatFormat, get_format


def _quantize_via_numpy(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Round-trip through a native NumPy dtype (fast path for fp32/fp16)."""
    with np.errstate(over="ignore"):
        return x.astype(dtype).astype(np.float64)


def _quantize_bfloat16(x: np.ndarray) -> np.ndarray:
    """Vectorized bit-twiddling bfloat16 quantization (round-to-nearest-even).

    bfloat16 is the upper half of an IEEE float32, so rounding a float32 to
    bfloat16 is integer arithmetic on its ``uint32`` view: add
    ``0x7FFF + (bit 16)`` and clear the low 16 bits — round-to-nearest with
    ties-to-even, including subnormal boundaries and overflow to infinity
    (IEEE bit patterns order like integers within a sign, and a mantissa
    carry rolls into the exponent exactly as rounding requires).

    Naively going float64 → float32 → bfloat16 would *double round*: a value
    a hair above a bfloat16 tie midpoint can collapse onto the midpoint in
    float32 and then break the tie the wrong way.  The float64 → float32
    step therefore uses **round-to-odd** (truncate toward zero, then set the
    low mantissa bit if anything was dropped), which preserves enough
    information — float32 carries 16 bits beyond bfloat16's mantissa — that
    the final round-to-nearest-even matches direct float64 → bfloat16
    rounding bit-for-bit.  The golden tests pin this against the generic
    ulp-scaling path.
    """
    shape = x.shape
    x = np.atleast_1d(x)
    with np.errstate(over="ignore"):
        f32 = x.astype(np.float32)
    bits = f32.view(np.uint32).copy()
    back = f32.astype(np.float64)

    # Round-to-odd repair of the float64 -> float32 step.  astype rounds to
    # nearest; recover the truncated-toward-zero pattern (one ulp below the
    # nearest result when it overshot the magnitude) and set the sticky bit.
    inexact = np.isfinite(x) & np.isfinite(back) & (back != x)
    overshot = inexact & (np.abs(back) > np.abs(x))
    bits = np.where(overshot, bits - np.uint32(1), bits)
    bits = np.where(inexact, bits | np.uint32(1), bits)

    # RNE to a multiple of 2^16 ulps: bias by half, tie broken by bit 16.
    rounded = bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    out = (rounded & np.uint32(0xFFFF0000)).view(np.float32).astype(np.float64)
    # The carry trick would mangle NaN payloads living in the low bits.
    out = np.where(np.isnan(x), np.nan, out)
    return out.reshape(shape)


def _quantize_generic(x: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Round-to-nearest-even quantization for an arbitrary format.

    Works by scaling each value so its ulp becomes 1.0, rounding with
    :func:`numpy.rint` (which implements ties-to-even), and scaling back.
    Overflow saturates to infinity, matching IEEE round-to-nearest behaviour
    where values at or beyond ``(max_finite + 0.5 ulp)`` become inf.
    """
    out = np.array(x, dtype=np.float64, copy=True)
    finite = np.isfinite(out) & (out != 0.0)
    if not np.any(finite):
        return out

    vals = out[finite]
    mag = np.abs(vals)

    # Unbiased exponent of each magnitude (float64 frexp is exact here).
    _, exp = np.frexp(mag)
    unbiased = exp - 1

    # Clamp to the subnormal range: exponents below min_normal use the fixed
    # subnormal ulp so that gradual underflow rounds correctly.
    if fmt.supports_subnormals:
        effective_exp = np.maximum(unbiased, fmt.min_normal_exponent)
    else:
        # Anything below half the smallest normal flushes to zero whatever
        # its ulp; the clamp keeps a float64 subnormal's ulp from underflowing.
        effective_exp = np.maximum(unbiased, fmt.min_normal_exponent - 1)

    ulp = np.exp2(effective_exp.astype(np.float64) - fmt.mantissa_bits)
    # Near float64's largest value the product overflows to inf, which the
    # overflow check below keeps, as the native-dtype paths do silently.
    with np.errstate(over="ignore"):
        quantized = np.rint(vals / ulp) * ulp

    if not fmt.supports_subnormals:
        too_small = np.abs(quantized) < fmt.min_positive_normal
        quantized = np.where(too_small, 0.0, quantized)

    # Rounding may bump a value into the next binade; recompute overflow after.
    max_finite = fmt.max_finite
    overflow_threshold = max_finite + 0.5 * np.exp2(
        float(fmt.max_normal_exponent - fmt.mantissa_bits)
    )
    overflowed = np.abs(quantized) >= overflow_threshold
    quantized = np.where(overflowed, np.sign(vals) * np.inf, quantized)
    # Values between max_finite and the threshold round down to max_finite.
    saturate = (~overflowed) & (np.abs(quantized) > max_finite)
    quantized = np.where(saturate, np.sign(vals) * max_finite, quantized)

    out[finite] = quantized
    return out


def quantize(
    values: np.ndarray | float, fmt: FloatFormat | str
) -> np.ndarray | float:
    """Quantize values to ``fmt`` using round-to-nearest-even.

    Scalars in, scalar (Python float) out; arrays in, float64 arrays out.
    ``fp64`` quantization is the identity.  ``fp32`` and ``fp16`` use native
    NumPy dtypes (bit-exact and fast); every other format goes through the
    generic ulp-scaling path.
    """
    fmt = get_format(fmt)
    scalar = np.isscalar(values) or np.ndim(values) == 0
    x = np.asarray(values, dtype=np.float64)

    if fmt == FLOAT64:
        result = np.array(x, copy=True)
    elif fmt == FLOAT32:
        result = _quantize_via_numpy(x, np.dtype(np.float32))
    elif fmt == FLOAT16:
        result = _quantize_via_numpy(x, np.dtype(np.float16))
    elif fmt == BFLOAT16:
        result = _quantize_bfloat16(x)
    else:
        result = _quantize_generic(x, fmt)

    if scalar:
        return float(result.reshape(()))
    return result


# Constants of the single-rounding bfloat16 path, as 0-d arrays so the
# ufuncs skip scalar conversion.  bfloat16 keeps the top 7 of float64's 52
# mantissa bits; bit 45 is the lowest kept bit.
_BF16_DROP = np.array(45, dtype=np.uint64)
_ONE = np.array(1, dtype=np.uint64)
_BF16_HALF = np.array((1 << 44) - 1, dtype=np.uint64)
_BF16_KEEP = np.array(((1 << 64) - 1) ^ ((1 << 45) - 1), dtype=np.uint64)
# Magnitude bits shifted left by one (the sign drops out): a non-zero
# result is in range iff ``2|r| - 2 bits(2^-126)`` does not exceed the span
# up to bfloat16's largest finite value.  Zero wraps around above the span.
_BF16_LOW2 = np.array(2 * 0x3810_0000_0000_0000, dtype=np.uint64)
_BF16_SPAN2 = np.array(2 * (0x47EF_E000_0000_0000 - 0x3810_0000_0000_0000), dtype=np.uint64)


def _round_bfloat16(x: np.ndarray) -> np.ndarray:
    """bfloat16 RNE of a float64 array by one rounding of its bit pattern.

    Writes into a fresh C-contiguous output, checks that every non-zero
    input rounded to a normal bfloat16, and redoes the whole array with
    :func:`_quantize_bfloat16` otherwise: NaN, infinity, overflow to 2^128
    and beyond, the subnormal range (a result of exactly 2^-126 is correct
    either way), and the negative NaNs whose carry wraps past the sign bit.
    """
    out = np.empty(x.shape)
    bits = out.view(np.uint64)
    src = x.view(np.uint64)
    np.right_shift(src, _BF16_DROP, out=bits)
    np.bitwise_and(bits, _ONE, out=bits)
    np.add(bits, src, out=bits)
    np.add(bits, _BF16_HALF, out=bits)
    np.bitwise_and(bits, _BF16_KEEP, out=bits)
    scratch = np.empty(x.shape, dtype=np.uint64)
    np.left_shift(bits, _ONE, out=scratch)
    np.subtract(scratch, _BF16_LOW2, out=scratch)
    # Every non-zero input must land on a normal bfloat16 (zero maps to zero).
    if np.count_nonzero(scratch <= _BF16_SPAN2) != np.count_nonzero(x):
        np.copyto(out, _quantize_bfloat16(x))
    return out


def rounder(fmt: FloatFormat | str) -> Callable[[np.ndarray], np.ndarray]:
    """Return a callable rounding float64 arrays to ``fmt``, bit-identical
    to :func:`quantize`.

    The callable takes anything :func:`numpy.asarray` accepts and returns a
    new C-contiguous float64 array of the input's shape (a 0-d array for a
    scalar, never a Python float); the input is not modified.  ``fp64`` is a
    copy, ``fp32``/``fp16`` a native-dtype round trip, ``bf16`` one rounding
    of the float64 bit pattern (see the module docstring), and every other
    format the generic ulp-scaling path.
    """
    fmt = get_format(fmt)
    if fmt == FLOAT64:
        return lambda x: np.array(x, dtype=np.float64, order="C")
    if fmt == BFLOAT16:
        return lambda x: _round_bfloat16(np.asarray(x, dtype=np.float64))
    if fmt == FLOAT32 or fmt == FLOAT16:
        dtype = np.dtype(np.float32 if fmt == FLOAT32 else np.float16)
        return lambda x: _quantize_via_numpy(np.asarray(x, dtype=np.float64, order="C"), dtype)
    return lambda x: _quantize_generic(np.asarray(x, dtype=np.float64, order="C"), fmt)


@dataclass(frozen=True)
class Carrier:
    """The native dtype a format's datapath runs in, with its two roundings.

    Attributes
    ----------
    dtype:
        ``float32`` or ``float64``.
    enter:
        Rounds a float64 array into the format and returns it in ``dtype``.
    round:
        Rounds the result of one native ``+``, ``-`` or ``*`` on operands
        already in the format, byte for byte as :func:`quantize` rounds the
        float64 result of the same operation.  It may round in place and
        return its argument, so pass it a fresh array.

    Neither sets NumPy's float-error state: a caller that saturates to
    infinity on purpose runs them under ``np.errstate(over="ignore")``.
    """

    dtype: np.dtype
    enter: Callable[[np.ndarray], np.ndarray]
    round: Callable[[np.ndarray], np.ndarray]


_F32_SIGNIFICAND_BITS = 24
_F32_MAX_EXPONENT = 127
_F32_MIN_SUBNORMAL_EXPONENT = -149


def _fits_float32(fmt: FloatFormat) -> bool:
    """Whether float32 arithmetic on ``fmt``'s values double-rounds innocuously.

    Besides ``24 >= 2p + 2`` and the exponent range, a product of two of the
    format's values that is at least half its least subnormal must land on
    float32's grid, where float32 itself is subnormal and keeps fewer than 24
    bits.  Such a product is a multiple of ``2^(s - 2p)``, with ``s`` the
    exponent of the least subnormal; bf16 meets this with equality.
    """
    p = fmt.mantissa_bits + 1
    least = fmt.min_normal_exponent - fmt.mantissa_bits
    return (
        fmt.supports_subnormals
        and 2 * p + 2 <= _F32_SIGNIFICAND_BITS
        and fmt.max_normal_exponent <= _F32_MAX_EXPONENT
        and least - 2 * p >= _F32_MIN_SUBNORMAL_EXPONENT
    )


_BF16_LOW = np.array(16, dtype=np.uint32)
_BF16_LSB = np.array(1, dtype=np.uint32)
_BF16_HALF32 = np.array(0x7FFF, dtype=np.uint32)
_BF16_KEEP32 = np.array(0xFFFF0000, dtype=np.uint32)


def _round_bfloat16_f32(c: np.ndarray) -> np.ndarray:
    """bfloat16 RNE of a float32 array, in place, on its ``uint32`` view.

    ``c`` holds the float32 result of one operation on bfloat16 values,
    which is that operation's exact result rounded to 24 bits, so one RNE
    to 8 bits gives the bfloat16 rounding of the exact result.  A NaN
    becomes the positive quiet NaN, as :func:`quantize` makes it.
    """
    bits = c.view(np.uint32)
    nan = np.isnan(c)
    carry = np.right_shift(bits, _BF16_LOW)
    np.bitwise_and(carry, _BF16_LSB, out=carry)
    np.add(carry, _BF16_HALF32, out=carry)
    np.add(bits, carry, out=bits)
    np.bitwise_and(bits, _BF16_KEEP32, out=bits)
    if nan.any():
        c[nan] = np.nan
    return c


def _identity(c: np.ndarray) -> np.ndarray:
    return c


@functools.lru_cache(maxsize=None)
def _carrier(fmt: FloatFormat) -> Carrier:
    f32 = np.dtype(np.float32)
    if fmt == FLOAT64:
        return Carrier(np.dtype(np.float64), np.asarray, _identity)
    if fmt == FLOAT32:
        return Carrier(f32, lambda x: x.astype(f32), _identity)
    rnd = rounder(fmt)
    if not _fits_float32(fmt):
        return Carrier(np.dtype(np.float64), rnd, rnd)
    enter = lambda x: rnd(x).astype(f32)  # noqa: E731 - bound once per format
    if fmt == BFLOAT16:
        return Carrier(f32, enter, _round_bfloat16_f32)
    return Carrier(f32, enter, lambda c: rnd(c.astype(np.float64)).astype(f32))


def carrier(fmt: FloatFormat | str) -> Carrier:
    """The :class:`Carrier` of ``fmt``, bound once per format.

    float32 for fp32 and for every format that :func:`_fits_float32`
    (bf16, fp16, fp8); float64, with the format's :func:`rounder`, for fp64
    and any other format.
    """
    return _carrier(get_format(fmt))


def quantization_step(values: np.ndarray | float, fmt: FloatFormat | str) -> np.ndarray:
    """Return the ulp (unit in the last place) of each value in ``fmt``.

    Useful for precision analyses: the worst-case rounding error of a single
    quantization is half an ulp.  Zero reports the format's minimum positive
    step — the distance to the nearest non-zero representable value (the
    subnormal spacing, or the smallest normal itself when the format
    flushes subnormals) — not the ulp of 1.0.
    """
    fmt = get_format(fmt)
    x = np.atleast_1d(np.asarray(values, dtype=np.float64))
    mag = np.abs(x)
    _, exp = np.frexp(np.where(mag > 0, mag, 1.0))
    unbiased = np.maximum(exp - 1, fmt.min_normal_exponent)
    ulp = np.exp2(unbiased.astype(np.float64) - fmt.mantissa_bits)
    ulp = np.where(mag > 0, ulp, fmt.min_positive_subnormal)
    if np.ndim(values) == 0:
        return ulp.reshape(())
    return ulp.reshape(np.shape(values))


def representable(values: np.ndarray | float, fmt: FloatFormat | str) -> np.ndarray:
    """Return a boolean mask of values exactly representable in ``fmt``."""
    fmt = get_format(fmt)
    x = np.asarray(values, dtype=np.float64)
    q = np.asarray(quantize(x, fmt))
    same = (q == x) | (np.isnan(q) & np.isnan(x))
    if np.ndim(values) == 0:
        return same.reshape(())
    return same
