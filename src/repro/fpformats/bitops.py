"""Bit-level operations on emulated floating-point formats.

The IterL2Norm initializer (Eq. 6 of the paper) and update-rate rule (Eq. 10)
read the raw exponent field of ``m = ||y||^2`` and manipulate it with integer
adds and shifts.  The FISR baseline manipulates the whole bit pattern.  This
module provides the encode/decode primitives both of them need, for any
:class:`~repro.fpformats.spec.FloatFormat`.

All functions accept scalars or NumPy arrays and are fully vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.fpformats.spec import FloatFormat, get_format
from repro.fpformats.quantize import quantize


def encode_bits(values: np.ndarray | float, fmt: FloatFormat | str) -> np.ndarray:
    """Encode values into the integer bit pattern of ``fmt``.

    Values are first quantized (round-to-nearest-even) into the format, then
    packed as ``sign | exponent | mantissa`` into an unsigned 64-bit integer
    array.  Infinities and NaNs map to the format's reserved exponent field.
    """
    fmt = get_format(fmt)
    x = quantize(np.asarray(values, dtype=np.float64), fmt)
    x = np.atleast_1d(x)

    sign = (np.signbit(x)).astype(np.uint64)
    out = np.zeros(x.shape, dtype=np.uint64)

    finite = np.isfinite(x)
    nan = np.isnan(x)
    inf = np.isinf(x)

    mag = np.abs(x)
    # Decompose |x| = frac * 2**exp with frac in [0.5, 1).
    with np.errstate(divide="ignore", invalid="ignore"):
        frac, exp = np.frexp(np.where(finite & (mag > 0), mag, 1.0))
    # Convert to significand in [1, 2): significand = 2*frac, exponent = exp-1.
    significand = 2.0 * frac
    unbiased = exp - 1

    exp_field = unbiased + fmt.bias
    normal = finite & (mag > 0) & (exp_field >= 1)
    subnormal = finite & (mag > 0) & (exp_field < 1)

    mant_scale = float(1 << fmt.mantissa_bits)
    mant_normal = np.rint((significand - 1.0) * mant_scale).astype(np.uint64)
    # Rounding (significand - 1) can produce a carry into the exponent.
    carry = mant_normal >= (1 << fmt.mantissa_bits)
    mant_normal = np.where(carry, 0, mant_normal)
    exp_field = np.where(carry, exp_field + 1, exp_field)

    # Subnormals store mantissa = |x| / 2**(min_normal_exponent - mantissa_bits).
    sub_unit = fmt.min_positive_subnormal
    sub_ratio = np.divide(
        mag, sub_unit, out=np.zeros_like(mag), where=subnormal
    )
    mant_sub = np.rint(sub_ratio).astype(np.uint64)
    sub_carry = mant_sub >= (1 << fmt.mantissa_bits)

    exp_bits = np.zeros(x.shape, dtype=np.uint64)
    mant_bits = np.zeros(x.shape, dtype=np.uint64)

    exp_bits = np.where(normal, exp_field.astype(np.int64), exp_bits.astype(np.int64))
    mant_bits = np.where(normal, mant_normal, mant_bits)

    exp_bits = np.where(subnormal & sub_carry, 1, exp_bits)
    mant_bits = np.where(subnormal & sub_carry, 0, mant_bits)
    exp_bits = np.where(subnormal & ~sub_carry, 0, exp_bits)
    mant_bits = np.where(subnormal & ~sub_carry, mant_sub, mant_bits)

    exp_bits = np.where(inf, fmt.max_exponent_field, exp_bits)
    mant_bits = np.where(inf, 0, mant_bits)
    exp_bits = np.where(nan, fmt.max_exponent_field, exp_bits)
    mant_bits = np.where(nan, 1 << (fmt.mantissa_bits - 1), mant_bits)

    exp_bits = exp_bits.astype(np.uint64)
    mant_bits = mant_bits.astype(np.uint64)

    out = (
        (sign << np.uint64(fmt.exponent_bits + fmt.mantissa_bits))
        | (exp_bits << np.uint64(fmt.mantissa_bits))
        | mant_bits
    )
    if np.isscalar(values) or np.ndim(values) == 0:
        return out.reshape(())
    return out.reshape(np.shape(values))


def decode_bits(bits: np.ndarray | int, fmt: FloatFormat | str) -> np.ndarray:
    """Decode integer bit patterns of ``fmt`` back into float64 values."""
    fmt = get_format(fmt)
    b = np.atleast_1d(np.asarray(bits, dtype=np.uint64))

    mant_mask = np.uint64((1 << fmt.mantissa_bits) - 1)
    exp_mask = np.uint64(fmt.max_exponent_field)

    mant = (b & mant_mask).astype(np.float64)
    exp_field = ((b >> np.uint64(fmt.mantissa_bits)) & exp_mask).astype(np.int64)
    sign = ((b >> np.uint64(fmt.exponent_bits + fmt.mantissa_bits)) & np.uint64(1)).astype(
        np.float64
    )
    sign_mul = 1.0 - 2.0 * sign

    mant_scale = float(1 << fmt.mantissa_bits)

    normal = (exp_field >= 1) & (exp_field < fmt.max_exponent_field)
    subnormal = exp_field == 0
    special = exp_field == fmt.max_exponent_field

    value = np.zeros(b.shape, dtype=np.float64)
    value = np.where(
        normal,
        sign_mul * (1.0 + mant / mant_scale) * np.exp2(exp_field - fmt.bias),
        value,
    )
    value = np.where(
        subnormal,
        sign_mul * (mant / mant_scale) * np.exp2(fmt.min_normal_exponent),
        value,
    )
    value = np.where(special & (mant == 0), sign_mul * np.inf, value)
    value = np.where(special & (mant != 0), np.nan, value)

    if np.ndim(bits) == 0:
        return value.reshape(())
    return value.reshape(np.shape(bits))


def exponent_field(values: np.ndarray | float, fmt: FloatFormat | str) -> np.ndarray:
    """Return the raw (biased) exponent field ``E(x)`` of each value.

    This is the quantity the paper's initializer reads from ``m``: for a
    normal value, ``E(x) = floor(log2 |x|) + bias``.  Zeros and subnormals
    return a field of 0, matching the hardware register contents.
    """
    fmt = get_format(fmt)
    bits = np.atleast_1d(encode_bits(values, fmt))
    field = ((bits >> np.uint64(fmt.mantissa_bits)) & np.uint64(fmt.max_exponent_field)).astype(
        np.int64
    )
    if np.ndim(values) == 0:
        return field.reshape(())
    return field.reshape(np.shape(values))


def unbiased_exponent(values: np.ndarray | float, fmt: FloatFormat | str) -> np.ndarray:
    """Return the unbiased exponent ``E(x) - bias`` of each value."""
    fmt = get_format(fmt)
    return exponent_field(values, fmt) - fmt.bias


def stored_exponent(values: np.ndarray | float, fmt: FloatFormat | str) -> np.ndarray:
    """:func:`unbiased_exponent` of values already in ``fmt``, read with
    :func:`numpy.frexp` (normal: ``e - 1``; zero, subnormal: ``-bias``; inf,
    NaN: ``max_exponent_field - bias``) instead of encoding the bits."""
    fmt = get_format(fmt)
    x = np.asarray(values, dtype=np.float64)
    _, e = np.frexp(x)
    e = np.where(np.abs(x) < fmt.min_positive_normal, -fmt.bias, e - 1)
    return np.where(np.isfinite(x), e, fmt.max_exponent_field - fmt.bias)


def significand_value(values: np.ndarray | float, fmt: FloatFormat | str) -> np.ndarray:
    """Return the significand of each value, in ``[1, 2)`` for normals.

    Subnormals return their fractional significand in ``(0, 1)``; zero
    returns 0.
    """
    fmt = get_format(fmt)
    x = np.atleast_1d(quantize(np.asarray(values, dtype=np.float64), fmt))
    exp = unbiased_exponent(x, fmt)
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = np.abs(x) / np.exp2(exp.astype(np.float64))
    sig = np.where(x == 0, 0.0, sig)
    if np.ndim(values) == 0:
        return sig.reshape(())
    return sig.reshape(np.shape(values))
