"""The carrier's native arithmetic, pinned byte for byte against ``quantize``.

For operands already in a format, ``+``, ``-`` and ``*`` in the format's
carrier dtype followed by the carrier's rounding must give the bytes of the
float64 operation rounded by :func:`~repro.fpformats.quantize.quantize`.
8-bit formats are checked on every pair of bit patterns; bf16 and fp16 on
every bit pattern against a set of partners holding every power of two,
subnormals, signed zeros, infinities, NaNs, the values next to overflow and
seeded random patterns (sums and products of these hit ties and overflow);
fp32 on seeded random patterns plus the same classes.
"""

import numpy as np
import pytest

from repro.fpformats.bitops import decode_bits
from repro.fpformats.quantize import carrier, quantize
from repro.fpformats.spec import FLOAT64, FloatFormat, get_format

OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}
# Partners per block: keeps each float64 temporary near 8 MB.
BLOCK = 16


def all_patterns(fmt: str) -> np.ndarray:
    """Every bit pattern of a 16-bit format as float64, NaN payloads kept
    (a signalling NaN arrives quiet)."""
    if fmt == "fp16":
        narrow = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
    else:
        narrow = (np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)).view(np.float32)
    with np.errstate(invalid="ignore"):
        return narrow.astype(np.float64)


def partners(fmt: str, values: np.ndarray, seed: int) -> np.ndarray:
    """Powers of two at every exponent, edge classes and seeded values."""
    spec = get_format(fmt)
    powers = np.exp2(np.arange(spec.min_normal_exponent - spec.mantissa_bits,
                               spec.max_normal_exponent + 1, dtype=np.float64))
    top = spec.max_finite
    edges = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        spec.min_positive_subnormal, -3.0 * spec.min_positive_subnormal,
        spec.min_positive_normal - spec.min_positive_subnormal, spec.min_positive_normal,
        top, -top, top / 2.0, top - float(quantize(top / 2.0, fmt)),
        1.0 + spec.machine_epsilon, 1.5, -(2.0 - spec.machine_epsilon),
    ]
    rng = np.random.default_rng(seed)
    chosen = values[rng.integers(0, values.size, size=64)]
    out = np.concatenate([powers, edges, chosen])
    assert np.array_equal(np.asarray(quantize(out, fmt)), out, equal_nan=True)
    return out


def assert_carrier_exact(fmt: str, a: np.ndarray, b: np.ndarray) -> None:
    cr = carrier(fmt)
    # Float errors (overflow, inf - inf, a signalling NaN in a cast) are the
    # operations' results here, on both sides.
    with np.errstate(all="ignore"):
        a_c = a.astype(cr.dtype)[:, None]
    for start in range(0, b.size, BLOCK):
        part = b[start : start + BLOCK]
        for name, op in OPS.items():
            with np.errstate(all="ignore"):
                got = cr.round(op(a_c, part.astype(cr.dtype)[None, :])).astype(np.float64)
                want = np.asarray(quantize(op(a[:, None], part[None, :]), fmt))
            bad = got.view(np.uint64) != want.view(np.uint64)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise AssertionError(
                    f"{fmt} {name}({a[i]!r}, {part[j]!r}): carrier {got[i, j]!r} "
                    f"!= quantize {want[i, j]!r} ({bad.sum()} pairs differ)"
                )


@pytest.mark.parametrize("fmt", ["fp8_e4m3", "fp8_e5m2"])
def test_every_pair_of_8_bit_patterns(fmt):
    values = decode_bits(np.arange(256), fmt)
    assert_carrier_exact(fmt, values, values)


@pytest.mark.parametrize("fmt", ["bf16", "fp16"])
def test_every_16_bit_pattern_against_partners(fmt):
    values = all_patterns(fmt)
    assert_carrier_exact(fmt, values, partners(fmt, values, seed=16))


def test_fp32_random_patterns_and_edge_classes():
    rng = np.random.default_rng(32)
    random = rng.integers(0, 1 << 32, size=1 << 14, dtype=np.uint64).astype(np.uint32)
    with np.errstate(invalid="ignore"):
        values = random.view(np.float32).astype(np.float64)
    edges = partners("fp32", values, seed=33)
    assert_carrier_exact("fp32", np.concatenate([values, edges]), edges)


@pytest.mark.parametrize("fmt", ["fp32", "bf16", "fp16", "fp8_e4m3", "fp8_e5m2"])
def test_enter_rounds_like_quantize(fmt):
    rng = np.random.default_rng(7)
    spec = get_format(fmt)
    x = np.concatenate([
        rng.standard_normal(4096) * 10.0 ** rng.uniform(-40, 40, size=4096),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 2.0 * spec.max_finite, spec.min_positive_subnormal / 3],
    ])
    with np.errstate(all="ignore"):
        got = carrier(fmt).enter(x).astype(np.float64)
    want = np.asarray(quantize(x, fmt))
    assert got.tobytes() == want.tobytes()


def test_carrier_dtype_follows_the_format():
    for name in ("fp32", "bf16", "fp16", "fp8_e4m3", "fp8_e5m2"):
        assert carrier(name).dtype == np.float32
    assert carrier(FLOAT64).dtype == np.float64
    # An 11-bit significand with bf16's exponent range: a product of two
    # subnormals would land on float32's subnormal grid with bits to spare
    # below it, so the format keeps the float64 carrier.
    assert carrier(FloatFormat("e8m10", exponent_bits=8, mantissa_bits=10)).dtype == np.float64
    # 12 bits: 24 < 2 * 12 + 2.
    assert carrier(FloatFormat("e5m11", exponent_bits=5, mantissa_bits=11)).dtype == np.float64
