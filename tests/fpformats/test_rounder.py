"""``rounder(fmt)`` is bit-identical to ``quantize(x, fmt)``.

The emulated normalizer rounds through :func:`rounder`, so every golden
digest of the serving stack rests on the two agreeing byte for byte.  The
bfloat16 rounder takes one rounding of the float64 bit pattern and falls
back to the reference path for a whole array when any element is NaN,
infinite, overflowing or in the subnormal range; these tests drive both
sides of that split, and the layout contract (0-d stays 0-d, output is a
fresh C-contiguous array, input untouched).
"""

import importlib

import numpy as np
import pytest

from repro.fpformats.quantize import quantize, rounder
from repro.fpformats.spec import BFLOAT16, FORMATS

FORMAT_NAMES = sorted({fmt.name for fmt in FORMATS.values()})
N_PATTERNS = 2_000_000
BF16_MIN_NORMAL = 2.0**-126
BF16_MAX = float(BFLOAT16.max_finite)
# Half a bfloat16 ulp above the largest finite value: the first value that
# rounds to 2^128, i.e. to infinity.
BF16_OVERFLOW = BF16_MAX + 2.0**119
# The package re-exports the function under the module's name.
quantize_module = importlib.import_module("repro.fpformats.quantize")


def assert_same_bytes(fmt, x):
    with np.errstate(all="ignore"):
        expected = np.asarray(quantize(x, fmt))
        got = rounder(fmt)(x)
    assert got.shape == expected.shape
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def no_fallback(monkeypatch):
    """Make the bfloat16 reference path fail, proving the fast path ran."""

    def fail(x):
        raise AssertionError("bfloat16 rounder fell back to the reference path")

    monkeypatch.setattr(quantize_module, "_quantize_bfloat16", fail)


def special_values() -> np.ndarray:
    f64_tiny = np.float64(5e-324)
    values = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        # Signalling and payload-carrying NaNs, including payloads that live
        # only below bit 45 (the bits the bfloat16 rounding clears).
        *from_bits([0x7FF0_0000_0000_0001, 0xFFF0_0000_0000_0001,
                    0x7FF8_0000_0000_0001, 0x7FF0_1000_0000_0000,
                    0x7FF7_FFFF_FFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF,
                    # Negative NaN whose rounding carry wraps past the sign.
                    0xFFFF_F000_0000_0000]),
        # float64 subnormals, the smallest normal and its neighbours.
        f64_tiny, -f64_tiny, 2.0**-1060, 2.0**-1029, 2.0**-1023, -(2.0**-1023),
        2.0**-1022, np.nextafter(2.0**-1022, 0.0),
        # bfloat16 subnormal range and the normal boundary.
        2.0**-133, 2.0**-134, 3 * 2.0**-135, 2.0**-127, -(2.0**-130),
        BF16_MIN_NORMAL, -BF16_MIN_NORMAL,
        np.nextafter(BF16_MIN_NORMAL, 0.0), np.nextafter(BF16_MIN_NORMAL, 1.0),
        BF16_MIN_NORMAL - 2.0**-134, BF16_MIN_NORMAL - 2.0**-135,
        np.nextafter(BF16_MIN_NORMAL - 2.0**-135, 0.0),
        # Around the largest finite value and the rounding to 2^128.
        BF16_MAX, -BF16_MAX, np.nextafter(BF16_MAX, np.inf),
        BF16_OVERFLOW, -BF16_OVERFLOW,
        np.nextafter(BF16_OVERFLOW, 0.0), np.nextafter(BF16_OVERFLOW, np.inf),
        np.nextafter(2.0**128, 0.0), 2.0**128, -(2.0**128), 2.0**200,
        np.finfo(np.float64).max, -np.finfo(np.float64).max,
        # fp32/fp16/fp8 boundaries.
        float(np.finfo(np.float32).max), 65504.0, 65520.0, 448.0, 57344.0,
        2.0**-149, 2.0**-24, 2.0**-25,
    ]
    return np.array(values, dtype=np.float64)


def tie_midpoints(rng, n: int) -> np.ndarray:
    """bfloat16 tie midpoints in the normal range, and one float64 ulp off."""
    sign = rng.choice([-1.0, 1.0], size=n)
    mantissa = rng.integers(0, 128, size=n)
    exponent = rng.integers(-126, 128, size=n)
    low = sign * np.ldexp(1.0 + mantissa / 128.0, exponent)
    mid = low + sign * np.ldexp(1.0, exponent - 8)
    return np.concatenate(
        [mid, np.nextafter(mid, 0.0), np.nextafter(mid, sign * np.inf)]
    )


def normal_range_patterns(rng, n: int) -> np.ndarray:
    """Random bit patterns whose exponent lies in bfloat16's normal range
    and below the overflow threshold, with a sprinkle of signed zeros."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    exponent = rng.integers(1023 - 126, 1023 + 128, size=n).astype(np.uint64)
    bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    x = bits.view(np.float64)
    x = np.where(np.abs(x) >= BF16_OVERFLOW, np.copysign(BF16_MAX, x), x)
    x[rng.integers(0, n, size=n // 100)] = 0.0
    x[rng.integers(0, n, size=n // 100)] = -0.0
    return x


@pytest.fixture(scope="module")
def patterns() -> np.ndarray:
    rng = np.random.default_rng(20240611)
    return from_bits(rng.integers(0, 2**64, size=N_PATTERNS, dtype=np.uint64))


@pytest.mark.parametrize("fmt", FORMAT_NAMES)
class TestBitIdentity:
    def test_random_bit_patterns(self, fmt, patterns):
        assert_same_bytes(fmt, patterns)

    def test_random_bit_patterns_in_small_arrays(self, fmt, patterns):
        for chunk in np.split(patterns[:65536], 4096):
            assert_same_bytes(fmt, chunk)

    def test_normal_range_patterns(self, fmt):
        rng = np.random.default_rng(7)
        assert_same_bytes(fmt, normal_range_patterns(rng, N_PATTERNS))

    def test_special_values_alone_and_together(self, fmt):
        values = special_values()
        assert_same_bytes(fmt, values)
        for value in values:
            assert_same_bytes(fmt, np.array([value]))
            assert_same_bytes(fmt, np.float64(value))

    def test_special_value_among_normal_values(self, fmt, rng):
        base = rng.standard_normal(15)
        for value in special_values():
            assert_same_bytes(fmt, np.append(base, value))

    @pytest.mark.parametrize(
        "exponents",
        [(0x7FF, 0x7FF), (0, 0), (1, 1023 - 127), (1023 + 128, 0x7FE)],
        ids=["nan-inf", "f64-subnormal", "bf16-subnormal-range", "overflow"],
    )
    def test_out_of_range_classes_one_element_per_call(self, fmt, exponents):
        rng = np.random.default_rng(exponents[0])
        bits = rng.integers(0, 2**64, size=400, dtype=np.uint64)
        exponent = rng.integers(exponents[0], exponents[1] + 1, size=400).astype(np.uint64)
        bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
        for value in from_bits(bits):
            assert_same_bytes(fmt, np.array([value]))

    def test_tie_midpoints(self, fmt, rng):
        assert_same_bytes(fmt, tie_midpoints(rng, 200_000))

    def test_accepts_registered_aliases(self, fmt):
        x = np.linspace(-3.0, 3.0, 97)
        expected = rounder(fmt)(x).tobytes()
        for alias, spec in FORMATS.items():
            if spec.name == fmt:
                assert rounder(alias)(x).tobytes() == expected
                assert rounder(spec)(x).tobytes() == expected


class TestBfloat16SingleRounding:
    """In-range inputs take the single bit-pattern rounding, not the fallback."""

    def test_normal_range_never_falls_back(self, monkeypatch):
        x = normal_range_patterns(np.random.default_rng(11), 200_000)
        expected = np.asarray(quantize(x, "bf16")).tobytes()
        no_fallback(monkeypatch)
        assert rounder("bf16")(x).tobytes() == expected

    def test_ties_never_fall_back(self, monkeypatch):
        x = tie_midpoints(np.random.default_rng(12), 50_000)
        expected = np.asarray(quantize(x, "bf16")).tobytes()
        no_fallback(monkeypatch)
        assert rounder("bf16")(x).tobytes() == expected

    def test_rounding_up_to_min_normal_stays_on_fast_path(self, monkeypatch):
        # Within half a subnormal ulp below 2^-126 both roundings give 2^-126.
        x = np.array([BF16_MIN_NORMAL - 2.0**-135, np.nextafter(BF16_MIN_NORMAL, 0.0)])
        no_fallback(monkeypatch)
        np.testing.assert_array_equal(rounder("bf16")(x), BF16_MIN_NORMAL)

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, 2.0**-130, BF16_OVERFLOW, 2.0**128, 5e-320]
    )
    def test_out_of_range_element_takes_the_reference_path(self, monkeypatch, value):
        calls = []
        reference = quantize_module._quantize_bfloat16

        def counting(x):
            calls.append(x.shape)
            return reference(x)

        monkeypatch.setattr(quantize_module, "_quantize_bfloat16", counting)
        rounder("bf16")(np.array([1.0, value, -2.5]))
        assert calls == [(3,)]


@pytest.mark.parametrize("fmt", FORMAT_NAMES)
class TestLayout:
    def test_zero_d_stays_zero_d(self, fmt):
        for value in (np.float64(0.1), np.array(-7.3), 1.0 / 3.0, np.array(np.nan)):
            out = rounder(fmt)(value)
            assert isinstance(out, np.ndarray)
            assert out.shape == ()
            assert_same_bytes(fmt, value)

    @pytest.mark.parametrize("poison", [None, np.nan, 2.0**-140])
    def test_fortran_and_strided_inputs_give_c_contiguous_output(self, fmt, rng, poison):
        base = rng.standard_normal((40, 30)) * 10.0 ** rng.uniform(-3, 3, (40, 30))
        if poison is not None:
            base[3, 4] = poison
        for x in (np.asfortranarray(base), base[::3, ::2], np.asfortranarray(base)[1:, ::4]):
            before = x.tobytes()
            out = rounder(fmt)(x)
            assert out.flags.c_contiguous
            assert out.shape == x.shape
            assert not np.shares_memory(out, x)
            assert x.tobytes() == before
            assert_same_bytes(fmt, x)

    def test_input_is_not_mutated(self, fmt, rng):
        x = rng.standard_normal(257) * 1e3
        x[::17] = np.nan
        before = x.tobytes()
        out = rounder(fmt)(x)
        assert x.tobytes() == before
        assert out is not x
