"""Golden-value regression tests for ``fpformats.quantize``.

Every expectation here is a hand-computed bit pattern or boundary value
(not derived by calling the code under test), so any change to the
rounding behaviour — ties-to-even, subnormal handling, or the
saturation-vs-infinity overflow boundary — fails loudly.
"""

import numpy as np
import pytest

from repro.fpformats.quantize import quantize
from repro.fpformats.spec import BFLOAT16, FLOAT16, FLOAT32, FloatFormat


def fp16_bits(value: float) -> int:
    return int(np.float16(value).view(np.uint16))


def fp32_bits(value: float) -> int:
    return int(np.float32(value).view(np.uint32))


class TestFP16Golden:
    """binary16: 5 exponent bits, 10 mantissa bits, bias 15."""

    def test_one_third_bit_pattern(self):
        # 1/3 = 1.0101010101(01...)b * 2^-2; the 10-bit mantissa keeps
        # 0101010101 and the first dropped bit is 0 -> round down.
        # Sign 0, exponent 13 (01101), mantissa 0101010101 -> 0x3555.
        assert fp16_bits(quantize(1 / 3, "fp16")) == 0x3555

    def test_ties_to_even(self):
        # 1 + 2^-11 is exactly half an ulp (2^-10) above 1.0; the tie
        # resolves to the even mantissa (all zeros): 1.0 = 0x3C00.
        assert quantize(1.0 + 2.0**-11, "fp16") == 1.0
        assert fp16_bits(quantize(1.0 + 2.0**-11, "fp16")) == 0x3C00
        # 1 + 3*2^-11 ties between mantissas 1 and 2; even is 2 -> 1 + 2^-9.
        assert quantize(1.0 + 3.0 * 2.0**-11, "fp16") == 1.0 + 2.0**-9
        # Just above the halfway point rounds up to mantissa 1.
        assert quantize(1.0 + 2.0**-11 + 2.0**-24, "fp16") == 1.0 + 2.0**-10

    def test_subnormals(self):
        # Smallest positive subnormal is 2^-24 and is kept exactly.
        assert quantize(2.0**-24, "fp16") == 2.0**-24
        # Half of it ties between 0 and 2^-24; the even mantissa is 0.
        assert quantize(2.0**-25, "fp16") == 0.0
        # 1.5 * 2^-24 ties between mantissas 1 and 2; even is 2 -> 2^-23.
        assert quantize(1.5 * 2.0**-24, "fp16") == 2.0**-23

    def test_saturation_vs_inf_boundary(self):
        # max_finite = (2 - 2^-10) * 2^15 = 65504, top-binade ulp = 2^5.
        assert FLOAT16.max_finite == 65504.0
        # Below max + ulp/2 = 65520 rounds down to max_finite ...
        assert quantize(65519.999, "fp16") == 65504.0
        # ... and at the boundary the tie (even = 2^16, not representable)
        # overflows to infinity, as IEEE round-to-nearest does.
        assert np.isinf(quantize(65520.0, "fp16"))
        assert quantize(-65520.0, "fp16") == -np.inf


class TestFP32Golden:
    """binary32: 8 exponent bits, 23 mantissa bits, bias 127."""

    def test_one_third_bit_pattern(self):
        # 1/3 rounds up to mantissa 0x2AAAAB: bit pattern 0x3EAAAAAB.
        assert fp32_bits(quantize(1 / 3, "fp32")) == 0x3EAAAAAB

    def test_ties_to_even(self):
        assert quantize(1.0 + 2.0**-24, "fp32") == 1.0
        assert quantize(1.0 + 3.0 * 2.0**-24, "fp32") == 1.0 + 2.0**-22

    def test_saturation_vs_inf_boundary(self):
        max_finite = FLOAT32.max_finite  # (2 - 2^-23) * 2^127
        ulp = 2.0**104  # ulp of the top binade: 2^(127-23)
        assert quantize(max_finite + 0.499 * ulp, "fp32") == max_finite
        assert np.isinf(quantize(max_finite + 0.5 * ulp, "fp32"))


class TestBFloat16Golden:
    """bfloat16 (e8m7) exercises the generic ulp-scaling path."""

    def test_one_third_value(self):
        # Mantissa 0101010|1... rounds up: (1 + 43/128) * 2^-2 = 171/512.
        assert quantize(1 / 3, "bf16") == 171.0 / 512.0

    def test_subnormals(self):
        tiny = 2.0**-133  # smallest positive bf16 subnormal (2^(-126-7))
        assert BFLOAT16.min_positive_subnormal == tiny
        assert quantize(tiny, "bf16") == tiny
        assert quantize(0.25 * tiny, "bf16") == 0.0
        # Tie at 1.5 * tiny resolves to the even mantissa (2) -> 2^-132.
        assert quantize(1.5 * tiny, "bf16") == 2.0**-132

    def test_saturation_vs_inf_boundary(self):
        max_finite = BFLOAT16.max_finite  # (2 - 2^-7) * 2^127
        ulp = 2.0**120  # 2^(127-7)
        assert quantize(max_finite + 0.499 * ulp, "bf16") == max_finite
        assert np.isinf(quantize(max_finite + 0.5 * ulp, "bf16"))
        assert quantize(-(max_finite + 0.5 * ulp), "bf16") == -np.inf


class TestNoSubnormalFlush:
    """Formats without subnormals flush below-min-normal results to zero."""

    NOSUB = FloatFormat(
        "e4m3_nosub", exponent_bits=4, mantissa_bits=3, supports_subnormals=False
    )
    SUB = FloatFormat("e4m3_sub", exponent_bits=4, mantissa_bits=3)

    def test_min_normal_preserved(self):
        assert self.NOSUB.min_positive_normal == 2.0**-6
        assert quantize(2.0**-6, self.NOSUB) == 2.0**-6

    def test_below_min_normal_flushes_to_zero(self):
        assert quantize(0.9 * 2.0**-6, self.NOSUB) == 0.0
        assert quantize(0.01, self.NOSUB) == 0.0
        assert quantize(-0.01, self.NOSUB) == 0.0

    def test_float64_subnormal_input_flushes_to_zero(self):
        tiny = np.array([5e-324, -5e-324, 1e-310, 0.49 * 2.0**-6, 0.51 * 2.0**-6])
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(quantize(tiny, self.NOSUB), np.zeros(5))
            assert quantize(5e-324, self.NOSUB) == 0.0

    def test_same_value_survives_with_subnormals(self):
        # Sanity cross-check: with gradual underflow the value is kept as
        # the subnormal 7 * 2^-9.
        assert quantize(0.9 * 2.0**-6, self.SUB) == 7.0 * 2.0**-9

    @pytest.mark.parametrize("value", [1.0, 1.125, 0.5, 240.0])
    def test_normal_range_unaffected(self, value):
        assert quantize(value, self.NOSUB) == quantize(value, self.SUB)
