"""Unit and property-based tests for format-rounded arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpformats.arithmetic import FormatArithmetic
from repro.fpformats.quantize import quantize
from repro.fpformats.spec import FORMATS

FORMAT_NAMES = sorted({fmt.name for fmt in FORMATS.values()})


class TestElementaryOps:
    def test_add_rounds_result(self):
        arith = FormatArithmetic("bf16")
        # 1 + 2^-10 rounds back to 1 in bf16 (7-bit mantissa).
        assert arith.add(1.0, 2.0**-10) == 1.0

    def test_mul_rounds_result(self):
        arith = FormatArithmetic("bf16")
        result = arith.mul(1.0 + 2.0**-7, 1.0 + 2.0**-7)
        assert result == quantize((1.0 + 2.0**-7) ** 2, "bf16")

    def test_sub_exact_when_representable(self):
        arith = FormatArithmetic("fp16")
        assert arith.sub(3.0, 1.5) == 1.5

    def test_fma_is_not_fused(self):
        arith = FormatArithmetic("bf16")
        a, b, c = 1.0 + 2.0**-7, 1.0 - 2.0**-7, -1.0
        fused = a * b + c  # exact in float64
        ours = arith.fma(a, b, c)
        # The rounded product is exactly 1.0 (the 2^-14 term is lost), so the
        # macro-style result is 0 while the fused result is -2^-14.
        assert ours == 0.0
        assert fused != 0.0

    def test_cast(self):
        arith = FormatArithmetic("fp16")
        assert arith.cast(1.0 + 2.0**-12) == 1.0

    def test_fp64_arithmetic_is_exact(self, rng):
        arith = FormatArithmetic("fp64")
        a, b = rng.normal(size=10), rng.normal(size=10)
        np.testing.assert_array_equal(arith.add(a, b), a + b)
        np.testing.assert_array_equal(arith.mul(a, b), a * b)

    @pytest.mark.parametrize("fan_in", [1, 3, 6])
    def test_invalid_fan_in(self, fan_in):
        # The adder tree is a balanced tree of 2-input adders.
        with pytest.raises(ValueError):
            FormatArithmetic("fp32", tree_fan_in=fan_in)


class TestTreeSum:
    def test_matches_exact_sum_in_fp64(self, rng):
        arith = FormatArithmetic("fp64")
        x = rng.normal(size=100)
        assert arith.tree_sum(x) == pytest.approx(x.sum(), rel=1e-12)

    def test_axis_reduction_matches_per_row(self, rng):
        arith = FormatArithmetic("bf16")
        x = rng.normal(size=(6, 50))
        batched = np.asarray(arith.tree_sum(x, axis=-1))
        rows = np.array([arith.tree_sum(x[i]) for i in range(6)])
        np.testing.assert_array_equal(batched, rows)

    def test_empty_sum_is_zero(self):
        arith = FormatArithmetic("fp32")
        assert arith.tree_sum(np.array([])) == 0.0

    @pytest.mark.parametrize("fmt", FORMAT_NAMES)
    @pytest.mark.parametrize(
        "shape, axis",
        [((0, 5), 1), ((0, 5), 0), ((3, 0), 1), ((3, 0), 0), ((2, 0, 4), 2), ((2, 0, 4), 1), ((0,), 0)],
    )
    def test_empty_axes_match_numpy_shapes(self, fmt, shape, axis):
        # Summing over an empty axis gives zeros; any other axis keeps its length.
        arith = FormatArithmetic(fmt)
        x = np.zeros(shape)
        result = arith.tree_sum(x, axis=axis)
        assert np.shape(result) == x.sum(axis=axis).shape
        assert np.all(np.asarray(result) == 0.0)
        assert arith.tree_sum_rows(np.zeros((0, 8))).shape == (0,)

    def test_single_element(self):
        arith = FormatArithmetic("bf16")
        assert arith.tree_sum(np.array([1.5])) == 1.5

    def test_padding_does_not_change_result(self, rng):
        arith = FormatArithmetic("fp32")
        x = rng.normal(size=13)  # not a multiple of the fan-in
        padded = np.concatenate([x, np.zeros(3)])
        assert arith.tree_sum(x) == arith.tree_sum(padded)

    def test_tree_sum_error_smaller_than_sequential_for_bf16(self, rng):
        # Pairwise/tree accumulation has O(log n) error growth versus O(n);
        # with 4096 positive terms in bf16 the difference is visible.
        arith = FormatArithmetic("bf16", tree_fan_in=2)
        x = rng.uniform(0.5, 1.0, size=4096)
        exact = x.sum()
        tree = arith.tree_sum(x)
        sequential = 0.0
        for value in x:
            sequential = float(quantize(sequential + float(quantize(value, "bf16")), "bf16"))
        assert abs(tree - exact) < abs(sequential - exact)

    def test_axis_zero(self, rng):
        arith = FormatArithmetic("fp32")
        x = rng.normal(size=(5, 3))
        result = np.asarray(arith.tree_sum(x, axis=0))
        assert result.shape == (3,)
        np.testing.assert_allclose(result, x.sum(axis=0), rtol=1e-6)


class TestDotAndMean:
    def test_dot_matches_exact_in_fp64(self, rng):
        arith = FormatArithmetic("fp64")
        a, b = rng.normal(size=64), rng.normal(size=64)
        assert arith.dot(a, b) == pytest.approx(float(a @ b), rel=1e-12)

    def test_sum_of_squares_non_negative(self, rng):
        arith = FormatArithmetic("bf16")
        x = rng.normal(size=128)
        assert arith.sum_of_squares(x) >= 0.0

    def test_mean_uses_reciprocal_multiply(self):
        arith = FormatArithmetic("bf16")
        x = np.ones(3)
        # 1/3 is not representable in bf16; the mean of ones is 3 * q(1/3).
        expected = float(quantize(3.0 * float(quantize(1.0 / 3.0, "bf16")), "bf16"))
        assert arith.mean(x) == expected

    def test_mean_of_constant_vector(self):
        arith = FormatArithmetic("fp32")
        assert arith.mean(np.full(64, 2.5)) == pytest.approx(2.5, rel=1e-6)


# -- property-based tests -----------------------------------------------------------

small_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(st.lists(small_floats, min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_tree_sum_error_bound(values):
    """The tree sum equals the exact sum within a conservative rounding bound."""
    arith = FormatArithmetic("fp16")
    x = np.asarray(values)
    exact = float(np.sum(np.asarray(quantize(x, "fp16"))))
    ours = arith.tree_sum(x)
    # Error of a tree sum of n terms is bounded by ~log_k(n)+1 roundings of
    # magnitude eps * sum(|x|).
    levels = int(np.ceil(np.log(max(len(values), 2)) / np.log(8))) + 2
    bound = levels * 2.0**-11 * float(np.sum(np.abs(x))) + 1e-6
    assert abs(ours - exact) <= bound


@given(st.lists(small_floats, min_size=1, max_size=64), st.floats(-10, 10, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_elementwise_ops_are_quantized(values, scalar):
    arith = FormatArithmetic("bf16")
    x = np.asarray(values)
    for result in (arith.add(x, scalar), arith.mul(x, scalar), arith.sub(x, scalar)):
        result = np.asarray(result)
        requantized = np.asarray(quantize(result, "bf16"))
        finite = np.isfinite(result)
        np.testing.assert_array_equal(result[finite], requantized[finite])
