"""Tests for the IterL2Norm-based layer normalization (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_layernorm
from repro.core.layernorm import IterL2Norm, IterL2NormConfig, iterl2norm_layernorm
from repro.fpformats.spec import FORMATS

FORMAT_NAMES = sorted({fmt.name for fmt in FORMATS.values()})


class TestConfig:
    def test_defaults(self):
        config = IterL2NormConfig()
        assert config.num_steps == 5
        assert config.fmt == "fp64"
        assert config.elementwise_affine is True

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            IterL2NormConfig(num_steps=-1)

    def test_rejects_unknown_format(self):
        with pytest.raises(KeyError):
            IterL2NormConfig(fmt="fp12")


class TestIterL2NormModule:
    def test_matches_exact_layernorm_in_fp64(self, uniform_batch):
        layer = IterL2Norm(128, IterL2NormConfig(num_steps=30, fmt="fp64"))
        np.testing.assert_allclose(
            layer(uniform_batch), exact_layernorm(uniform_batch), atol=1e-8
        )

    def test_paper_error_band_fp32(self, rng):
        layer = IterL2Norm(384, IterL2NormConfig(num_steps=5, fmt="fp32"))
        x = rng.uniform(-1, 1, size=(100, 384))
        err = np.abs(layer(x) - exact_layernorm(x))
        assert err.mean() < 5e-3
        assert err.max() < 5e-2

    def test_paper_error_band_bf16(self, rng):
        layer = IterL2Norm(384, IterL2NormConfig(num_steps=5, fmt="bf16"))
        x = rng.uniform(-1, 1, size=(100, 384))
        err = np.abs(layer(x) - exact_layernorm(x))
        assert err.mean() < 2e-2

    def test_output_statistics(self, rng):
        """Normalized rows have ~zero mean and ~unit standard deviation."""
        layer = IterL2Norm(256, IterL2NormConfig(num_steps=20))
        x = rng.normal(3.0, 5.0, size=(32, 256))
        z = layer(x)
        np.testing.assert_allclose(z.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(z.std(axis=-1), 1.0, rtol=1e-4)

    def test_gamma_beta_applied(self, rng):
        gamma = rng.uniform(0.5, 2.0, size=64)
        beta = rng.normal(size=64)
        layer = IterL2Norm(64, IterL2NormConfig(num_steps=20), gamma=gamma, beta=beta)
        x = rng.normal(size=(8, 64))
        expected = exact_layernorm(x, gamma, beta)
        np.testing.assert_allclose(layer(x), expected, atol=1e-7)

    def test_affine_disabled(self, rng):
        config = IterL2NormConfig(num_steps=20, elementwise_affine=False)
        layer = IterL2Norm(32, config, gamma=np.full(32, 7.0))
        x = rng.normal(size=(4, 32))
        np.testing.assert_allclose(layer(x), exact_layernorm(x), atol=1e-7)

    def test_constant_row_outputs_beta(self):
        beta = np.linspace(-1, 1, 16)
        layer = IterL2Norm(16, IterL2NormConfig(num_steps=5), beta=beta)
        z = layer(np.full((3, 16), 2.5))
        np.testing.assert_allclose(z, np.broadcast_to(beta, (3, 16)), atol=1e-12)

    def test_preserves_leading_shape(self, rng):
        layer = IterL2Norm(32, IterL2NormConfig(num_steps=3))
        x = rng.normal(size=(2, 5, 7, 32))
        assert layer(x).shape == (2, 5, 7, 32)

    def test_single_row_input(self, rng):
        layer = IterL2Norm(48, IterL2NormConfig(num_steps=5, fmt="fp32"))
        x = rng.uniform(-1, 1, size=48)
        assert layer(x).shape == (48,)

    def test_more_steps_reduce_error(self, rng):
        x = rng.uniform(-1, 1, size=(50, 384))
        exact = exact_layernorm(x)
        errors = []
        for steps in (1, 3, 5, 10):
            layer = IterL2Norm(384, IterL2NormConfig(num_steps=steps, fmt="fp64"))
            errors.append(np.abs(layer(x) - exact).mean())
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-5

    @pytest.mark.parametrize("fmt", FORMAT_NAMES)
    @pytest.mark.parametrize("shape", [(0, 8), (2, 0, 8), (0, 0, 8)])
    def test_empty_batch_gives_empty_output(self, fmt, shape):
        layer = IterL2Norm(8, IterL2NormConfig(fmt=fmt))
        out = layer.forward(np.zeros(shape))
        assert out.shape == shape and out.dtype == np.float64

    def test_wrong_last_dim_raises(self, rng):
        layer = IterL2Norm(16)
        with pytest.raises(ValueError):
            layer(rng.normal(size=(4, 17)))

    def test_wrong_param_shape_raises(self):
        with pytest.raises(ValueError):
            IterL2Norm(8, gamma=np.ones(9))
        with pytest.raises(ValueError):
            IterL2Norm(8, beta=np.ones((8, 1)))
        with pytest.raises(ValueError):
            IterL2Norm(0)

    def test_params_quantized_to_format(self):
        layer = IterL2Norm(4, IterL2NormConfig(fmt="bf16"), gamma=np.full(4, 1.0 + 2**-12))
        np.testing.assert_array_equal(layer.gamma, np.ones(4))


class TestFunctionalForm:
    def test_matches_module(self, rng):
        x = rng.uniform(-1, 1, size=(6, 96))
        module = IterL2Norm(96, IterL2NormConfig(num_steps=5, fmt="fp32"))
        functional = iterl2norm_layernorm(x, num_steps=5, fmt="fp32")
        np.testing.assert_array_equal(functional, module(x))

    def test_with_affine_params(self, rng):
        x = rng.normal(size=(3, 32))
        gamma, beta = rng.uniform(0.5, 1.5, 32), rng.normal(size=32)
        out = iterl2norm_layernorm(x, gamma=gamma, beta=beta, num_steps=20)
        np.testing.assert_allclose(out, exact_layernorm(x, gamma, beta), atol=1e-7)


# -- property-based tests -----------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_layernorm_output_mean_is_zero(d, batch, seed):
    """Invariant: without beta, every output row has (near-)zero mean."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, d)) * rng.uniform(0.1, 10)
    layer = IterL2Norm(d, IterL2NormConfig(num_steps=5, fmt="fp32"))
    z = layer(x)
    assert np.all(np.abs(z.mean(axis=-1)) < 1e-2)


@given(
    st.integers(min_value=4, max_value=48),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_layernorm_is_shift_invariant(d, seed):
    """Layer norm is invariant to adding a constant to every element."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, d))
    layer = IterL2Norm(d, IterL2NormConfig(num_steps=8, fmt="fp64"))
    np.testing.assert_allclose(layer(x), layer(x + 13.0), atol=1e-5)


@given(
    st.integers(min_value=4, max_value=48),
    st.floats(min_value=0.1, max_value=50.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_layernorm_is_scale_invariant(d, scale, seed):
    """Layer norm (without affine) is invariant to positive rescaling."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, d))
    layer = IterL2Norm(d, IterL2NormConfig(num_steps=10, fmt="fp64"))
    np.testing.assert_allclose(layer(x), layer(scale * x), atol=1e-4)
