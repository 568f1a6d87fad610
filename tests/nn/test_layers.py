"""Tests for the trainable layers, including finite-difference gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module, Parameter


def check_input_gradient(layer, x, atol=1e-5):
    """Finite-difference check of d(sum(output))/d(input)."""
    grad_analytic = None

    def forward_sum(inp):
        return float(np.sum(layer.forward(inp)))

    base = layer.forward(x)
    grad_analytic = layer.backward(np.ones_like(base))

    eps = 1e-6
    grad_numeric = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad_numeric.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        plus = forward_sum(x)
        flat_x[i] = original - eps
        minus = forward_sum(x)
        flat_x[i] = original
        flat_g[i] = (plus - minus) / (2 * eps)
    np.testing.assert_allclose(grad_analytic, grad_numeric, atol=atol)


def check_param_gradient(layer, x, param, atol=1e-5):
    """Finite-difference check of d(sum(output))/d(param)."""
    layer.zero_grad()
    out = layer.forward(x)
    layer.backward(np.ones_like(out))
    analytic = param.grad.copy()

    eps = 1e-6
    numeric = np.zeros_like(param.data)
    flat_p = param.data.reshape(-1)
    flat_n = numeric.reshape(-1)
    for i in range(flat_p.size):
        original = flat_p[i]
        flat_p[i] = original + eps
        plus = float(np.sum(layer.forward(x)))
        flat_p[i] = original - eps
        minus = float(np.sum(layer.forward(x)))
        flat_p[i] = original
        flat_n[i] = (plus - minus) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        out = layer(x)
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out, x @ layer.weight.data + layer.bias.data)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_input_gradient(self, rng):
        layer = Linear(6, 4, rng=rng)
        check_input_gradient(layer, rng.normal(size=(3, 6)))

    def test_weight_and_bias_gradients(self, rng):
        layer = Linear(5, 3, rng=rng)
        x = rng.normal(size=(4, 5))
        check_param_gradient(layer, x, layer.weight)
        check_param_gradient(layer, x, layer.bias)

    def test_batched_3d_input(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(rng.normal(size=(2, 3, 4)))
        assert out.shape == (2, 3, 2)
        layer.backward(np.ones((2, 3, 2)))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 3)
        layer = Linear(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer(rng.normal(size=(2, 5)))
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng=rng).backward(np.ones((1, 2)))


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        ids = np.array([[1, 2], [3, 1]])
        out = emb(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out[0, 0], emb.weight.data[1])

    def test_gradient_accumulates_repeated_ids(self, rng):
        emb = Embedding(5, 3, rng=rng)
        ids = np.array([[1, 1, 2]])
        emb(ids)
        emb.backward(np.ones((1, 3, 3)))
        np.testing.assert_allclose(emb.weight.grad[1], 2.0)
        np.testing.assert_allclose(emb.weight.grad[2], 1.0)
        np.testing.assert_allclose(emb.weight.grad[0], 0.0)

    def test_out_of_range(self, rng):
        emb = Embedding(4, 2, rng=rng)
        with pytest.raises(ValueError):
            emb(np.array([4]))
        with pytest.raises(ValueError):
            emb(np.array([-1]))


class TestLayerNorm:
    def test_output_statistics(self, rng):
        layer = LayerNorm(32)
        x = rng.normal(2.0, 3.0, size=(6, 32))
        z = layer(x)
        np.testing.assert_allclose(z.mean(-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(-1), 1.0, rtol=1e-4)

    def test_input_gradient(self, rng):
        layer = LayerNorm(8)
        check_input_gradient(layer, rng.normal(size=(3, 8)), atol=1e-5)

    def test_gamma_beta_gradients(self, rng):
        layer = LayerNorm(6)
        layer.gamma.data = rng.uniform(0.5, 1.5, 6)
        layer.beta.data = rng.normal(size=6)
        x = rng.normal(size=(4, 6))
        check_param_gradient(layer, x, layer.gamma)
        check_param_gradient(layer, x, layer.beta)

    def test_eval_normalizer_swap(self, rng):
        from repro.core.layernorm import IterL2Norm, IterL2NormConfig

        layer = LayerNorm(16)
        layer.gamma.data = rng.uniform(0.5, 1.5, 16)
        x = rng.normal(size=(4, 16))
        exact_out = layer(x)

        layer.eval_normalizer = IterL2Norm(
            16, IterL2NormConfig(num_steps=10, fmt="fp32"), gamma=layer.gamma.data
        )
        # Training mode still uses the exact path.
        layer.training = True
        np.testing.assert_array_equal(layer(x), exact_out)
        # Eval mode dispatches to the replacement.
        layer.training = False
        swapped = layer(x)
        assert not np.array_equal(swapped, exact_out)
        np.testing.assert_allclose(swapped, exact_out, atol=1e-3)

    @staticmethod
    def var_form(layer, x):
        """The exact LayerNorm as ``x.mean`` then ``x.var``."""
        mean = x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + layer.eps)
        x_hat = (x - mean) * inv_std
        return layer.gamma.data * x_hat + layer.beta.data, (x_hat, inv_std, x - mean)

    @staticmethod
    def seeded_inputs(d, count=60):
        rng = np.random.default_rng(d)
        for _ in range(count):
            rows, positions = int(rng.integers(1, 17)), int(rng.integers(1, 40))
            scale = 10.0 ** rng.uniform(-3, 3)
            offset = rng.normal(0.0, 10.0 * scale)
            yield rng.normal(offset, scale, size=(rows, positions, d))

    @pytest.mark.parametrize("d", [64, 100, 128, 256])
    def test_centred_once_is_byte_equal_to_var(self, d):
        """Centring once and squaring the centred rows reproduces the
        ``x.var`` formula byte for byte: in the module's output and its
        backward cache, and in the compiled executor's norm closure."""
        from repro.nn.executor import _norm_closure
        from repro.precision.ops import PASSTHROUGH_OPS

        layer = LayerNorm(d)
        rng = np.random.default_rng(d + 1)
        layer.gamma.data = rng.uniform(0.5, 1.5, d)
        layer.beta.data = rng.normal(size=d)
        layer.training = False
        closure = _norm_closure(layer, PASSTHROUGH_OPS)
        for x in self.seeded_inputs(d):
            expected, cache = self.var_form(layer, x)
            assert layer(x).tobytes() == expected.tobytes()
            for got, want in zip(layer._cache, cache):
                assert got.tobytes() == want.tobytes()
            assert closure(x).tobytes() == expected.tobytes()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            LayerNorm(0)
        with pytest.raises(ValueError):
            LayerNorm(8)(rng.normal(size=(2, 9)))
        with pytest.raises(RuntimeError):
            LayerNorm(4).backward(np.ones((1, 4)))


class TestDropout:
    def test_eval_mode_identity(self, rng):
        drop = Dropout(0.5, rng=rng)
        drop.training = False
        x = rng.normal(size=(4, 8))
        np.testing.assert_array_equal(drop(x), x)

    def test_zero_probability_identity(self, rng):
        drop = Dropout(0.0, rng=rng)
        x = rng.normal(size=(4, 8))
        np.testing.assert_array_equal(drop(x), x)

    def test_training_mode_scales_survivors(self, rng):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.training = True
        x = np.ones((100, 100))
        out = drop(x)
        kept = out != 0.0
        assert 0.4 < kept.mean() < 0.6
        np.testing.assert_allclose(out[kept], 2.0)

    def test_backward_uses_same_mask(self, rng):
        drop = Dropout(0.3, rng=np.random.default_rng(1))
        drop.training = True
        x = np.ones((10, 10))
        out = drop(x)
        grad = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, out)

    def test_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestModuleBase:
    def test_named_parameters_traversal(self, rng):
        class Wrapper(Module):
            def __init__(self):
                self.linear = Linear(2, 2, rng=rng)
                self.norms = [LayerNorm(2), LayerNorm(2)]
                self.scale = Parameter(np.ones(1))

        names = dict(Wrapper().named_parameters())
        assert "linear.weight" in names
        assert "norms.0.gamma" in names
        assert "norms.1.beta" in names
        assert "scale" in names

    def test_num_parameters_and_zero_grad(self, rng):
        layer = Linear(3, 4, rng=rng)
        assert layer.num_parameters() == 3 * 4 + 4
        layer.weight.grad += 1.0
        layer.zero_grad()
        assert np.all(layer.weight.grad == 0.0)

    def test_state_dict_roundtrip(self, rng):
        src = Linear(3, 3, rng=rng)
        dst = Linear(3, 3, rng=np.random.default_rng(99))
        dst.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(dst.weight.data, src.weight.data)

    def test_state_dict_mismatch(self, rng):
        layer = Linear(3, 3, rng=rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((3, 3))})

    def test_train_eval_propagates(self, rng):
        class Wrapper(Module):
            def __init__(self):
                self.drop = Dropout(0.5, rng=rng)

        wrapper = Wrapper()
        wrapper.eval()
        assert wrapper.drop.training is False
        wrapper.train()
        assert wrapper.drop.training is True
