"""Tests for the top-level macro simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_layernorm
from repro.core.layernorm import IterL2Norm, IterL2NormConfig
from repro.macro.latency import LatencyModel
from repro.macro.simulator import IterL2NormMacro, MacroConfig


class TestMacroConfig:
    def test_defaults(self):
        config = MacroConfig()
        assert config.max_vector_length == 1024
        assert config.chunk_elems == 64
        assert config.num_steps == 5

    def test_validation(self):
        with pytest.raises(KeyError):
            MacroConfig(fmt="fp12")
        with pytest.raises(ValueError):
            MacroConfig(num_steps=-1)
        with pytest.raises(ValueError):
            MacroConfig(num_banks=0)


class TestFunctionalEquivalence:
    def test_matches_iterl2norm_module_bitexactly(self, rng, paper_format):
        """The macro and the pure-algorithm module produce identical outputs."""
        d = 384
        x = rng.uniform(-1, 1, size=d)
        macro = IterL2NormMacro(MacroConfig(fmt=paper_format, num_steps=5))
        module = IterL2Norm(d, IterL2NormConfig(num_steps=5, fmt=paper_format))
        np.testing.assert_array_equal(macro.normalize(x).output, module(x))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [64, 128, 256, 1024])
    @pytest.mark.parametrize(
        "fmt, sigma", [("fp32", 1e19), ("fp16", 100.0), ("bf16", 1e19)]
    )
    def test_overflowed_norm_matches_module_without_warning(self, fmt, sigma, d):
        """Every input fits the format but its squared norm rounds to inf.

        The iteration then runs into inf - inf; both paths return the
        same all-NaN row, and neither raises a NumPy RuntimeWarning.
        """
        x = np.random.default_rng(d).normal(0.0, sigma, size=d)
        macro = IterL2NormMacro(MacroConfig(fmt=fmt, num_steps=5)).normalize(x)
        module = IterL2Norm(d, IterL2NormConfig(num_steps=5, fmt=fmt))(x)
        assert np.isnan(module).all()
        assert macro.output.tobytes() == module.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_row_holding_both_infinities_matches_module_without_warning(self):
        """Values beyond the format's range round to +inf and -inf; the adder
        tree sums them to NaN, and both paths return the same all-NaN row
        without a NumPy RuntimeWarning."""
        d = 256
        x = np.random.default_rng(d).normal(0.0, 4e4, size=d)
        assert x.max() > 65520.0 and x.min() < -65520.0
        macro = IterL2NormMacro(MacroConfig(fmt="fp16", num_steps=5)).normalize(x)
        module = IterL2Norm(d, IterL2NormConfig(num_steps=5, fmt="fp16"))(x)
        assert np.isnan(module).all()
        assert macro.output.tobytes() == module.tobytes()

    @pytest.mark.parametrize("d", [64, 128, 256, 512, 768, 1024])
    @pytest.mark.parametrize("fmt", ["fp32", "fp16", "bf16"])
    def test_matches_module_bitexactly_across_widths(self, fmt, d):
        """The paper's range of d, on rows shaped like the norm-kernel
        benchmark's: a per-row offset, a scale across four decades, and
        gamma/beta."""
        rng = np.random.default_rng(d)
        gamma, beta = 1.0 + 0.1 * rng.standard_normal(d), 0.1 * rng.standard_normal(d)
        scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(3, 1))
        x = (rng.standard_normal((3, d)) + rng.standard_normal((3, 1))) * scale
        module = IterL2Norm(d, IterL2NormConfig(num_steps=5, fmt=fmt), gamma=gamma, beta=beta)
        out = module(x)
        macro = IterL2NormMacro(MacroConfig(fmt=fmt, num_steps=5))
        for row, expected in zip(x, out):
            assert macro.normalize(row, gamma, beta).output.tobytes() == expected.tobytes()

    def test_with_affine_parameters(self, rng):
        d = 256
        x = rng.uniform(-1, 1, size=d)
        gamma, beta = rng.uniform(0.5, 1.5, d), rng.normal(size=d)
        macro = IterL2NormMacro(MacroConfig(fmt="fp32"))
        result = macro.normalize(x, gamma, beta)
        expected = exact_layernorm(x, gamma, beta)
        assert np.abs(result.output - expected).mean() < 5e-3

    def test_error_band_against_exact(self, rng, paper_format):
        d = 512
        x = rng.uniform(-1, 1, size=d)
        macro = IterL2NormMacro(MacroConfig(fmt=paper_format))
        err = np.abs(macro.normalize(x).output - exact_layernorm(x))
        assert err.mean() < 2e-2

    def test_intermediate_values_reported(self, rng):
        d = 128
        x = rng.uniform(-1, 1, size=d)
        macro = IterL2NormMacro(MacroConfig(fmt="fp64", num_steps=25))
        result = macro.normalize(x)
        assert result.mean == pytest.approx(x.mean(), rel=1e-10)
        assert result.norm_squared == pytest.approx(float((x - x.mean()) @ (x - x.mean())), rel=1e-10)
        assert result.scale == pytest.approx(np.sqrt(d) / np.sqrt(result.norm_squared), rel=1e-8)


class TestLatencyBehaviour:
    def test_latency_matches_closed_form_model(self, rng):
        model = LatencyModel()
        for d in (64, 100, 384, 1000, 1024):
            macro = IterL2NormMacro(MacroConfig(fmt="fp32"))
            result = macro.normalize(rng.uniform(-1, 1, size=d))
            assert result.total_cycles == model.total_cycles(d, 5)

    def test_latency_independent_of_format(self, rng):
        """Fig. 5: 'the latency does not rely on the data format'."""
        x = rng.uniform(-1, 1, size=320)
        cycles = {
            fmt: IterL2NormMacro(MacroConfig(fmt=fmt)).normalize(x).total_cycles
            for fmt in ("fp32", "fp16", "bf16")
        }
        assert len(set(cycles.values())) == 1

    def test_latency_in_paper_range(self, rng):
        """116-227 cycles for 64 <= d <= 1024 (within a few cycles)."""
        low = IterL2NormMacro(MacroConfig()).normalize(rng.uniform(-1, 1, 64)).total_cycles
        high = IterL2NormMacro(MacroConfig()).normalize(rng.uniform(-1, 1, 1024)).total_cycles
        assert abs(low - 116) <= 10
        assert abs(high - 227) <= 10

    def test_latency_monotone_in_length(self, rng):
        cycles = [
            IterL2NormMacro(MacroConfig()).normalize(rng.uniform(-1, 1, d)).total_cycles
            for d in (64, 128, 256, 512, 1024)
        ]
        assert cycles == sorted(cycles)

    def test_latency_scales_with_iteration_count(self, rng):
        x = rng.uniform(-1, 1, 128)
        c3 = IterL2NormMacro(MacroConfig(num_steps=3)).normalize(x).total_cycles
        c10 = IterL2NormMacro(MacroConfig(num_steps=10)).normalize(x).total_cycles
        assert c10 - c3 == 7 * 12  # CYCLES_PER_STEP per extra step

    def test_phase_breakdown_sums_to_total(self, rng):
        result = IterL2NormMacro(MacroConfig()).normalize(rng.uniform(-1, 1, 384))
        assert sum(result.phase_cycles.values()) == result.total_cycles
        assert set(result.phase_cycles) == {
            "mean",
            "shift",
            "norm_squared",
            "iteration",
            "output",
            "control",
        }


class TestErrorHandling:
    def test_run_without_load_raises(self):
        with pytest.raises(RuntimeError):
            IterL2NormMacro().run()

    def test_oversized_vector_rejected(self, rng):
        with pytest.raises(ValueError):
            IterL2NormMacro().load(rng.uniform(size=1025))

    def test_empty_and_matrix_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            IterL2NormMacro().load(np.array([]))
        with pytest.raises(ValueError):
            IterL2NormMacro().load(rng.uniform(size=(2, 8)))

    def test_constant_vector(self):
        result = IterL2NormMacro(MacroConfig(fmt="fp32")).normalize(np.full(64, 3.0))
        np.testing.assert_array_equal(result.output, np.zeros(64))


# -- property-based tests -----------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=256),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_macro_equals_module_for_any_length(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=d)
    macro_out = IterL2NormMacro(MacroConfig(fmt="fp32")).normalize(x).output
    module_out = IterL2Norm(d, IterL2NormConfig(num_steps=5, fmt="fp32"))(x)
    np.testing.assert_array_equal(macro_out, module_out)
