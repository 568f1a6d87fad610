"""The compiled norm closure drops the activation cast after IterL2Norm.

When the normalizer is an :class:`~repro.core.layernorm.IterL2Norm` in the
activation format, its output is already in that format and the cast
would return the same bytes.  These tests check that claim on rows the
random activations of the parity tests never draw — zeros, constants,
subnormal-scale and overflowing rows, infinities and NaNs — and that the
closure returns the normalizer's own (fresh) output.
"""

import numpy as np
import pytest

from repro.core.layernorm import IterL2Norm
from repro.fpformats.spec import get_format
from repro.nn.config import get_config
from repro.nn.executor import _Plan
from repro.nn.model import OPTLanguageModel

POLICIES = ("fp32", "fp16", "bf16", "bf16-fp8kv")


def special_rows(dim: int, fmt: str) -> np.ndarray:
    spec = get_format(fmt)
    rng = np.random.default_rng(6)
    rows = rng.normal(scale=2.0, size=(12, dim))
    rows[0] = 0.0
    rows[1] = -0.0
    rows[2] = 3.0                                    # constant: y = 0
    rows[3] *= spec.min_positive_subnormal           # squares underflow
    rows[4] *= spec.max_finite                       # overflows the format
    rows[5, 0] = np.inf
    rows[6, 0] = -np.inf
    rows[7, :2] = [np.inf, -np.inf]
    rows[8, 3] = np.nan
    rows[9, 3] = -np.nan
    rows[10] = np.nan
    rows[11] *= 1e-30
    return rows.reshape(3, 4, dim)


@pytest.mark.parametrize("policy", POLICIES)
def test_iterl2norm_output_needs_no_activation_cast(policy):
    model = OPTLanguageModel(get_config("opt-test"), rng=np.random.default_rng(5), policy=policy)
    model.eval()
    model.replace_layernorm("iterl2norm", fmt=model.policy.variant_normalizer_fmt)
    ev = model.final_norm.eval_normalizer
    assert isinstance(ev, IterL2Norm)
    assert ev.fmt == get_format(model.policy.activation_fmt)
    plan = _Plan(model)
    x = special_rows(model.config.embed_dim, ev.fmt.name)
    with np.errstate(all="ignore"):
        raw = ev(x)
        cast = model.ops.act(raw)
        planned = plan.final_norm(x)
        module = model.final_norm(x)
    assert np.isnan(raw).any() and np.isfinite(raw).any()
    assert raw.tobytes() == cast.tobytes()
    assert planned.tobytes() == module.tobytes() == cast.tobytes()
    # The skipped cast made no copy; the normalizer's output is fresh.
    assert planned.flags.c_contiguous and not np.shares_memory(planned, x)


def test_other_formats_keep_the_cast():
    """An IterL2Norm in a format other than the activation format is cast."""
    model = OPTLanguageModel(get_config("opt-test"), rng=np.random.default_rng(5), policy="bf16")
    model.eval()
    model.replace_layernorm("iterl2norm", fmt="fp32")
    plan = _Plan(model)
    x = special_rows(model.config.embed_dim, "fp32")
    with np.errstate(all="ignore"):
        raw = model.final_norm.eval_normalizer(x)
        planned = plan.final_norm(x)
        module = model.final_norm(x)
        assert planned.tobytes() == model.ops.act(raw).tobytes() == module.tobytes()
    assert planned.tobytes() != raw.tobytes()
