"""Shard spec parsing, backend validation, and plan guards."""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.executor import resolve_executor, validate_backend
from repro.nn.functional import DET_ATOMS
from repro.nn.model import OPTLanguageModel
from repro.shard import ShardPlan, ShardedExecutor, parse_shard_spec
from repro.shard.bench import validate_drivers, validate_shards
from repro.shard.plan import shard_bounds


def make_model(policy=None):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(11), policy=policy
    )
    model.eval()
    return model


class TestParseShardSpec:
    def test_defaults_to_sim_driver(self):
        assert parse_shard_spec("sharded:2") == (2, "sim", False)

    def test_explicit_driver(self):
        assert parse_shard_spec("sharded:4:process") == (4, "process", False)

    def test_pin_suffix(self):
        assert parse_shard_spec("sharded:2:process:pin") == (2, "process", True)
        assert parse_shard_spec("sharded:2:pin") == (2, "sim", True)

    @pytest.mark.parametrize(
        "spec",
        ["sharded", "sharded:", "shard:2", "sharded:2:sim:extra", "sharded:x",
         "sharded:2:pin:sim", "sharded:2:sim:pin:extra"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_shard_spec(spec)

    @pytest.mark.parametrize("n", [0, -1, 5, 7, 13])
    def test_non_divisor_counts_rejected(self, n):
        with pytest.raises(ValueError, match="DET_ATOMS"):
            parse_shard_spec(f"sharded:{n}")

    def test_unknown_driver_rejected(self):
        with pytest.raises(ValueError, match="driver"):
            parse_shard_spec("sharded:2:threads")


class TestValidateBackend:
    @pytest.mark.parametrize(
        "spec",
        ["reference", "compiled", "sharded:2", "sharded:12:process",
         "sharded:2:process:pin"],
    )
    def test_accepts_known_backends(self, spec):
        validate_backend(spec)

    @pytest.mark.parametrize(
        "spec",
        ["nonsense", "sharded:5", "sharded:2:gpu", "pipeline:2"],
    )
    def test_rejects_unknown_backends(self, spec):
        with pytest.raises(ValueError):
            validate_backend(spec)

    def test_resolve_builds_sharded_executor(self):
        executor = resolve_executor("sharded:3:sim", make_model())
        try:
            assert isinstance(executor, ShardedExecutor)
            assert executor.num_shards == 3
        finally:
            executor.close()

    def test_resolve_rejects_retired_pipeline_spec(self):
        with pytest.raises(KeyError, match="unknown execution backend"):
            resolve_executor("pipeline:2", make_model())


class TestBenchValidators:
    def test_validate_shards_accepts_divisors(self):
        validate_shards([n for n in range(1, DET_ATOMS + 1) if DET_ATOMS % n == 0])

    def test_validate_shards_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="DET_ATOMS"):
            validate_shards([2, 5])

    def test_validate_drivers(self):
        validate_drivers(["sim", "process"])
        with pytest.raises(ValueError, match="driver"):
            validate_drivers(["sim", "mpi"])


class TestShardPlan:
    def test_non_divisor_count_rejected(self):
        with pytest.raises(ValueError, match="DET_ATOMS"):
            ShardPlan(make_model(), 5)

    def test_count_wider_than_narrowest_axis_rejected(self):
        # opt-test is deliberately tiny; a count that divides DET_ATOMS
        # can still exceed an axis on a wide-enough request.
        model = make_model()
        narrowest = min(
            model.config.embed_dim, model.config.ffn_dim, model.config.vocab_size
        )
        too_many = next(
            (
                n
                for n in range(1, DET_ATOMS + 1)
                if DET_ATOMS % n == 0 and n > narrowest
            ),
            None,
        )
        if too_many is None:
            pytest.skip("every divisor fits this model's axes")
        with pytest.raises(ValueError, match="narrowest"):
            ShardPlan(model, too_many)

    def test_bounds_cover_axis_contiguously(self):
        for dim in (12, 29, 96):
            for n in (1, 2, 3, 4, 6, 12):
                bounds = shard_bounds(dim, n)
                assert bounds[0] == 0 and bounds[-1] == dim
                assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:]))

    def test_plan_exposes_one_state_per_shard(self):
        plan = ShardPlan(make_model(), 4)
        assert len(plan.states()) == 4
        assert len(plan.configs) == 4

