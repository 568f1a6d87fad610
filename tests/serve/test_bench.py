"""Benchmark harness: scenario cells, engine-job declaration, JSON output."""

import json

import numpy as np
import pytest

from repro.serve.bench import DEFAULT_NORMALIZERS, jobs, run_bench, run_scenario


@pytest.fixture
def injected_clock(monkeypatch, fixed_timer_factory):
    """Serve every bench cell on its own fixed timer.

    Step counts compare schedules; on the wall clock a slower host batches
    more arrivals into each step, so the counts would track host load.
    """
    import repro.serve.bench as bench_mod

    engine_cls = bench_mod.ServeEngine
    monkeypatch.setattr(
        bench_mod,
        "ServeEngine",
        lambda model, **kwargs: engine_cls(model, timer=fixed_timer_factory(), **kwargs),
    )


class TestRunScenario:
    def test_rows_and_text(self):
        rows, text = run_scenario(
            scenario="steady", normalizer="baseline", quick=True, num_requests=4, seed=0
        )
        assert rows["scenario"] == "steady"
        assert rows["normalizer"] == "baseline"
        assert rows["metrics"]["requests_completed"] == 4
        assert rows["metrics"]["tokens_per_second"] > 0
        assert rows["pool"]["blocks_in_use"] == 0
        assert "steady" in text and "tok/s" in text
        json.dumps(rows)  # engine-cacheable: must be JSON-serializable

    def test_token_streams_identical_across_normalizer_timing(self):
        """Same seed => same workload: token counts match across runs."""
        rows_a, _ = run_scenario(scenario="chat", quick=True, num_requests=4, seed=5)
        rows_b, _ = run_scenario(scenario="chat", quick=True, num_requests=4, seed=5)
        assert (
            rows_a["metrics"]["tokens_generated"]
            == rows_b["metrics"]["tokens_generated"]
        )
        assert rows_a["metrics"]["finish_reasons"] == rows_b["metrics"]["finish_reasons"]

    def test_unknown_normalizer(self):
        with pytest.raises(KeyError):
            run_scenario(normalizer="nope")


class TestPolicyAxis:
    def test_rows_carry_policy(self):
        rows, _ = run_scenario(
            scenario="steady", normalizer="baseline", quick=True,
            num_requests=3, seed=0, policy="fp16",
        )
        assert rows["policy"] == "fp16"

    def test_default_policy_is_reference(self):
        rows, _ = run_scenario(
            scenario="steady", quick=True, num_requests=3, seed=1,
        )
        assert rows["policy"] == "fp64-ref"

    def test_normalizer_fmt_follows_quantized_policy(self, monkeypatch):
        """Under --policy the variants drop their hardcoded fp16 format."""
        import repro.serve.bench as bench_mod
        from repro.nn.model import OPTLanguageModel

        seen = {}
        original = OPTLanguageModel.replace_layernorm

        def spy(self, method, fmt=None, **kwargs):
            seen["fmt"] = fmt
            return original(self, method, fmt=fmt, **kwargs)

        monkeypatch.setattr(OPTLanguageModel, "replace_layernorm", spy)
        bench_mod.run_scenario(
            scenario="steady", normalizer="iterl2norm", quick=True,
            num_requests=2, seed=0, policy="bf16",
        )
        assert seen["fmt"] == "bf16"
        bench_mod.run_scenario(
            scenario="steady", normalizer="iterl2norm", quick=True,
            num_requests=2, seed=0,
        )
        assert seen["fmt"] == "fp16"  # fp64-ref keeps the historical format


class TestSchedulingKnobs:
    def test_prefix_caching_chat_cell_reports_hits(self):
        rows, text = run_scenario(
            scenario="chat-multiturn", normalizer="baseline", quick=True,
            num_requests=6, seed=0, prefix_caching=True,
        )
        assert rows["prefix_caching"] is True
        assert rows["metrics"]["prefix_hit_rate"] > 0
        assert rows["pool"]["blocks_adopted"] > 0
        assert "prefix hit" in text
        json.dumps(rows)

    def test_prefill_budget_threads_through(self):
        rows, _ = run_scenario(
            scenario="chat", normalizer="baseline", quick=True,
            num_requests=4, seed=0, prefill_budget=4,
        )
        assert rows["prefill_budget"] == 4
        assert rows["metrics"]["prefill_tokens_computed"] > 0

    def test_max_blocks_arms_preemption(self):
        """A bounded pool is reachable from the bench (and the CLI flag)."""
        rows, _ = run_scenario(
            scenario="bursty", normalizer="baseline", quick=True,
            num_requests=10, seed=0, max_batch_size=6, max_blocks=8,
            block_size=4,
        )
        assert rows["max_blocks"] == 8
        assert rows["metrics"]["preempted_count"] > 0
        assert rows["metrics"]["requests_completed"] == 10

    def test_knob_jobs_carry_params(self):
        declared = jobs(
            quick=True, scenarios=("chat-multiturn",),
            normalizers=("baseline",), prefix_caching=True, prefill_budget=16,
        )
        assert len(declared) == 1
        assert declared[0].params["prefix_caching"] is True
        assert declared[0].params["prefill_budget"] == 16

    def test_unknown_scenario_rejected_at_declaration(self):
        with pytest.raises(KeyError):
            jobs(quick=True, scenarios=("nope",))


class TestJobs:
    def test_grid_declaration(self):
        declared = jobs(quick=True, seed=3)
        assert len(declared) == 4 * len(DEFAULT_NORMALIZERS)
        names = {job.name for job in declared}
        assert "serve[steady/baseline]" in names
        assert "serve[codegen/iterl2norm]" in names
        for job in declared:
            assert job.target == "repro.serve.bench:run_scenario"
            assert job.seed == 3

    def test_jobs_resolve_and_hash(self):
        job = jobs(quick=True)[0]
        assert callable(job.resolve())
        assert len(job.config_hash("v0")) == 64


class TestGreedyDAGCell:
    def test_dag_cell_rows_and_text(self):
        rows, text = run_scenario(
            scenario="map-reduce", normalizer="baseline", quick=True,
            num_requests=6, seed=0,
        )
        assert rows["scenario"] == "map-reduce"
        assert rows["metrics"]["requests_completed"] == 6
        assert rows["metrics"]["tokens_generated"] > 0
        assert text.startswith("map-reduce")
        json.dumps(rows)

    def test_dag_cell_digest_and_steps_repeat(self, injected_clock):
        """Two runs of one seeded cell serve the same tokens in the same steps."""
        first, _ = run_scenario(
            scenario="map-reduce", normalizer="baseline", quick=True,
            num_requests=6, seed=0,
        )
        second, _ = run_scenario(
            scenario="map-reduce", normalizer="baseline", quick=True,
            num_requests=6, seed=0,
        )
        assert first["token_digest"] == second["token_digest"]
        assert first["metrics"]["steps"] == second["metrics"]["steps"]


class TestRepeats:
    def _stub_rows(self, tps, digest="d0"):
        return (
            {"token_digest": digest, "metrics": {"tokens_per_second": tps}},
            "text",
        )

    def test_best_of_n_keeps_fastest_repeat(self, monkeypatch):
        import repro.serve.bench as bench_mod

        speeds = iter([10.0, 30.0, 20.0])
        calls = []

        def stub(**params):
            calls.append(params)
            return self._stub_rows(next(speeds))

        monkeypatch.setattr(bench_mod, "run_scenario", stub)
        rows, _ = bench_mod.run_serve_cell(repeats=3, scenario="steady")
        assert len(calls) == 3
        assert rows["metrics"]["tokens_per_second"] == 30.0
        assert rows["repeats"] == 3

    def test_digest_drift_across_repeats_aborts(self, monkeypatch):
        import repro.serve.bench as bench_mod

        digests = iter(["d0", "d1"])
        monkeypatch.setattr(
            bench_mod,
            "run_scenario",
            lambda **params: self._stub_rows(1.0, digest=next(digests)),
        )
        with pytest.raises(RuntimeError, match="no longer deterministic"):
            bench_mod.run_serve_cell(repeats=2, scenario="steady")

    def test_repeats_must_be_positive(self):
        from repro.serve.bench import run_serve_cell

        with pytest.raises(ValueError, match="repeats"):
            run_serve_cell(repeats=0, scenario="steady")

    def test_jobs_route_through_repeat_wrapper(self):
        declared = jobs(
            quick=True, scenarios=("steady",), normalizers=("baseline",),
            repeats=3,
        )
        assert declared[0].target == "repro.serve.bench:run_serve_cell"
        assert declared[0].params["repeats"] == 3
        single = jobs(
            quick=True, scenarios=("steady",), normalizers=("baseline",),
        )
        assert single[0].target == "repro.serve.bench:run_scenario"

    def test_run_bench_records_repeats_and_stays_exact(self, tmp_path):
        out = tmp_path / "bench.json"
        payload, _ = run_bench(
            quick=True,
            seed=0,
            out_path=str(out),
            scenarios=("steady",),
            normalizers=("baseline",),
            repeats=2,
            stream=open("/dev/null", "w"),
        )
        assert payload["config"]["repeats"] == 2
        assert payload["results"][0]["repeats"] == 2

    def test_run_bench_rejects_bad_repeats(self, tmp_path):
        with pytest.raises(ValueError, match="--repeats"):
            run_bench(
                quick=True,
                seed=0,
                out_path=str(tmp_path / "x.json"),
                repeats=0,
                stream=open("/dev/null", "w"),
            )


class TestRunBench:
    def test_writes_json_with_all_scenarios(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        payload, text = run_bench(
            quick=True,
            jobs_n=1,
            seed=0,
            out_path=str(out),
            normalizers=("baseline",),
            stream=open("/dev/null", "w"),
        )
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk["config"]["scenarios"] == ["bursty", "chat", "codegen", "steady"]
        assert len(on_disk["results"]) == 4
        for row in on_disk["results"]:
            metrics = row["metrics"]
            assert metrics["tokens_per_second"] > 0
            assert "p99" in metrics["ttft_s"]
            assert "max" in metrics["queue_depth"]
            assert row["pool"]["blocks_allocated"] > 0
        assert "wrote" in text

    def test_comparison_section(self, tmp_path):
        out = tmp_path / "bench.json"
        payload, _ = run_bench(
            quick=True,
            seed=0,
            out_path=str(out),
            scenarios=("steady",),
            normalizers=("baseline", "exact"),
            stream=open("/dev/null", "w"),
        )
        comparison = payload["comparison"]["steady"]["exact"]
        assert comparison["tokens_per_second_ratio"] > 0
        assert np.isfinite(comparison["ttft_p50_delta_s"])
        assert isinstance(comparison["tokens_generated_delta"], int)


class TestBackendAxis:
    def test_compiled_cell_matches_reference_digest(self):
        """Same seed + scenario: the compiled executor serves identical
        tokens, so the content digests pair up across backends."""
        ref, _ = run_scenario(
            scenario="steady", normalizer="baseline", quick=True,
            num_requests=4, seed=0, policy="bf16-fp8kv",
        )
        comp, text = run_scenario(
            scenario="steady", normalizer="baseline", quick=True,
            num_requests=4, seed=0, policy="bf16-fp8kv", backend="compiled",
        )
        assert ref["backend"] == "reference"
        assert comp["backend"] == "compiled"
        assert comp["token_digest"] == ref["token_digest"]
        assert "compiled" in text
        json.dumps(comp)

    def test_backend_jobs_pair_reference_twins(self):
        declared = jobs(
            quick=True, scenarios=("steady",), normalizers=("baseline",),
            backends=("reference", "compiled"),
        )
        assert len(declared) == 2
        by_backend = {job.params["backend"]: job for job in declared}
        assert set(by_backend) == {"reference", "compiled"}
        assert by_backend["compiled"].name.endswith("[compiled]")

    def test_backend_bench_comparison(self, tmp_path):
        out = tmp_path / "BENCH_executor.json"
        payload, _ = run_bench(
            quick=True,
            seed=0,
            out_path=str(out),
            scenarios=("steady",),
            normalizers=("baseline",),
            backend="compiled",
            stream=open("/dev/null", "w"),
        )
        assert payload["config"]["backend"] == "compiled"
        assert len(payload["results"]) == 2  # paired reference twin ran too
        cell = payload["backend_comparison"]["steady/baseline/fp64-ref"]["compiled"]
        assert cell["tokens_match"] is True
        assert cell["tokens_per_second"] > 0
        assert cell["reference_tokens_per_second"] > 0
        assert cell["tokens_per_second_ratio"] > 0

    def test_policies_sweep_keys_comparison_per_preset(self, tmp_path):
        out = tmp_path / "BENCH_executor.json"
        payload, _ = run_bench(
            quick=True,
            seed=0,
            out_path=str(out),
            scenarios=("steady",),
            normalizers=("baseline",),
            backend="compiled",
            policies=("fp64-ref", "bf16-fp8kv"),
            stream=open("/dev/null", "w"),
        )
        comparison = payload["backend_comparison"]
        assert set(comparison) == {
            "steady/baseline/fp64-ref", "steady/baseline/bf16-fp8kv"
        }
        for cell in comparison.values():
            assert cell["compiled"]["tokens_match"] is True


class TestKnobGuards:
    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="--backend"):
            run_bench(
                quick=True, seed=0, out_path=str(tmp_path / "x.json"),
                scenarios=("steady",), normalizers=("baseline",),
                backend="vectorized", stream=open("/dev/null", "w"),
            )

    def test_cli_turns_flag_mistakes_into_usage_errors(self, tmp_path, capsys):
        """A bad flag combination exits with a one-line message, not a
        traceback (the satellite hardening for serve-bench)."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--backend", "vectorized",
            ])
        assert "serve-bench:" in str(excinfo.value)
        assert "--backend" in str(excinfo.value)

    def test_cli_unknown_precision_policy_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--scenarios", "steady",
                "--policy", "fp7-magic",
            ])
        message = str(excinfo.value)
        assert message.startswith("serve-bench:")
        assert "fp64-ref" in message  # lists the valid presets

    def test_cli_unknown_policies_preset_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--scenarios", "steady",
                "--policies", "fp64-ref,fp12-mystery",
            ])
        message = str(excinfo.value)
        assert message.startswith("serve-bench:")
        assert "fp12-mystery" in message
        assert "bf16-fp8kv" in message  # lists the valid presets


class TestTierFlagValidation:
    """The cold-tier flags fail fast, house-style, across every bench."""

    def test_validate_tier_rejections(self):
        from repro.serve.bench import validate_tier

        with pytest.raises(ValueError, match="not both"):
            validate_tier(tier_blocks=8, tier_ratio=0.5, prefix_caching=True)
        with pytest.raises(ValueError, match="--tier-blocks"):
            validate_tier(tier_blocks=-1, prefix_caching=True)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            validate_tier(tier_ratio=1.5, prefix_caching=True, max_blocks=8)
        with pytest.raises(ValueError, match="--prefix-caching"):
            validate_tier(tier_blocks=8, prefix_caching=False)
        with pytest.raises(ValueError, match="--max-blocks"):
            validate_tier(tier_ratio=0.5, prefix_caching=True)
        with pytest.raises(ValueError, match="--tier-fmt"):
            validate_tier(tier_fmt="fp8_e4m3", prefix_caching=True)
        with pytest.raises(ValueError, match="--tier-fmt"):
            validate_tier(
                tier_blocks=8, tier_fmt="int7", prefix_caching=True
            )
        # The all-clear combinations do not raise.
        validate_tier()
        validate_tier(tier_blocks=8, prefix_caching=True)
        validate_tier(tier_ratio=0.25, prefix_caching=True, max_blocks=16)

    def test_serve_bench_cli_one_line_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--tier-blocks", "8",
            ])
        assert "serve-bench:" in str(excinfo.value)
        assert "--prefix-caching" in str(excinfo.value)

    def test_serve_bench_bad_repeats_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--repeats", "0",
            ])
        assert "--repeats" in str(excinfo.value)

    def test_unknown_dag_scenario_is_a_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--scenarios", "agent-forest",
            ])
        assert "serve-bench:" in str(excinfo.value)
        assert "agent-forest" in str(excinfo.value)


class TestBackendValidation:
    """Only ``reference`` and ``compiled`` resolve; any other spec is a
    one-line usage error before a cell runs."""

    @pytest.mark.parametrize("spec", ["sharded:2", "pipeline:2"])
    def test_retired_backend_is_one_line_usage_error(self, tmp_path, spec):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--backend", spec,
            ])
        message = str(excinfo.value)
        assert message.startswith("serve-bench:")
        assert "\n" not in message
        assert "known: compiled, reference)" in message
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("spec", ["sharded:2", "pipeline:2", "nonsense"])
    def test_validate_backend_rejects_unknown_specs(self, spec):
        from repro.nn.executor import validate_backend

        validate_backend("reference")
        validate_backend("compiled")
        with pytest.raises(ValueError, match="unknown --backend"):
            validate_backend(spec)

    def test_resolve_executor_names_only_the_two_backends(self, model):
        from repro.nn.executor import resolve_executor

        with pytest.raises(KeyError) as excinfo:
            resolve_executor("sharded:2", model)
        assert "(known: compiled, reference)" in str(excinfo.value)


class TestTierPairing:
    """Arming the tier pairs every cell with an untiered twin."""

    def test_jobs_tier_axis_doubles_cells_and_marks_names(self):
        from repro.serve.bench import jobs

        tier = {"tier_blocks": 16}
        declared = jobs(
            quick=True, seed=0, scenarios=("agent-tree",),
            normalizers=("baseline",), tiers=(None, tier),
        )
        names = [job.name for job in declared]
        assert len(names) == 2
        assert sum("[tiered]" in name for name in names) == 1
        tiered = next(j for j in declared if "[tiered]" in j.name)
        assert tiered.params["tier_blocks"] == 16

    def test_run_bench_tiered_writes_tier_comparison(self, tmp_path):
        payload, _ = run_bench(
            quick=True, seed=0, out_path=str(tmp_path / "tier.json"),
            scenarios=("agent-tree",), normalizers=("baseline",),
            policy="fp64-ref", prefix_caching=True, block_size=8,
            max_blocks=12, tier_blocks=48,
            stream=open("/dev/null", "w"),
        )
        comparison = payload["tier_comparison"]
        assert comparison, "tiered run must emit tier_comparison"
        for cell in comparison.values():
            assert cell["tokens_match"] is True
            assert cell["blocks_demoted"] > 0
        # The classic comparisons only ever see untiered rows.
        for row_key in payload["comparison"]:
            assert "[tiered]" not in row_key
