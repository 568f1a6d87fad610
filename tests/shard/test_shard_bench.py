"""Shard benchmark harness: cells, best-of-K, comparison, CLI guards."""

import json

import pytest

from repro.shard import bench as shard_bench
from repro.shard.bench import jobs, run_shard_cell, shard_comparison


def fake_row(scenario, policy, backend, tps, digest):
    return {
        "scenario": scenario,
        "policy": policy,
        "backend": backend,
        "token_digest": digest,
        "metrics": {"tokens_per_second": tps},
    }


class TestRunShardCell:
    def test_rejects_non_positive_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_shard_cell(repeats=0, scenario="steady")

    def test_keeps_fastest_repeat(self, monkeypatch):
        speeds = iter([100.0, 300.0, 200.0])

        def fake_run_scenario(**params):
            tps = next(speeds)
            return {"token_digest": "d", "metrics": {"tokens_per_second": tps}}, "x"

        monkeypatch.setattr(
            "repro.serve.bench.run_scenario", fake_run_scenario
        )
        rows, _ = run_shard_cell(repeats=3, scenario="steady")
        assert rows["metrics"]["tokens_per_second"] == 300.0
        assert rows["repeats"] == 3

    def test_digest_drift_across_repeats_fails_loudly(self, monkeypatch):
        digests = iter(["a", "b"])

        def fake_run_scenario(**params):
            return (
                {"token_digest": next(digests),
                 "metrics": {"tokens_per_second": 1.0}},
                "x",
            )

        monkeypatch.setattr(
            "repro.serve.bench.run_scenario", fake_run_scenario
        )
        with pytest.raises(RuntimeError, match="no longer deterministic"):
            run_shard_cell(repeats=2, scenario="steady")

    def test_real_cell_is_deterministic_and_serializable(self):
        rows, text = run_shard_cell(
            repeats=2,
            scenario="steady",
            quick=True,
            num_requests=3,
            model_name="opt-test",
            policy="fp64-ref",
            backend="sharded:2:sim",
        )
        assert rows["backend"] == "sharded:2:sim"
        assert rows["repeats"] == 2
        json.dumps(rows)


class TestJobs:
    def test_grid_declaration(self):
        declared = jobs(
            quick=True,
            scenarios=("steady", "chat"),
            shards=(1, 2),
            drivers=("sim",),
            policies=("fp64-ref",),
        )
        # 2 scenarios x 1 policy x (reference + 2 sharded backends)
        assert len(declared) == 6
        names = {job.name for job in declared}
        assert "shard[steady/fp64-ref/reference]" in names
        assert "shard[chat/fp64-ref/sharded:2:sim]" in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            jobs(scenarios=("no-such-mix",))

class TestShardComparison:
    def test_ratios_and_digest_flags(self):
        rows = [
            fake_row("steady", "fp64-ref", "reference", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:1:sim", 110.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:2:sim", 220.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:4:sim", 330.0, "BAD"),
        ]
        comp = shard_comparison(rows)
        group = comp["steady/fp64-ref/sim"]
        assert group["N=2"]["tokens_match"] is True
        assert group["N=2"]["tokens_match_reference"] is True
        assert group["N=2"]["tokens_per_second_ratio"] == pytest.approx(2.0)
        assert group["N=4"]["tokens_match"] is False
        assert group["N=4"]["tokens_match_reference"] is False
        assert group["N=1"]["tokens_per_second_ratio"] == pytest.approx(1.0)

    def test_missing_twin_is_null_not_a_mismatch(self):
        rows = [
            fake_row("steady", "fp64-ref", "reference", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:2:sim", 150.0, "ok"),
        ]
        cell = shard_comparison(rows)["steady/fp64-ref/sim"]["N=2"]
        assert cell["tokens_match"] is None
        assert cell["tokens_match_reference"] is True
        assert cell["tokens_per_second_ratio"] is None

    def test_drivers_compare_against_their_own_twin(self):
        rows = [
            fake_row("steady", "fp64-ref", "reference", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:1:sim", 200.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:1:process", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:2:process", 150.0, "ok"),
        ]
        comp = shard_comparison(rows)
        assert comp["steady/fp64-ref/process"]["N=2"][
            "tokens_per_second_ratio"
        ] == pytest.approx(1.5)

class TestRunShardBench:
    def test_grid_without_twin_reports_no_mismatch(self, tmp_path):
        payload, text = shard_bench.run_shard_bench(
            quick=True, shards=(2,), drivers=("sim",), scenarios=("steady",),
            policies=("fp64-ref",), model_name="opt-test", repeats=1,
            out_path=str(tmp_path / "x.json"),
        )
        cell = payload["shard_comparison"]["steady/fp64-ref/sim"]["N=2"]
        assert cell["tokens_match"] is None
        assert cell["tokens_match_reference"] is True
        assert "digest mismatches: 0 across 1 sharded cells" in text
        assert "pool_reuse" not in payload

    def test_process_driver_times_pool_reuse(self, tmp_path, monkeypatch):
        calls = []

        def fake_pool_reuse(**kwargs):
            calls.append(kwargs)
            return {"cold_prepare_s": 0.2, "warm_prepare_s": 0.1, "speedup": 2.0}

        monkeypatch.setattr(shard_bench, "measure_pool_reuse", fake_pool_reuse)
        monkeypatch.setattr(shard_bench, "run_jobs", lambda *a, **k: [])
        payload, text = shard_bench.run_shard_bench(
            drivers=("process",), out_path=str(tmp_path / "x.json"),
        )
        assert calls and calls[0]["backend"] == "sharded:2:process"
        assert payload["pool_reuse"]["speedup"] == 2.0
        assert "pool reuse" in text

    def test_pool_reuse_attaches_warm(self):
        reuse = shard_bench.measure_pool_reuse(model_name="opt-test")
        assert reuse["backend"] == "sharded:2:process"
        assert reuse["warm_attach_reused"] is True


class TestValidation:
    def test_run_shard_bench_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            shard_bench.run_shard_bench(
                scenarios=("no-such-mix",),
                out_path=str(tmp_path / "x.json"),
            )

    def test_run_shard_bench_rejects_bad_shards(self, tmp_path):
        with pytest.raises(ValueError, match="DET_ATOMS"):
            shard_bench.run_shard_bench(
                shards=(5,), out_path=str(tmp_path / "x.json")
            )

class TestCLIGuards:
    """Flag mistakes exit with one-line usage errors, not tracebacks."""

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "shard-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--scenarios", "no-such-mix",
            ])
        assert "shard-bench" in str(excinfo.value)

    def test_bad_shards_list_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "shard-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--shards", "1,two",
            ])
        assert "shard" in str(excinfo.value)

    def test_serve_bench_shards_conflicts_with_backend(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--shards", "2", "--backend", "compiled",
            ])
        assert "--shards" in str(excinfo.value)

    @pytest.mark.parametrize("command", ["serve-bench"])
    @pytest.mark.parametrize(
        ("spec", "fragment"),
        [
            ("pipeline:2", "known: compiled, reference, sharded:N"),
            ("sharded:5", "DET_ATOMS"),
            ("sharded:2:gpu", "unknown shard driver"),
        ],
    )
    def test_bad_backend_spec_is_usage_error(
        self, tmp_path, command, spec, fragment
    ):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                command, "--quick",
                "--out", str(tmp_path / "x.json"),
                "--backend", spec,
            ])
        message = str(excinfo.value)
        assert message.startswith(f"{command}:")
        assert "\n" not in message
        assert fragment in message

    @pytest.mark.parametrize(
        "retired", [["--mode", "pipeline"], ["--stages", "1,2"], ["--stage-shards", "2"]]
    )
    def test_retired_pipeline_flags_are_rejected(self, tmp_path, retired, capsys):
        """Old pipeline invocations fail loudly instead of running a sharded grid."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "shard-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                *retired,
            ])
        # argparse exits 2 on an unknown flag; "--mode" abbreviates --model,
        # so "--mode pipeline" exits naming the unknown config instead.
        code = excinfo.value.code
        assert code not in (0, None)
        message = f"{code} {capsys.readouterr().err}"
        assert any(part in message for part in retired)
        assert not (tmp_path / "x.json").exists()

    def test_serve_bench_bad_repeats_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--repeats", "0",
            ])
        assert "--repeats" in str(excinfo.value)
