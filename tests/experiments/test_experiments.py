"""Smoke and shape tests for the per-table/figure experiment drivers.

These run each driver at reduced trial counts and assert the qualitative
claims the paper makes about each table/figure — the "shape" the
reproduction is expected to preserve (see EXPERIMENTS.md).
"""

import pytest

from repro.eval.perplexity import LLMEvalConfig
from repro.experiments import fig3, fig4, fig5, fig6, table1, table2, table3, table4


class TestFig3:
    def test_rows_and_bands(self):
        rows, text = fig3.run(lengths=(64, 256), formats=("fp32", "bf16"), trials=30)
        assert len(rows) == 4
        assert "Fig. 3" in text
        fp32_rows = [r for r in rows if r["format"] == "fp32"]
        bf16_rows = [r for r in rows if r["format"] == "bf16"]
        # FP32 errors sit well below BF16 errors (Fig. 3a vs 3c).
        assert max(r["mean_err"] for r in fp32_rows) < min(r["mean_err"] for r in bf16_rows)
        # All errors are in sane bands.
        assert all(r["mean_err"] < 0.05 for r in rows)


class TestTable1:
    def test_comparison_shape(self):
        rows, text = table1.run(lengths=(768, 2048), formats=("fp32",), trials=30)
        assert len(rows) == 2
        assert "Table I" in text
        for row in rows:
            assert row["winner"] in ("iterl2norm", "fisr")
            assert row["iterl2norm_max"] >= row["iterl2norm_mean"]

    def test_iterl2norm_wins_majority_fp32(self):
        """The paper's headline: IterL2Norm beats FISR in most FP32 cases."""
        rows, _ = table1.run(
            lengths=(768, 1024, 2048, 2560, 4096), formats=("fp32",), trials=60
        )
        wins = sum(1 for r in rows if r["winner"] == "iterl2norm")
        assert wins >= 3


class TestFig4:
    def test_convergence_shape(self):
        rows, text = fig4.run(
            length=256, formats=("fp32", "bf16"), step_counts=(1, 3, 5, 8), trials=30
        )
        assert "Fig. 4" in text
        fp32 = [r["mean_err"] for r in rows if r["format"] == "fp32"]
        bf16 = [r["mean_err"] for r in rows if r["format"] == "bf16"]
        # Error decreases with steps for fp32 and saturates for bf16.
        assert fp32[0] > fp32[-1]
        assert bf16[-1] == pytest.approx(bf16[-2], rel=0.5)
        # The bf16 floor sits above the fp32 floor.
        assert bf16[-1] > fp32[-1]


class TestFig5:
    def test_latency_series(self):
        rows, text = fig5.run(cross_check_simulator=True)
        assert len(rows) == 16
        cycles = [r["cycles"] for r in rows]
        assert cycles == sorted(cycles)
        assert abs(cycles[0] - 116) <= 10 and abs(cycles[-1] - 227) <= 10
        assert "agreement on first 4 lengths: True" in text


class TestTable2:
    def test_model_close_to_paper(self):
        rows, text = table2.run()
        assert "Table II" in text
        for row in rows:
            if row["paper_area_mm2"] is not None:
                assert row["area_mm2"] == pytest.approx(row["paper_area_mm2"], rel=0.1)
                assert row["power_mw"] == pytest.approx(row["paper_power_mw"], rel=0.05)


class TestFig6:
    def test_breakdown_claims(self):
        breakdowns, text = fig6.run()
        assert "area breakdown" in text
        for fmt, parts in breakdowns.items():
            area = parts["area"]
            power = parts["power"]
            assert max(area, key=area.get) == "memory"
            assert power["mul_block"] + power["add_block"] > 0.5


class TestTable3:
    def test_rows(self):
        rows, text = table3.run()
        assert "Table III" in text
        assert len(rows) == 7
        ours = [r for r in rows if "IterL2Norm" in str(r["implementation"])]
        assert len(ours) == 3
        assert all(r["clock_mhz"] == 100.0 for r in ours)


class TestTable4:
    def test_quick_grid(self):
        config = LLMEvalConfig(
            tasks=("bst-sim",),
            models=("opt-125m-sim",),
            formats=("fp32",),
            step_counts=(3, 10),
            train_steps=25,
            seq_len=32,
            eval_windows=5,
        )
        rows, text = table4.run(config)
        assert "Table IV" in text
        assert len(rows) == 2
        by_steps = {r["steps"]: r for r in rows}
        # The 10-step perplexity is at least as close to the baseline as 3-step.
        assert abs(by_steps[10]["delta"]) <= abs(by_steps[3]["delta"]) + 1e-6
        assert abs(by_steps[10]["delta"]) < 0.01 * by_steps[10]["baseline_ppl"]


class TestRunnerServeSection:
    def test_serve_section_declares_classic_and_structured_cells(self):
        from repro.experiments.runner import build_sections
        from repro.serve.bench import DEFAULT_SCENARIOS

        sections = dict(build_sections(quick=True, include_serve=True))
        scenarios = {job.params["scenario"] for job in sections["Serve bench"]}
        assert scenarios == set(DEFAULT_SCENARIOS) | {"chat-multiturn", "agent-fanout"}

    def test_no_serve_section_without_flag(self):
        from repro.experiments.runner import build_sections

        assert "Serve bench" not in dict(build_sections(quick=True))

    def test_unknown_backend_rejected(self):
        import pytest

        from repro.experiments.runner import build_sections

        with pytest.raises(ValueError, match="backend"):
            build_sections(quick=True, include_serve=True, backend="nope")


def test_runner_module_runs_once_as_main():
    """``python -m repro.experiments.runner`` must not find the runner
    already imported by its package: runpy would warn and then execute
    the file a second time as ``__main__``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.experiments.runner", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
