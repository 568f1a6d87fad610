"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q wallbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import serving  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())


def tiny(workload: str, trace: bool, golden=GOLDEN) -> dict:
    sizes = {"setups": 1}
    if workload != "norm-kernel":
        sizes["round_size"] = 4
    return bench.run(workload, seed=3, seconds=0.01, trace=trace, golden=golden, **sizes)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()
    chat_why = next(w["why"] for w in SPEC["workloads"] if w["name"] == "chat-prefix-fp64")
    assert f"TTFT<={serving.SLO_TTFT_MS:g}ms" in chat_why
    assert f"TPOT<={serving.SLO_TPOT_MS:g}ms" in chat_why


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_corrupted_golden_is_reported_as_failed(workload):
    corrupted = json.loads(json.dumps(GOLDEN))
    if workload == "norm-kernel":
        corrupted[workload]["128/bf16/16"] = "00000000"
    else:
        corrupted[workload] = "00000000"
    result = tiny(workload, trace=False, golden=corrupted)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_child_self_times_never_exceed_their_parent():
    spec = serving.WORKLOADS["chat-prefix-fp64"]
    model = serving.build_model(spec)
    executor = serving.resolve_executor("compiled", model)
    requests = serving.round_requests(spec, 5, 12)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, model):
        served = serving.serve_round(spec, model, executor, requests, tracer)
    assert len(served.completed) == len(requests)
    spans = tracer.spans
    child_total = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            parent = spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2]
            child_total[span[3]] += span[2] - span[1]
    for span, covered in zip(spans, child_total):
        assert covered <= span[2] - span[1]
    assert min(tracer.self_times()) >= 0.0
    layers = tracing.layer_metrics(tracer, served.busy_s)
    assert layers["nn.forward.self_s"] <= layers["nn.forward.busy_s"]
    assert layers["nn.forward.busy_s"] <= layers["serve.engine.step_s"]
    assert layers["serve.engine.self_s"] <= layers["serve.engine.step_s"]
    assert layers["core.iterl2norm.calls"] == 0  # exact LayerNorm under fp64-ref
    kv_spans = [s for s in spans if s[0].startswith("serve.kv_pool.")]
    assert kv_spans and all(s[4] is not None for s in kv_spans)


def test_exits_nonzero_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "norm-kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
