"""The ``norm-kernel`` workload: ``IterL2Norm.forward`` alone.

The cells span the paper's operating range: d in {64 .. 1024}, fp32 and
bf16 working formats, 5 iteration steps, and row batches shaped like one
decode step (16 rows) and one prefill chunk (256 rows).  A *sweep* calls
every cell once.  The end-to-end figures borrow the serving names: a row
is one token's activation vector, ``ttft_*`` are percentiles over the
prefill-shaped cells of their call time, ``tpot_*`` over the decode-shaped
cells.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

import tracer as tracing
from repro.core.layernorm import IterL2Norm, IterL2NormConfig
from repro.macro.latency import latency_cycles
from serving import GOLDEN_SEED, SERVE_COUNTERS, SLO_TPOT_MS, SLO_TTFT_MS

NAME = "norm-kernel"
D_VALUES = (64, 128, 256, 512, 768, 1024)
FORMATS = ("fp32", "bf16")
DECODE_ROWS, PREFILL_ROWS = 16, 256
NUM_STEPS = 5

_clock = time.perf_counter


def make_cells(seed: int) -> list[tuple[str, int, str, int, IterL2Norm, np.ndarray]]:
    """``(key, d, fmt, rows, layer, x)`` for every cell, seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    cells = []
    for fmt in FORMATS:
        for d in D_VALUES:
            for rows in (DECODE_ROWS, PREFILL_ROWS):
                layer = IterL2Norm(
                    d,
                    IterL2NormConfig(num_steps=NUM_STEPS, fmt=fmt),
                    gamma=1.0 + 0.1 * rng.standard_normal(d),
                    beta=0.1 * rng.standard_normal(d),
                )
                # Per-row offsets and scales across four decades.
                scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(rows, 1))
                x = (rng.standard_normal((rows, d)) + rng.standard_normal((rows, 1))) * scale
                cells.append((f"{d}/{fmt}/{rows}", d, fmt, rows, layer, x))
    return cells


def output_crc(out: np.ndarray) -> str:
    return f"{zlib.crc32(np.ascontiguousarray(out, dtype=np.float64).tobytes()):08x}"


def _setup(seed: int, golden: dict):
    """Build both cell sets; warm up on the golden cells and check their bytes."""
    start = _clock()
    golden_cells = make_cells(GOLDEN_SEED)
    cells = make_cells(seed)
    bad = 0
    for key, _, _, _, layer, x in golden_cells:
        crc = output_crc(layer.forward(x))
        if crc != golden.get(key):
            print(
                f"wallbench: {NAME} {key} output {crc} != golden {golden.get(key)}",
                file=sys.stderr,
            )
            bad += 1
    expected = {key: layer.forward(x) for key, _, _, _, layer, x in cells}
    return cells, expected, _clock() - start, len(golden_cells), bad


def _sweep(cells, expected, samples=None):
    """Call every cell once; returns ``(calls failed, wall seconds)``."""
    failed = 0
    start = _clock()
    for key, _, _, rows, layer, x in cells:
        t0 = _clock()
        try:
            out = layer.forward(x)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        took = _clock() - t0
        if not np.array_equal(out, expected[key]):
            failed += 1
        if samples is not None:
            samples.append((key, rows, took))
    return failed, _clock() - start


def run(
    seed: int,
    seconds: float,
    trace: bool,
    golden: dict,
    setups: int = 5,
    trace_dir: Path | None = None,
) -> dict:
    """One run.  ``setups // 2`` of the set-ups follow the timed sweeps, so
    their median spans the run rather than one phase of a shared host."""
    attempted = failed = 0
    setup_s = []

    def set_up():
        nonlocal attempted, failed
        cells, expected, took, checked, bad = _setup(seed, golden)
        setup_s.append(took)
        attempted += checked
        failed += bad
        return cells, expected

    for _ in range(setups - setups // 2):
        cells, expected = set_up()
    runner = _traced if trace else _timed
    out = runner(cells, expected, seconds, trace_dir)
    if not trace:
        for _ in range(setups // 2):
            set_up()
        out["metrics"]["setup_s"] = statistics.median(setup_s)
    out["attempted"] += attempted
    out["failed"] += failed
    out["detail"]["setup_s_each"] = setup_s
    return out


def _timed(cells, expected, seconds, _trace_dir) -> dict:
    """Sweep until ``seconds`` pass; every cell keeps its fastest call.

    A shared host alternates between fast and slow phases lasting seconds,
    and a slow phase stretches every call it covers; a cell's fastest call
    is its time on an uncontended host.
    """
    best = {key: float("inf") for key, *_ in cells}
    rows_of = {key: rows for key, _, _, rows, _, _ in cells}
    sweeps = failed = 0
    deadline = _clock() + seconds
    while True:
        samples: list[tuple[str, int, float]] = []
        bad, _ = _sweep(cells, expected, samples)
        failed += bad
        sweeps += 1
        for key, _, took in samples:
            best[key] = min(best[key], took)
        if _clock() >= deadline:
            break
    timed = {key: t for key, t in best.items() if t < float("inf")}
    prefill = [1e3 * t for key, t in timed.items() if rows_of[key] == PREFILL_ROWS]
    decode = [1e3 * t for key, t in timed.items() if rows_of[key] == DECODE_ROWS]
    limit_ms = {PREFILL_ROWS: SLO_TTFT_MS, DECODE_ROWS: SLO_TPOT_MS}
    rows_per_s = sum(rows_of[key] for key in timed) / sum(timed.values())
    metrics = {
        "tokens_per_s": rows_per_s,
        "rows_per_s": rows_per_s,
        "ttft_p50_ms": float(np.percentile(prefill, 50)),
        "ttft_p90_ms": float(np.percentile(prefill, 90)),
        "tpot_p50_ms": float(np.percentile(decode, 50)),
        "tpot_p90_ms": float(np.percentile(decode, 90)),
        "slo_attainment": sum(
            1e3 * t <= limit_ms[rows_of[key]] for key, t in timed.items()
        ) / len(cells),
    }
    detail = {
        "sweeps": sweeps,
        "ns_per_row": {key: 1e9 * t / rows_of[key] for key, t in timed.items()},
        # Cycle counts of the paper's hardware macro: modeled, not measured.
        "modeled_cycles": {str(d): latency_cycles(d, NUM_STEPS) for d in D_VALUES},
    }
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": sweeps * len(cells),
        "failed": failed,
    }


def _traced(cells, expected, seconds, trace_dir) -> dict:
    """Alternate untraced and traced sweeps over the same cells."""
    tracer = tracing.Tracer()
    untraced_s, traced_s, layers = [], [], []
    failed = 0
    deadline = _clock() + seconds
    while True:
        bad, plain = _sweep(cells, expected)
        failed += bad
        tracer.reset()
        with tracing.instrument(tracer):
            bad, traced = _sweep(cells, expected)
        failed += bad
        untraced_s.append(plain)
        traced_s.append(traced)
        layers.append(tracing.layer_metrics(tracer, traced))
        if _clock() >= deadline:
            break
    if trace_dir is not None:
        tracer.dump(trace_dir / f"trace-{NAME}.jsonl")
    metrics = {key: statistics.median(d[key] for d in layers) for key in layers[0]}
    metrics.update(dict.fromkeys(SERVE_COUNTERS, 0))
    metrics["bench.tracing_overhead"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    return {
        "metrics": metrics,
        "detail": {"pairs": len(layers), "untraced_s": untraced_s, "traced_s": traced_s},
        "attempted": 2 * len(layers) * len(cells),
        "failed": failed,
    }
