"""Wall-clock benchmark of the IterL2Norm serving stack.

Run from the root of a repository checkout::

    python3 wallbench/run.py --workload decode-bf16-iterl2 --seed 1 --seconds 30 --trace 0

Workloads are ``decode-bf16-iterl2``, ``chat-prefix-fp64`` and
``norm-kernel`` (see ``wallbench/README.md``).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is the result object; the line
before it records the host and per-run details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".bench_build" / "wallbench"

WORKLOADS = ("decode-bf16-iterl2", "chat-prefix-fp64", "norm-kernel")

END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tok/s",
    "rows_per_s": "rows/s",
    "ttft_p50_ms": "ms",
    "ttft_p90_ms": "ms",
    "tpot_p50_ms": "ms",
    "tpot_p90_ms": "ms",
    "slo_attainment": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    import tracer
    from serving import SERVE_COUNTERS

    names = [*tracer.layer_metrics(tracer.Tracer(), 0.0), *SERVE_COUNTERS]
    names += ["bench.tracing_overhead", "failed_frac"]
    return {name: _layer_unit(name) for name in names}


def _layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_ms"):
        return "ms"
    if leaf.endswith("_s"):
        return "s"
    if leaf in ("share", "prefix_hit_rate", "tracing_overhead", "failed_frac"):
        return "fraction"
    if leaf in ("rows", "rows_per_call"):
        return "rows"
    if leaf == "flops":
        return "flop"
    if leaf == "recompute_tokens":
        return "tokens"
    return "count"


def host_fingerprint(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool, golden: dict, **sizes) -> dict:
    """One benchmark run; returns the result object plus its ``record``."""
    if workload == "norm-kernel":
        import normkernel

        out = normkernel.run(
            seed, seconds, trace, golden.get(workload, {}), trace_dir=TRACE_DIR, **sizes
        )
    else:
        import serving

        out = serving.run(workload, seed, seconds, trace, golden, trace_dir=TRACE_DIR, **sizes)
    metrics = out["metrics"]
    if trace:
        metrics["failed_frac"] = out["failed"] / out["attempted"]
        units = per_layer_units()
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
        "record": out["detail"],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(
            f"wallbench: no repro package under {SRC}; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    # Set before NumPy loads: OpenBLAS reads these once at import.
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path[:0] = [str(SRC), str(HERE)]

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(threads),
        "detail": result.pop("record"),
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
