"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment drivers and the auxiliary
models:

* ``precision`` — Fig. 3 sweep (and the d=384 histogram).
* ``compare``   — Table I (IterL2Norm vs FISR at the OPT lengths).
* ``convergence`` — Fig. 4 (error vs iteration count).
* ``latency``   — Fig. 5 (macro latency sweep).
* ``synthesis`` — Table II + Fig. 6 + Table III.
* ``llm``       — Table IV (train the substrate models and swap normalizers).
* ``traffic``   — the host-vs-on-chip data-movement motivation analysis.
* ``throughput`` — the multi-vector batching/throughput model.
* ``serve-bench`` — the continuous-batching serving benchmark
  (traffic scenarios x swapped normalizers, writes ``BENCH_serve.json``;
  ``--policy`` serves under a named precision policy).
* ``precision-sweep`` — the (precision policy x normalizer) grid of
  perplexity + serving cells (writes ``BENCH_precision.json``).
* ``all``       — everything, in paper order.
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.perplexity import LLMEvalConfig


def _cmd_precision(args) -> None:
    from repro.experiments import fig3

    print(fig3.run(trials=args.trials, seed=args.seed)[1])


def _cmd_compare(args) -> None:
    from repro.experiments import table1

    print(table1.run(trials=args.trials, seed=args.seed)[1])


def _cmd_convergence(args) -> None:
    from repro.experiments import fig4

    print(fig4.run(trials=args.trials, seed=args.seed)[1])


def _cmd_latency(args) -> None:
    from repro.experiments import fig5

    print(fig5.run()[1])


def _cmd_synthesis(args) -> None:
    from repro.experiments import fig6, table2, table3

    print(table2.run()[1])
    print()
    print(fig6.run()[1])
    print()
    print(table3.run()[1])


def _cmd_llm(args) -> None:
    from repro.experiments import table4

    config = LLMEvalConfig(train_steps=args.train_steps)
    if args.quick:
        config = LLMEvalConfig(
            tasks=("wikitext2-sim",),
            models=("opt-125m-sim",),
            formats=("fp32",),
            step_counts=(3, 5, 10),
            train_steps=min(args.train_steps, 60),
            eval_windows=8,
        )
    print(table4.run(config)[1])


def _cmd_traffic(args) -> None:
    from repro.experiments.reports import run_traffic_job

    print(
        run_traffic_job(
            embed_dim=args.embed_dim, fmt=args.format, interface=args.interface
        )[1]
    )


def _cmd_throughput(args) -> None:
    from repro.experiments.reports import run_throughput_job

    print(
        run_throughput_job(
            embed_dim=args.embed_dim, tokens_per_second=args.tokens_per_second
        )[1]
    )


def _add_tier_arguments(p) -> None:
    """The cold-KV-tier flags of ``serve-bench``.

    Arming the tier (``--tier-blocks`` / ``--tier-ratio``) pairs every
    cell with an untiered evict-only twin and adds ``tier_comparison``
    to the artifact; both flags require ``--prefix-caching``.
    """
    p.add_argument(
        "--tier-blocks", type=int, default=None, metavar="N",
        help="cold-tier capacity in blocks: prefix blocks that pool "
             "pressure would evict are demoted (re-quantized) into the "
             "tier instead and promoted back on a prefix hit — requires "
             "--prefix-caching; pairs every cell with an untiered twin",
    )
    p.add_argument(
        "--tier-ratio", type=float, default=None, metavar="R",
        help="cold-tier capacity as a fraction of --max-blocks "
             "(0 <= R <= 1; alternative to --tier-blocks)",
    )
    p.add_argument(
        "--tier-fmt", default=None, metavar="FMT",
        help="cold-tier storage format (default: the policy's KV-cache "
             "format, which round-trips exactly; a narrower format makes "
             "the tier lossy, so cold hits re-prefill instead of "
             "promoting — exactness over reuse)",
    )


def _cmd_serve_bench(args) -> None:
    from repro.serve.bench import run_bench

    try:
        run_bench(
            quick=args.quick,
            jobs_n=args.jobs,
            seed=args.seed,
            out_path=args.out,
            scenarios=args.scenarios or None,
            normalizers=tuple(args.normalizers.split(",")),
            cache_dir=args.cache_dir,
            use_cache=args.use_cache,
            no_cache=args.no_cache,
            policy=args.policy,
            prefix_caching=args.prefix_caching,
            prefill_budget=args.prefill_budget,
            max_blocks=args.max_blocks,
            block_size=args.block_size,
            backend=args.backend,
            policies=tuple(args.policies.split(",")) if args.policies else None,
            repeats=args.repeats,
            tier_blocks=args.tier_blocks,
            tier_ratio=args.tier_ratio,
            tier_fmt=args.tier_fmt,
        )
    except (ValueError, KeyError) as exc:
        # Flag mistakes (bad --backend/--scenarios/--tier-* combinations)
        # should read as usage errors, not tracebacks.
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"serve-bench: {message}")


def _cmd_precision_sweep(args) -> None:
    from repro.experiments.precision_sweep import run_sweep

    run_sweep(
        quick=args.quick,
        jobs_n=args.jobs,
        seed=args.seed,
        out_path=args.out,
        policies=tuple(args.policies.split(",")),
        normalizers=tuple(args.normalizers.split(",")),
        cache_dir=args.cache_dir,
        use_cache=args.use_cache,
        no_cache=args.no_cache,
    )


def _cmd_all(args) -> None:
    from repro.experiments.runner import run_all

    run_all(
        quick=args.quick,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        seed=args.seed,
        include_serve=args.serve,
        include_precision=args.precision,
        policy=args.policy,
        backend=args.backend,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precision", help="Fig. 3 precision sweep")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_precision)

    p = sub.add_parser("compare", help="Table I IterL2Norm vs FISR")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("convergence", help="Fig. 4 error vs iteration count")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("latency", help="Fig. 5 macro latency sweep")
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("synthesis", help="Table II, Fig. 6, Table III reports")
    p.set_defaults(func=_cmd_synthesis)

    p = sub.add_parser("llm", help="Table IV LLM-level evaluation")
    p.add_argument("--train-steps", type=int, default=150)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_llm)

    p = sub.add_parser("traffic", help="host vs on-chip data movement analysis")
    p.add_argument("--embed-dim", type=int, default=768)
    p.add_argument("--format", default="fp16")
    p.add_argument("--interface", choices=("pcie4", "ddr4", "hbm2"), default="ddr4")
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser("throughput", help="multi-vector throughput model")
    p.add_argument("--embed-dim", type=int, default=768)
    p.add_argument("--tokens-per-second", type=float, default=1e5)
    p.set_defaults(func=_cmd_throughput)

    from repro.engine.options import add_engine_arguments

    p = sub.add_parser(
        "serve-bench",
        help="continuous-batching serving benchmark (writes BENCH_serve.json)",
    )
    p.add_argument("--quick", action="store_true", help="12 requests per scenario")
    p.add_argument("--out", default="BENCH_serve.json", metavar="PATH")
    p.add_argument(
        "--scenarios", nargs="*", metavar="NAME",
        help="subset of scenarios (default: steady bursty chat codegen)",
    )
    p.add_argument(
        "--normalizers", default="baseline,iterl2norm",
        help="comma-separated normalizer variants to compare",
    )
    p.add_argument(
        "--use-cache", action="store_true",
        help="replay token-identical cells from the result cache "
             "(off by default: cached timings defeat a benchmark)",
    )
    p.add_argument(
        "--policy", default="fp64-ref",
        help="precision policy of the served model "
             "(fp64-ref, fp32, fp16, bf16, bf16-fp8kv, ...)",
    )
    p.add_argument(
        "--prefix-caching", action="store_true",
        help="share prompt-prefix KV blocks across requests "
             "(copy-on-write protected; tokens are unchanged)",
    )
    p.add_argument(
        "--prefill-budget", type=int, default=None, metavar="TOKENS",
        help="per-iteration cap on prefilled prompt tokens: long prompts "
             "stream in as chunks interleaved with decode rows",
    )
    p.add_argument(
        "--max-blocks", type=int, default=None, metavar="N",
        help="bound the KV pool at N blocks; exhaustion then preempts "
             "the most recently queued requests (re-run deterministically) "
             "instead of growing — required for a nonzero preempt column",
    )
    p.add_argument(
        "--block-size", type=int, default=None, metavar="TOKENS",
        help="token positions per KV block (default 16; smaller blocks "
             "make --max-blocks bounds and prefix sharing finer-grained)",
    )
    p.add_argument(
        "--backend", default="reference",
        help="execution backend: 'reference' or 'compiled' (the pre-fused "
             "executor); 'compiled' pairs every cell with its reference "
             "twin (identical tokens) and adds backend_comparison to the "
             "artifact",
    )
    p.add_argument(
        "--policies", default=None, metavar="P,...",
        help="comma-separated precision policies to sweep the grid over "
             "(overrides --policy); with a non-reference --backend this "
             "produces the per-preset executor-parity artifact",
    )
    p.add_argument(
        "--repeats", type=int, default=1, metavar="K",
        help="run each cell K times and keep the fastest (noise control; "
             "token digests must be identical across repeats)",
    )
    _add_tier_arguments(p)
    add_engine_arguments(p)
    p.set_defaults(func=_cmd_serve_bench)

    p = sub.add_parser(
        "precision-sweep",
        help="(precision policy x normalizer) perplexity + serving grid "
             "(writes BENCH_precision.json)",
    )
    p.add_argument("--quick", action="store_true", help="tiny model, 8 requests/cell")
    p.add_argument("--out", default="BENCH_precision.json", metavar="PATH")
    p.add_argument(
        "--policies", default="fp64-ref,fp32,fp16,bf16,bf16-fp8kv",
        help="comma-separated precision policies to sweep",
    )
    p.add_argument(
        "--normalizers", default="baseline,iterl2norm",
        help="comma-separated normalizer variants per policy",
    )
    p.add_argument(
        "--use-cache", action="store_true",
        help="replay cells from the result cache (off by default: the "
             "serving columns are measured timings)",
    )
    add_engine_arguments(p)
    p.set_defaults(func=_cmd_precision_sweep)

    p = sub.add_parser("all", help="regenerate every table and figure")
    p.add_argument("--quick", action="store_true")
    p.add_argument(
        "--serve", action="store_true",
        help="also run the serving benchmark section (timing-sensitive)",
    )
    p.add_argument(
        "--precision", action="store_true",
        help="also run the precision-policy sweep section",
    )
    p.add_argument(
        "--policy", default="fp64-ref",
        help="precision policy of the serve-bench section's model",
    )
    p.add_argument(
        "--backend", default="reference",
        help="execution backend of the serve-bench section's engine "
             "('reference' or 'compiled')",
    )
    add_engine_arguments(p)
    p.set_defaults(func=_cmd_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
