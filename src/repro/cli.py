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
  ``--policy`` serves under a named precision policy;
  ``--decode-strategy prompt-lookup`` compares speculative decoding
  against its one-token baseline on the copy-heavy grid).
* ``cluster-bench`` — the multi-replica cluster serving benchmark
  (replica counts x routing policies x scenarios, writes
  ``BENCH_cluster.json``; ``prefix-affinity`` routing is compared
  against the ``round-robin`` baseline per cell).
* ``shard-bench`` — the tensor-sharded serving benchmark (shard counts
  x fan-out drivers x scenarios, each cell paired with its N=1 twin and
  the reference backend, writes ``BENCH_shard.json``; token digests
  prove sharding never changes a byte).
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


def _resolve_shard_backend(args, command: str) -> str:
    """Compose ``--shards``/``--shard-driver`` into a backend spec.

    ``--shards N`` is shorthand for ``--backend sharded:N:<driver>``; the
    two spellings must not disagree, so combining ``--shards`` with an
    explicit non-default ``--backend`` is a usage error.
    """
    if getattr(args, "shards", None) is None:
        return args.backend
    if args.backend != "reference":
        raise SystemExit(
            f"{command}: --shards conflicts with --backend {args.backend!r}; "
            f"use one spelling"
        )
    return f"sharded:{args.shards}:{args.shard_driver}"


def _add_tier_arguments(p) -> None:
    """The cold-KV-tier flags, shared by the serving benchmark commands.

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
    p.add_argument(
        "--slo-aware", action="store_true",
        help="rank preemption victims by modeled recompute cost within "
             "the lowest priority class (macro memory-interface cost "
             "model) instead of pure arrival order",
    )


def _cmd_serve_bench(args) -> None:
    from repro.serve.bench import run_bench

    backend = _resolve_shard_backend(args, "serve-bench")
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
            priority_mix=args.priority_mix,
            decode_strategy=args.decode_strategy,
            ngram=args.ngram,
            max_draft=args.max_draft,
            copy_rate=args.copy_rate,
            backend=backend,
            policies=tuple(args.policies.split(",")) if args.policies else None,
            repeats=args.repeats,
            tier_blocks=args.tier_blocks,
            tier_ratio=args.tier_ratio,
            tier_fmt=args.tier_fmt,
            slo_aware=args.slo_aware,
        )
    except (ValueError, KeyError) as exc:
        # Flag mistakes (bad --ngram/--max-draft/--backend/--scenarios
        # combinations) should read as usage errors, not tracebacks.
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"serve-bench: {message}")


def _cmd_cluster_bench(args) -> None:
    from repro.cluster.bench import run_cluster_bench

    try:
        replicas = tuple(int(r) for r in args.replicas.split(","))
    except ValueError:
        raise SystemExit(
            f"cluster-bench: --replicas must be a comma-separated list of "
            f"integers, got {args.replicas!r}"
        )
    capacity_weights = None
    if args.capacity_weights:
        try:
            capacity_weights = [
                float(w) for w in args.capacity_weights.split(",")
            ]
        except ValueError:
            raise SystemExit(
                f"cluster-bench: --capacity-weights must be a comma-separated "
                f"list of numbers, got {args.capacity_weights!r}"
            )
    try:
        run_cluster_bench(
            quick=args.quick,
            jobs_n=args.jobs,
            seed=args.seed,
            out_path=args.out,
            scenarios=args.scenarios or None,
            routings=tuple(args.routing.split(",")),
            replicas=replicas,
            sessions=args.sessions,
            cache_dir=args.cache_dir,
            use_cache=args.use_cache,
            no_cache=args.no_cache,
            policy=args.policy,
            rate_scale=args.rate_scale,
            max_batch_size=args.max_batch_size,
            block_size=args.block_size,
            prefill_budget=args.prefill_budget,
            max_blocks=args.max_blocks,
            backend=args.backend,
            capacity_weights=capacity_weights,
            tier_blocks=args.tier_blocks,
            tier_ratio=args.tier_ratio,
            tier_fmt=args.tier_fmt,
            slo_aware=args.slo_aware,
        )
    except (ValueError, KeyError) as exc:
        # Same contract as serve-bench: bad --routing/--replicas/--policy
        # presets are one-line usage errors, not worker tracebacks.
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"cluster-bench: {message}")


def _cmd_shard_bench(args) -> None:
    from repro.shard.bench import run_shard_bench

    try:
        shards = tuple(int(n) for n in args.shards.split(","))
    except ValueError:
        raise SystemExit(
            f"shard-bench: --shards must be a comma-separated list of "
            f"integers, got {args.shards!r}"
        )
    try:
        run_shard_bench(
            quick=args.quick,
            jobs_n=args.jobs,
            seed=args.seed,
            out_path=args.out,
            scenarios=args.scenarios or None,
            shards=shards,
            drivers=tuple(args.drivers.split(",")),
            policies=tuple(args.policies.split(",")),
            model_name=args.model,
            max_batch_size=args.max_batch_size,
            rate_scale=args.rate_scale,
            repeats=args.repeats,
            pin_workers=args.pin_workers,
            prefix_caching=args.prefix_caching,
            max_blocks=args.max_blocks,
            tier_blocks=args.tier_blocks,
            tier_ratio=args.tier_ratio,
            tier_fmt=args.tier_fmt,
            slo_aware=args.slo_aware,
            cache_dir=args.cache_dir,
            use_cache=args.use_cache,
            no_cache=args.no_cache,
        )
    except (ValueError, KeyError) as exc:
        # Same contract as serve-bench: bad --shards/--drivers/--policies
        # presets are one-line usage errors, not worker tracebacks.
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"shard-bench: {message}")


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
        include_cluster=args.cluster,
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
             "lowest-priority requests (re-run deterministically) instead "
             "of growing — required for a nonzero preempt column",
    )
    p.add_argument(
        "--block-size", type=int, default=None, metavar="TOKENS",
        help="token positions per KV block (default 16; smaller blocks "
             "make --max-blocks bounds and prefix sharing finer-grained)",
    )
    p.add_argument(
        "--priority-mix", default=None, metavar="P:W,...",
        help="override request priority classes, e.g. '2:0.2,1:0.3,0:0.5' "
             "(larger priority = more urgent)",
    )
    p.add_argument(
        "--decode-strategy", default="one-token",
        choices=("one-token", "prompt-lookup"),
        help="decode strategy: 'prompt-lookup' adds draft-free n-gram "
             "speculation, pairs every cell with its one-token baseline "
             "(identical tokens, fewer model steps), and defaults the "
             "grid to the copy-heavy scenarios",
    )
    p.add_argument(
        "--ngram", type=int, default=None, metavar="N",
        help="longest n-gram the prompt-lookup speculator matches "
             "(default 3)",
    )
    p.add_argument(
        "--max-draft", type=int, default=None, metavar="K",
        help="max draft tokens verified per speculative step (default 4)",
    )
    p.add_argument(
        "--copy-rate", type=float, default=None, metavar="R",
        help="copied-prompt fraction of the summarize-copy scenario "
             "(0 <= R < 1; default 0.6)",
    )
    p.add_argument(
        "--backend", default="reference",
        help="execution backend: 'compiled' runs the pre-fused executor, "
             "'sharded:N[:sim|process][:pin]' the tensor-sharded one; "
             "any non-reference backend pairs "
             "every cell with its reference twin (identical tokens) and "
             "adds backend_comparison to the artifact",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shorthand for --backend sharded:N:<driver> (see "
             "--shard-driver); N must divide 12",
    )
    p.add_argument(
        "--shard-driver", default="process",
        choices=("sim", "process"),
        help="fan-out driver used with --shards: 'process' runs real "
             "worker processes over shared memory (default), 'sim' "
             "in-process simulated shards",
    )
    p.add_argument(
        "--policies", default=None, metavar="P,...",
        help="comma-separated precision policies to sweep the grid over "
             "(overrides --policy); with a non-reference --backend this "
             "produces the per-preset executor-parity artifact",
    )
    p.add_argument(
        "--repeats", type=int, default=1, metavar="K",
        help="run each cell K times and keep the fastest (noise control, "
             "same as shard-bench; token digests must be identical "
             "across repeats)",
    )
    _add_tier_arguments(p)
    add_engine_arguments(p)
    p.set_defaults(func=_cmd_serve_bench)

    p = sub.add_parser(
        "cluster-bench",
        help="multi-replica cluster serving benchmark "
             "(replicas x routing policies, writes BENCH_cluster.json)",
    )
    p.add_argument("--quick", action="store_true", help="12 sessions per scenario")
    p.add_argument("--out", default="BENCH_cluster.json", metavar="PATH")
    p.add_argument(
        "--scenarios", nargs="*", metavar="NAME",
        help="subset of scenarios (default: chat-multiturn agent-fanout)",
    )
    p.add_argument(
        "--routing", default="round-robin,least-loaded,prefix-affinity",
        metavar="P,...",
        help="comma-separated routing policies to sweep "
             "(round-robin, least-loaded, prefix-affinity)",
    )
    p.add_argument(
        "--replicas", default="2", metavar="R,...",
        help="comma-separated replica counts to sweep (each >= 1)",
    )
    p.add_argument(
        "--sessions", type=int, default=None, metavar="N",
        help="size workloads in sessions (a chat conversation or fan-out "
             "group each); scales to tens of thousands",
    )
    p.add_argument(
        "--rate-scale", type=float, default=4.0, metavar="S",
        help="multiply every scenario's arrival rate (default 4.0: the "
             "shared-prefix scenarios under enough load that routing "
             "placement matters)",
    )
    p.add_argument(
        "--max-batch-size", type=int, default=4, metavar="N",
        help="decode slots per replica (cluster capacity = R x N)",
    )
    p.add_argument(
        "--capacity-weights", default=None, metavar="W,W,...",
        help="relative per-replica capacities, e.g. 2,1 for a 2x-skewed "
             "pair (scales each replica's decode slots; load-aware "
             "routing divides load by weight)",
    )
    p.add_argument(
        "--block-size", type=int, default=8, metavar="TOKENS",
        help="KV block size (smaller = finer-grained prefix sharing)",
    )
    p.add_argument(
        "--prefill-budget", type=int, default=None, metavar="TOKENS",
        help="per-iteration chunked-prefill cap, per replica",
    )
    p.add_argument(
        "--max-blocks", type=int, default=None, metavar="N",
        help="bound each replica's KV pool at N blocks (exhaustion "
             "preempts deterministically; required by --tier-ratio)",
    )
    p.add_argument(
        "--policy", default="fp64-ref",
        help="precision policy of the served model",
    )
    p.add_argument(
        "--backend", default="reference",
        help="execution backend of every replica ('reference', 'compiled', "
             "'sharded:N[:sim|process][:pin]'; process-driver replicas "
             "share one warm worker pool)",
    )
    p.add_argument(
        "--use-cache", action="store_true",
        help="replay cells from the result cache (off by default)",
    )
    _add_tier_arguments(p)
    add_engine_arguments(p)
    p.set_defaults(func=_cmd_cluster_bench)

    p = sub.add_parser(
        "shard-bench",
        help="tensor-sharded serving benchmark (shard counts x drivers x "
             "scenarios, each cell paired with its N=1 twin; writes "
             "BENCH_shard.json)",
    )
    p.add_argument("--quick", action="store_true", help="12 requests per scenario")
    p.add_argument("--out", default="BENCH_shard.json", metavar="PATH")
    p.add_argument(
        "--scenarios", nargs="*", metavar="NAME",
        help="subset of scenarios (default: steady bursty chat codegen)",
    )
    p.add_argument(
        "--shards", default="1,2,4", metavar="N,...",
        help="comma-separated shard counts to sweep (each must divide 12; "
             "the N=1 twin anchors the scaling ratios)",
    )
    p.add_argument(
        "--pin-workers", action="store_true",
        help="pin each worker process to a core round-robin via "
             "sched_setaffinity (no-op with a warning where unsupported)",
    )
    p.add_argument(
        "--drivers", default="process,sim", metavar="D,...",
        help="comma-separated fan-out drivers to sweep (process, sim); "
             "with process the artifact also times cold-fork vs "
             "warm-attach of the worker pool",
    )
    p.add_argument(
        "--policies", default="fp64-ref,bf16-fp8kv", metavar="P,...",
        help="comma-separated precision policies per cell",
    )
    p.add_argument(
        "--model", default="opt-350m-sim", metavar="NAME",
        help="substrate model config served by every cell",
    )
    p.add_argument(
        "--max-batch-size", type=int, default=16, metavar="N",
        help="decode slots of the serving engine (large enough steps "
             "that fan-out cost amortizes)",
    )
    p.add_argument(
        "--rate-scale", type=float, default=2.0, metavar="S",
        help="multiply every scenario's arrival rate",
    )
    p.add_argument(
        "--repeats", type=int, default=3, metavar="K",
        help="run each cell K times and keep the fastest (noise control; "
             "token digests must be identical across repeats)",
    )
    p.add_argument(
        "--use-cache", action="store_true",
        help="replay cells from the result cache (off by default: cached "
             "timings defeat a benchmark)",
    )
    p.add_argument(
        "--prefix-caching", action="store_true",
        help="share prompt-prefix KV blocks across requests in every cell "
             "(required by the cold-tier flags)",
    )
    p.add_argument(
        "--max-blocks", type=int, default=None, metavar="N",
        help="bound every cell's KV pool at N blocks (required by "
             "--tier-ratio)",
    )
    _add_tier_arguments(p)
    add_engine_arguments(p)
    p.set_defaults(func=_cmd_shard_bench)

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
        "--cluster", action="store_true",
        help="also run the multi-replica cluster serving section",
    )
    p.add_argument(
        "--policy", default="fp64-ref",
        help="precision policy of the serve-bench section's model",
    )
    p.add_argument(
        "--backend", default="reference",
        help="execution backend of the serve-bench section's engine "
             "('reference', 'compiled' or 'sharded:N[:sim|process]')",
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
