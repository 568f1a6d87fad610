"""The ``cluster-bench`` harness: replicas × routing policies × scenarios.

Each (scenario, R, routing policy) cell serves the *identical* seeded
workload through a :class:`~repro.cluster.router.ClusterRouter` fronting
R engine replicas, so the grid isolates what routing alone changes:
cluster-wide prefix hit rate, aggregate delivered tokens/sec, load
balance across replicas, and the router's own spill/stickiness counters.
Every row carries the order-independent ``token_digest`` of its full
served output — equal across all cells of one (scenario, workload),
because routing never changes a token — and the ``comparison`` section
proves it per cell while measuring what ``prefix-affinity`` buys over the
``round-robin`` baseline.

Results land in ``BENCH_cluster.json``::

    {
      "config":  {...},              # model, replicas swept, workload sizing
      "results": [ {scenario, routing, replicas, token_digest,
                    cluster: {aggregate_tokens_per_second, prefix_hit_rate,
                              load_imbalance, jain_fairness, per_replica,
                              routing}, metrics} ... ],
      "comparison": {                # per scenario/R, relative to round-robin
        "<scenario>/R<r>": {"<policy>": {"tokens_match": true,
                                          "prefix_hit_rate_delta": ...,
                                          "tokens_per_second_ratio": ...}}
      }
    }

Cells are declared as :class:`repro.engine.Job` objects and fan out over
``--jobs N`` worker processes like every other benchmark; the result
cache stays disabled by default because the timing columns are measured.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from repro.cluster.router import ROUTING_POLICIES, ClusterRouter
from repro.engine import Job, ResultCache, run_jobs
from repro.nn.config import get_config
from repro.nn.executor import validate_backend
from repro.nn.model import OPTLanguageModel
from repro.serve.bench import (
    _token_digest,
    validate_policies,
    validate_scenarios,
    validate_tier,
)
from repro.serve.workload import SCENARIOS, generate_workload

#: The shared-prefix scenarios where routing placement actually moves the
#: hit rate; the classic independent mixes are opt-in via ``--scenarios``.
DEFAULT_CLUSTER_SCENARIOS = ("chat-multiturn", "agent-fanout")

DEFAULT_ROUTINGS = ("round-robin", "least-loaded", "prefix-affinity")

DEFAULT_REPLICAS = (2,)

#: Cluster cells default to a finer block size than the single-engine
#: bench: the structured scenarios share 8-22-token prefixes, which only
#: round down to whole cacheable blocks when blocks are small.
DEFAULT_BLOCK_SIZE = 8


def run_cluster_cell(
    scenario: str = "chat-multiturn",
    routing: str = "round-robin",
    replicas: int = 2,
    quick: bool = True,
    sessions: int | None = None,
    model_name: str = "opt-125m-sim",
    max_batch_size: int = 4,
    rate_scale: float = 4.0,
    seed: int = 0,
    policy: str = "fp64-ref",
    prefix_caching: bool = True,
    prefill_budget: int | None = None,
    max_blocks: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    backend: str = "reference",
    capacity_weights=None,
    tier_blocks: int | None = None,
    tier_ratio: float | None = None,
    tier_fmt: str | None = None,
    slo_aware: bool = False,
) -> tuple[dict, str]:
    """Serve one scenario through one cluster configuration.

    The workload is generated from ``(scenario, seed, sessions,
    rate_scale)`` alone — identical across every routing policy and
    replica count, which is what makes the per-cell ``token_digest``
    comparable: routing may only move *where* requests run, never what
    they say.  ``max_batch_size`` is per replica (the cluster's decode
    capacity is ``replicas × max_batch_size``), and ``prefix_caching``
    defaults *on* — co-locating shared prefixes is the entire point of
    affinity routing.  ``capacity_weights`` skews the replicas' decode
    capacities (see :class:`~repro.cluster.router.ClusterRouter`); the
    cell then also reports ``weighted_load_imbalance`` — the spread of
    per-unit-of-capacity load, which weight-aware policies minimize and
    weight-blind ones cannot.
    """
    if routing not in ROUTING_POLICIES:
        known = ", ".join(sorted(ROUTING_POLICIES))
        raise KeyError(f"unknown routing policy {routing!r}; known: {known}")
    config = get_config(model_name)
    model = OPTLanguageModel(config, rng=np.random.default_rng(seed), policy=policy)
    model.eval()

    if sessions is None:
        sessions = 12 if quick else 32
    workload = generate_workload(
        scenario,
        sessions=sessions,
        vocab_size=config.vocab_size,
        seed=seed,
        rate_scale=rate_scale,
    )
    router = ClusterRouter(
        model,
        replicas=replicas,
        routing=routing,
        max_batch_size=max_batch_size,
        block_size=block_size,
        prefix_caching=prefix_caching,
        prefill_budget=prefill_budget,
        max_blocks=max_blocks,
        backend=backend,
        capacity_weights=capacity_weights,
        tier_blocks=tier_blocks,
        tier_ratio=tier_ratio,
        tier_fmt=tier_fmt,
        slo_aware=slo_aware,
    )
    report = router.serve(workload)
    cluster = report.summary()

    rows = {
        "scenario": scenario,
        "routing": routing,
        "replicas": int(replicas),
        "policy": policy,
        "model": model_name,
        "sessions": int(sessions),
        "num_requests": len(workload),
        "max_batch_size": max_batch_size,
        "seed": seed,
        "prefix_caching": bool(prefix_caching),
        "prefill_budget": prefill_budget,
        "max_blocks": max_blocks,
        "tier_blocks": tier_blocks,
        "tier_ratio": tier_ratio,
        "tier_fmt": tier_fmt,
        "slo_aware": bool(slo_aware),
        "block_size": int(block_size),
        "backend": backend,
        "capacity_weights": cluster["capacity_weights"],
        "token_digest": _token_digest(report.completed),
        "cluster": cluster,
        "metrics": report.merged.metrics,
    }
    routing_stats = cluster["routing"]
    text = (
        f"{scenario:14s} {routing:15s} R={replicas}  "
        f"{cluster['aggregate_tokens_per_second']:9.1f} tok/s  "
        f"prefix hit {cluster['prefix_hit_rate'] * 100:5.1f}%  "
        f"imbalance {cluster['load_imbalance']:5.3f}  "
        f"w-imb {cluster['weighted_load_imbalance']:5.3f}  "
        f"fairness {cluster['jain_fairness']:5.3f}  "
        f"spill {routing_stats['spill_count']:3d}  "
        f"sticky {routing_stats['sticky_hits']:3d}"
    )
    return rows, text


def jobs(
    quick: bool = True,
    seed: int = 0,
    scenarios=None,
    routings=DEFAULT_ROUTINGS,
    replicas=DEFAULT_REPLICAS,
    **params,
) -> list[Job]:
    """One engine job per (scenario, replica count, routing policy)."""
    names = list(scenarios) if scenarios else list(DEFAULT_CLUSTER_SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise KeyError(f"unknown scenario {name!r}; known: {known}")
    for routing in routings:
        if routing not in ROUTING_POLICIES:
            known = ", ".join(sorted(ROUTING_POLICIES))
            raise KeyError(f"unknown routing policy {routing!r}; known: {known}")
    declared = []
    for scenario in names:
        for r in replicas:
            if int(r) < 1:
                raise ValueError(f"replica counts must be >= 1, got {r}")
            for routing in routings:
                declared.append(
                    Job(
                        name=f"cluster[{scenario}/R{r}/{routing}]",
                        target="repro.cluster.bench:run_cluster_cell",
                        params={
                            "scenario": scenario,
                            "routing": routing,
                            "replicas": int(r),
                            "quick": bool(quick),
                            **params,
                        },
                        seed=seed,
                    )
                )
    return declared


def _cluster_comparison(results: list[dict]) -> dict:
    """Per (scenario, R) deltas of every policy against round-robin.

    ``tokens_match`` compares the cells' order-independent token digests —
    routing must never change a served token, so the artifact itself
    proves the exactness invariant per cell.  The hit-rate and throughput
    columns are what ``prefix-affinity`` is for: on the shared-prefix
    scenarios it must beat the round-robin baseline on both.
    """
    baselines = {
        (row["scenario"], row["replicas"]): row
        for row in results
        if row["routing"] == "round-robin"
    }
    comparison: dict[str, dict] = {}
    for row in results:
        if row["routing"] == "round-robin":
            continue
        base = baselines.get((row["scenario"], row["replicas"]))
        if base is None:
            continue
        base_tps = base["cluster"]["aggregate_tokens_per_second"]
        cell = f"{row['scenario']}/R{row['replicas']}"
        comparison.setdefault(cell, {})[row["routing"]] = {
            "tokens_match": row["token_digest"] == base["token_digest"],
            "prefix_hit_rate": row["cluster"]["prefix_hit_rate"],
            "baseline_prefix_hit_rate": base["cluster"]["prefix_hit_rate"],
            "prefix_hit_rate_delta": (
                row["cluster"]["prefix_hit_rate"] - base["cluster"]["prefix_hit_rate"]
            ),
            "tokens_per_second": row["cluster"]["aggregate_tokens_per_second"],
            "baseline_tokens_per_second": base_tps,
            "tokens_per_second_ratio": (
                row["cluster"]["aggregate_tokens_per_second"] / base_tps
                if base_tps
                else None
            ),
            "load_imbalance": row["cluster"]["load_imbalance"],
            "baseline_load_imbalance": base["cluster"]["load_imbalance"],
            "weighted_load_imbalance": row["cluster"]["weighted_load_imbalance"],
            "baseline_weighted_load_imbalance": (
                base["cluster"]["weighted_load_imbalance"]
            ),
            "jain_fairness": row["cluster"]["jain_fairness"],
            "spill_count": row["cluster"]["routing"]["spill_count"],
            "sticky_hits": row["cluster"]["routing"]["sticky_hits"],
            "affinity_hits": row["cluster"]["routing"]["affinity_hits"],
        }
    return comparison


def run_cluster_bench(
    quick: bool = True,
    jobs_n: int = 1,
    seed: int = 0,
    out_path: str = "BENCH_cluster.json",
    scenarios=None,
    routings=DEFAULT_ROUTINGS,
    replicas=DEFAULT_REPLICAS,
    sessions: int | None = None,
    cache_dir=None,
    use_cache: bool = False,
    no_cache: bool = False,
    stream=None,
    policy: str = "fp64-ref",
    rate_scale: float = 4.0,
    max_batch_size: int = 4,
    block_size: int = DEFAULT_BLOCK_SIZE,
    prefill_budget: int | None = None,
    max_blocks: int | None = None,
    backend: str = "reference",
    capacity_weights=None,
    tier_blocks: int | None = None,
    tier_ratio: float | None = None,
    tier_fmt: str | None = None,
    slo_aware: bool = False,
) -> tuple[dict, str]:
    """Run the scenario × R × routing grid and write ``out_path``.

    Flag validation mirrors ``serve-bench``: unknown routing policies,
    scenarios, backends, or a non-positive replica count raise before any
    job runs (the CLI turns them into one-line usage errors).
    ``capacity_weights`` skews every cell's cluster (one weight per
    replica, so each swept replica count must equal the weight count);
    compare the weight-aware policies' ``weighted_load_imbalance``
    against the weight-blind round-robin baseline in the same artifact.
    ``tier_blocks``/``tier_ratio`` arm the per-replica cold KV tier
    (``tier_ratio`` needs ``max_blocks``, the per-replica pool bound);
    every replica engine demotes and promotes independently and the
    merged report carries the summed tier counters.
    """
    stream = stream or sys.stdout
    validate_backend(backend)
    validate_policies((policy,))
    # Cluster cells always prefix-cache (affinity routing is the point),
    # so the tier flags only need the per-replica pool bound to resolve.
    validate_tier(
        tier_blocks=tier_blocks, tier_ratio=tier_ratio, tier_fmt=tier_fmt,
        prefix_caching=True, max_blocks=max_blocks,
    )
    if scenarios:
        validate_scenarios(scenarios)
    for routing in routings:
        if routing not in ROUTING_POLICIES:
            known = ", ".join(sorted(ROUTING_POLICIES))
            raise ValueError(
                f"unknown --routing policy {routing!r} (valid presets: {known})"
            )
    replicas = tuple(int(r) for r in replicas)
    if any(r < 1 for r in replicas):
        raise ValueError(f"--replicas must all be >= 1, got {list(replicas)}")
    if capacity_weights is not None:
        capacity_weights = [float(w) for w in capacity_weights]
        if any(w <= 0 for w in capacity_weights):
            raise ValueError(
                f"--capacity-weights must all be > 0, got {capacity_weights}"
            )
        for r in replicas:
            if r != len(capacity_weights):
                raise ValueError(
                    f"--capacity-weights has {len(capacity_weights)} entries "
                    f"but the grid sweeps R={r}; give one weight per replica"
                )
    params = {
        "policy": policy,
        "rate_scale": float(rate_scale),
        "max_batch_size": int(max_batch_size),
        "block_size": int(block_size),
        "backend": backend,
    }
    if capacity_weights is not None:
        params["capacity_weights"] = capacity_weights
    if sessions is not None:
        if sessions < 1:
            raise ValueError(f"--sessions must be >= 1, got {sessions}")
        params["sessions"] = int(sessions)
    if prefill_budget is not None:
        params["prefill_budget"] = int(prefill_budget)
    if max_blocks is not None:
        params["max_blocks"] = int(max_blocks)
    if tier_blocks is not None:
        params["tier_blocks"] = int(tier_blocks)
    if tier_ratio is not None:
        params["tier_ratio"] = float(tier_ratio)
    if tier_fmt is not None:
        params["tier_fmt"] = tier_fmt
    if slo_aware:
        params["slo_aware"] = True
    declared = jobs(
        quick=quick, seed=seed, scenarios=scenarios, routings=routings,
        replicas=replicas, **params,
    )
    cache = ResultCache(cache_dir) if use_cache else None
    outcomes = run_jobs(
        declared, max_workers=jobs_n, cache=cache, no_cache=no_cache, stream=sys.stderr
    )

    results = [outcome.rows for outcome in outcomes]
    lines = [
        "scenario       routing         R      tokens/s      prefix hit"
        "   imbalance   w-imb    fairness    spill  sticky",
    ]
    lines += [outcome.text for outcome in outcomes]
    payload = {
        "config": {
            "quick": bool(quick),
            "seed": int(seed),
            "scenarios": sorted({row["scenario"] for row in results}),
            "routings": list(routings),
            "replicas": list(replicas),
            "sessions": sessions,
            "policy": policy,
            "rate_scale": float(rate_scale),
            "max_batch_size": int(max_batch_size),
            "block_size": int(block_size),
            "max_blocks": max_blocks,
            "tier_blocks": tier_blocks,
            "tier_ratio": tier_ratio,
            "tier_fmt": tier_fmt,
            "slo_aware": bool(slo_aware),
            "backend": backend,
            "capacity_weights": capacity_weights,
            "model": results[0]["model"] if results else None,
        },
        "results": results,
        "comparison": _cluster_comparison(results),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    lines.append(f"wrote {out_path}")
    text = "\n".join(lines)
    stream.write(text + "\n")
    return payload, text
