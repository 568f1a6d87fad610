"""The ``shard-bench`` harness: shard count × driver × scenario grid.

Every grid cell serves one traffic scenario on a ``sharded:N:driver``
backend.  The same (scenario, policy) is also served on the ``reference``
backend and — via the ``N=1`` cell of each driver — on a twin that pays
the full fan-out machinery with none of the split.  Because the workloads
are fully seeded, all rows of a (scenario, policy) group see literally
identical traffic, so the artifact proves two things at once:

* **Exactness** — every row carries a ``token_digest`` checksum of its
  served streams; ``shard_comparison`` records per cell whether it
  matches the twin of its own driver (``tokens_match``) and the reference
  backend (``tokens_match_reference``); a field is ``null`` when its
  comparison row is not in the grid.  Sharding may move timings, never a
  token.
* **Scaling** — ``tokens_per_second_ratio`` is each cell's measured
  wall-clock throughput relative to its twin.  The ``process`` driver
  pays real IPC through shared-memory activation rings; the ``sim``
  driver runs the shards one after another in-process.

When the ``process`` driver is in the grid the artifact also times the
persistent worker pool (cold fork vs warm attach).  Results land in
``BENCH_shard.json``::

    {
      "config":  {...},
      "results": [ {scenario, policy, backend, token_digest, metrics} ... ],
      "shard_comparison": {
        "<scenario>/<policy>/<driver>": {
          "N=2": {"tokens_match": true, "tokens_match_reference": true,
                   "tokens_per_second_ratio": ...},
        }
      },
      "pool_reuse": {"cold_prepare_s": ..., "warm_prepare_s": ...,
                      "speedup": ...}                  # process driver only
    }

Cells run through the experiment engine's scheduler like every other
bench; the result cache stays disabled by default to keep timing honest.
"""

from __future__ import annotations

import json
import sys
import time

from repro.engine import Job, ResultCache, run_jobs
from repro.nn.functional import DET_ATOMS
from repro.serve.bench import (
    DEFAULT_SCENARIOS,
    validate_policies,
    validate_scenarios,
    validate_tier,
)
from repro.shard.executor import DRIVERS, parse_shard_spec

#: Shard counts benchmarked by default: the single-shard twin plus two
#: split widths.
DEFAULT_SHARDS = (1, 2, 4)

#: Fan-out drivers benchmarked by default (``process`` first — it is the
#: headline measurement; ``sim`` runs the same split without IPC).
DEFAULT_DRIVERS = ("process", "sim")

#: Precision presets swept by default: the exact substrate plus the most
#: aggressive quantized preset (the hardest bit-exactness case).
DEFAULT_POLICIES = ("fp64-ref", "bf16-fp8kv")

#: Default substrate: the larger sim config, with batch size and arrival
#: rate raised so steps carry enough tokens that fan-out cost amortizes —
#: the regime tensor parallelism exists for.  The tiny-dim configs
#: (``opt-test``, ``opt-125m-sim``) stay available via ``--model`` but
#: under-fill N=4 shards (24-column slices) on purpose-built hosts.
DEFAULT_MODEL = "opt-350m-sim"
DEFAULT_MAX_BATCH_SIZE = 16
DEFAULT_RATE_SCALE = 2.0


def validate_shards(shards) -> None:
    """Reject shard counts the deterministic split cannot serve."""
    valid = [n for n in range(1, DET_ATOMS + 1) if DET_ATOMS % n == 0]
    for n in shards:
        if int(n) not in valid:
            raise ValueError(
                f"--shards entries must divide DET_ATOMS={DET_ATOMS} "
                f"(valid: {valid}), got {n}"
            )


def validate_drivers(drivers) -> None:
    for driver in drivers:
        if driver not in DRIVERS:
            known = ", ".join(DRIVERS)
            raise ValueError(
                f"unknown shard driver {driver!r} (known: {known})"
            )


def run_shard_cell(repeats: int = 3, **params) -> tuple[dict, str]:
    """One grid cell, run ``repeats`` times; keeps the fastest repeat.

    Serving timings on a shared host are noisy — a background stall
    during any one run can swing a cell's tokens/sec by tens of percent,
    drowning the scaling signal the grid exists to measure.  Best-of-K is
    the standard antidote: the minimum-interference repeat is the closest
    observable to the machine's true throughput.  Tokens must not vary at
    all, so the repeats double as a determinism check: every repeat's
    ``token_digest`` must be identical or the cell fails outright.
    """
    from repro.serve.bench import run_scenario

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = None
    digests = set()
    for _ in range(repeats):
        rows, text = run_scenario(**params)
        digests.add(rows["token_digest"])
        if (
            best is None
            or rows["metrics"]["tokens_per_second"]
            > best[0]["metrics"]["tokens_per_second"]
        ):
            best = (rows, text)
    if len(digests) != 1:
        raise RuntimeError(
            f"token digests varied across {repeats} repeats of an identical "
            f"cell ({sorted(digests)}): serving is no longer deterministic"
        )
    rows, text = best
    rows["repeats"] = int(repeats)
    return rows, text


def jobs(
    quick: bool = True,
    seed: int = 0,
    scenarios=None,
    shards=DEFAULT_SHARDS,
    drivers=DEFAULT_DRIVERS,
    policies=DEFAULT_POLICIES,
    repeats: int = 3,
    pin_workers: bool = False,
    **params,
) -> list[Job]:
    """One serve cell per (scenario, policy, backend).

    The backend axis is ``reference`` plus, per driver, ``sharded:N`` for
    every ``N`` in ``shards``; all cells of a (scenario, policy) group
    share seed and traffic.  Each cell runs ``repeats`` times and reports its
    fastest repeat (see :func:`run_shard_cell`).  Extra ``params``
    (``model_name``, ``max_batch_size``, ``rate_scale``, ...) are
    forwarded into every cell and its cache key.
    """
    names = list(scenarios) if scenarios else list(DEFAULT_SCENARIOS)
    validate_scenarios(names)
    backends = ["reference"] + [
        f"sharded:{int(n)}:{driver}" + (":pin" if pin_workers else "")
        for driver in drivers
        for n in shards
    ]
    declared = []
    for scenario in names:
        for policy in policies:
            for backend in backends:
                declared.append(
                    Job(
                        name=f"shard[{scenario}/{policy}/{backend}]",
                        target="repro.shard.bench:run_shard_cell",
                        params={
                            "repeats": int(repeats),
                            "scenario": scenario,
                            "normalizer": "baseline",
                            "quick": bool(quick),
                            "policy": policy,
                            "backend": backend,
                            **params,
                        },
                        seed=seed,
                    )
                )
    return declared


def _parse_backend(backend: str):
    """Grouping info for a sharded row, ``None`` for reference rows.

    Returns ``(driver, label, is_twin)`` where ``label`` is the column
    name in ``shard_comparison`` (``"N=2"``) and ``is_twin`` marks the
    ``N=1`` baseline of its driver group.
    """
    text = str(backend)
    if text.startswith("sharded:"):
        n, driver, _pin = parse_shard_spec(text)
        return driver, f"N={n}", n == 1
    return None


def _digests_match(row, other):
    """Digest equality with ``other``; ``None`` when it is not in the grid."""
    if other is None:
        return None
    return row["token_digest"] == other["token_digest"]


def shard_comparison(results: list[dict]) -> dict:
    """Digest equality and scaling per ``scenario/policy/driver`` group.

    Each sharded row is compared against the twin of its own driver
    (``N=1`` — same scenario, policy, seed: identical traffic and
    identical fan-out machinery) and against the reference backend.  A
    ``False`` in either ``tokens_match`` field means the deterministic
    split broke bit-exactness, and the artifact itself proves it; ``None``
    means the grid has no row to compare against.
    """
    reference = {
        (row["scenario"], row["policy"]): row
        for row in results
        if _parse_backend(row["backend"]) is None
    }
    twins = {}
    for row in results:
        parsed = _parse_backend(row["backend"])
        if parsed and parsed[2]:
            twins[(row["scenario"], row["policy"], parsed[0])] = row
    comparison: dict[str, dict] = {}
    for row in results:
        parsed = _parse_backend(row["backend"])
        if parsed is None:
            continue
        driver, label, _ = parsed
        twin = twins.get((row["scenario"], row["policy"], driver))
        ref = reference.get((row["scenario"], row["policy"]))
        twin_tps = twin["metrics"]["tokens_per_second"] if twin else None
        cell = f"{row['scenario']}/{row['policy']}/{driver}"
        comparison.setdefault(cell, {})[label] = {
            "tokens_match": _digests_match(row, twin),
            "tokens_match_reference": _digests_match(row, ref),
            "tokens_per_second": row["metrics"]["tokens_per_second"],
            "twin_tokens_per_second": twin_tps,
            "tokens_per_second_ratio": (
                row["metrics"]["tokens_per_second"] / twin_tps
                if twin_tps
                else None
            ),
        }
    return comparison


def measure_pool_reuse(
    model_name: str = DEFAULT_MODEL,
    policy: str = "fp64-ref",
    backend: str = "sharded:2:process",
    seed: int = 0,
) -> dict:
    """Cold-fork vs warm-attach cost of the persistent worker pool.

    Builds the same model twice from ``seed`` (as two repeated bench
    engines would) and times ``prepare()`` on each: the first pays the
    full worker fork + shared-memory weight packing, the second attaches
    to the warm pool bundle and only rebuilds the driver-side compiled
    plan.  The pool is cleared afterwards so the measurement leaves no
    workers behind.
    """
    import numpy as np

    from repro.nn.config import get_config
    from repro.nn.executor import resolve_executor
    from repro.nn.model import OPTLanguageModel
    from repro.shard.pool import GLOBAL_POOL

    config = get_config(model_name)

    def build():
        model = OPTLanguageModel(
            config, rng=np.random.default_rng(seed), policy=policy
        )
        model.eval()
        return resolve_executor(backend, model)

    # Earlier bench cells may have left a content-identical bundle warm in
    # the pool, which would make the "cold" measurement warm too.
    GLOBAL_POOL.clear()
    cold_ex = build()
    started = time.perf_counter()
    cold_ex.prepare()
    cold = time.perf_counter() - started
    warm_ex = build()
    started = time.perf_counter()
    warm_ex.prepare()
    warm = time.perf_counter() - started
    reused = warm_ex.runtime_stats()["pool_attach_reused"]
    cold_ex.close()
    warm_ex.close()
    GLOBAL_POOL.clear()
    return {
        "backend": backend,
        "model": model_name,
        "policy": policy,
        "cold_prepare_s": cold,
        "warm_prepare_s": warm,
        "speedup": cold / warm if warm > 0 else None,
        "warm_attach_reused": bool(reused),
    }


def run_shard_bench(
    quick: bool = True,
    jobs_n: int = 1,
    seed: int = 0,
    out_path: str = "BENCH_shard.json",
    scenarios=None,
    shards=DEFAULT_SHARDS,
    drivers=DEFAULT_DRIVERS,
    policies=DEFAULT_POLICIES,
    model_name: str = DEFAULT_MODEL,
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
    rate_scale: float = DEFAULT_RATE_SCALE,
    repeats: int = 3,
    pin_workers: bool = False,
    prefix_caching: bool = False,
    max_blocks: int | None = None,
    tier_blocks: int | None = None,
    tier_ratio: float | None = None,
    tier_fmt: str | None = None,
    slo_aware: bool = False,
    cache_dir=None,
    use_cache: bool = False,
    no_cache: bool = False,
    stream=None,
) -> tuple[dict, str]:
    """Run the scenario × policy × (driver, shard count) grid, write ``out_path``.

    When the ``process`` driver is in the grid the pool-reuse measurement
    (:func:`measure_pool_reuse` on ``sharded:2:process``) is appended.
    Flag validation mirrors ``serve-bench``: unknown scenarios, precision
    presets, shard counts, or drivers raise a ``ValueError`` before any
    job runs (the CLI turns them into one-line usage errors).
    """
    stream = stream or sys.stdout
    shards = tuple(int(n) for n in shards)
    validate_shards(shards)
    validate_drivers(drivers)
    validate_policies(policies)
    if scenarios:
        validate_scenarios(scenarios)
    validate_tier(
        tier_blocks=tier_blocks, tier_ratio=tier_ratio, tier_fmt=tier_fmt,
        prefix_caching=prefix_caching, max_blocks=max_blocks,
    )
    engine_params = {}
    if prefix_caching:
        engine_params["prefix_caching"] = True
    if max_blocks is not None:
        engine_params["max_blocks"] = int(max_blocks)
    if tier_blocks is not None:
        engine_params["tier_blocks"] = int(tier_blocks)
    if tier_ratio is not None:
        engine_params["tier_ratio"] = float(tier_ratio)
    if tier_fmt is not None:
        engine_params["tier_fmt"] = tier_fmt
    if slo_aware:
        engine_params["slo_aware"] = True
    declared = jobs(
        quick=quick, seed=seed, scenarios=scenarios, shards=shards,
        drivers=drivers, policies=policies, repeats=int(repeats),
        pin_workers=bool(pin_workers),
        model_name=model_name, max_batch_size=int(max_batch_size),
        rate_scale=float(rate_scale), **engine_params,
    )
    cache = ResultCache(cache_dir) if use_cache else None
    outcomes = run_jobs(
        declared, max_workers=jobs_n, cache=cache, no_cache=no_cache,
        stream=sys.stderr,
    )

    results = [outcome.rows for outcome in outcomes]
    lines = [
        "scenario       normalizer   strategy      backend        tokens/s"
        "       TTFT p50 /    p99        ITL p50   queue   pool      prefix"
        "    preempt    speculation",
    ]
    lines += [outcome.text for outcome in outcomes]
    comparison = shard_comparison(results)
    payload = {
        "config": {
            "quick": bool(quick),
            "seed": int(seed),
            "scenarios": sorted({row["scenario"] for row in results}),
            "shards": list(shards),
            "pin_workers": bool(pin_workers),
            "drivers": list(drivers),
            "policies": list(policies),
            "model": model_name,
            "max_batch_size": int(max_batch_size),
            "rate_scale": float(rate_scale),
            "repeats": int(repeats),
            "prefix_caching": bool(prefix_caching),
            "max_blocks": max_blocks,
            "tier_blocks": tier_blocks,
            "tier_ratio": tier_ratio,
            "tier_fmt": tier_fmt,
            "slo_aware": bool(slo_aware),
        },
        "results": results,
        "shard_comparison": comparison,
    }
    if "process" in drivers:
        payload["pool_reuse"] = measure_pool_reuse(
            model_name=model_name,
            policy=policies[0],
            backend="sharded:2:process" + (":pin" if pin_workers else ""),
            seed=seed,
        )
        lines.append(
            f"pool reuse: cold prepare "
            f"{payload['pool_reuse']['cold_prepare_s'] * 1e3:.1f} ms, warm "
            f"{payload['pool_reuse']['warm_prepare_s'] * 1e3:.1f} ms "
            f"({payload['pool_reuse']['speedup']:.1f}x)"
        )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    mismatches = sum(
        1
        for group in comparison.values()
        for cell in group.values()
        if cell["tokens_match"] is False
        or cell["tokens_match_reference"] is False
    )
    lines.append(
        f"digest mismatches: {mismatches} "
        f"across {sum(len(g) for g in comparison.values())} sharded cells"
    )
    lines.append(f"wrote {out_path}")
    text = "\n".join(lines)
    stream.write(text + "\n")
    return payload, text
