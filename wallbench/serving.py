"""The two serving workloads, driven through ``ServeEngine``'s stepwise API.

The benchmark keeps its own clock.  Each ``step_at`` call advances it by
the call's full wall duration (admission, planning, reservation, forward,
sampling and commit), and when the engine is idle it jumps to the next
request's due time instead of sleeping.  The engine's own clock, which
counts only the forward, is set to the step index instead, so each token
stamp names the step that produced it, and TTFT and TPOT are read off the
benchmark clock at the end of that step.  TTFT is timed from the request's
due time.

Which requests a step sees is decided on a nominal clock
(:data:`NOMINAL_STEP_S` per step), so the batches depend on the seed alone.
The first round of a request list records how many requests were submitted
before each step, and later rounds replay that record: every step runs the
same batch on every repeat, and its times can be compared across repeats.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracing
from repro.nn.config import get_config
from repro.nn.executor import resolve_executor
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve.engine import ServeEngine
from repro.serve.workload import generate_workload

MODEL = "opt-350m-sim"
MODEL_SEED = 0  # weights are part of the system under test, not an input
MAX_BATCH_SIZE = 16
GOLDEN_SEED = 0
#: Served requests re-decoded with ``generate()`` per run.
SAMPLE_CHECKS = 2
#: Latency limits of ``slo_attainment``; also stated in BENCHMARK.json.
SLO_TTFT_MS = 250.0
SLO_TPOT_MS = 50.0

#: Step duration of the nominal clock that decides, open loop, which
#: requests each step sees: the batches then depend on the seed alone, not on
#: how fast the host ran that round.  Near a chat step's time on a 2-core
#: x86-64 host; every reported time is measured.
NOMINAL_STEP_S = 1.5e-3
#: The engine's clock reads ``step index * _STEP_STAMP``; a step's forward
#: takes far less, so its token stamps fall before the next step's.
_STEP_STAMP = 1e3

_clock = time.perf_counter


@dataclass(frozen=True)
class ServingSpec:
    name: str
    scenario: str
    policy: str
    iterl2norm: bool
    requests_per_round: int
    warmup_requests: int
    offline: bool
    rate_scale: float = 1.0
    prefix_caching: bool = False
    max_blocks: int | None = None


WORKLOADS = {
    spec.name: spec
    for spec in (
        # Offline batch: every request due at t=0, KV pool append-only.  One
        # batch of 16 (max_batch_size), so a round is short and each step is
        # repeated often within a run.
        ServingSpec(
            name="decode-bf16-iterl2",
            scenario="codegen",
            policy="bf16-fp8kv",
            iterl2norm=True,
            requests_per_round=16,
            warmup_requests=16,
            offline=True,
        ),
        # Open loop at 1/64 of the scenario's nominal rate (2.2 req/s), where
        # requests seldom share a step: at 17.5 req/s the batches follow the
        # nominal clock while the measured steps do not, and a host running
        # 1.4x slow queued the TTFT tail to 2x.  80 three-turn sessions, a
        # round short enough that each step repeats ~14 times in 30 s.  24
        # blocks force prefix eviction.
        ServingSpec(
            name="chat-prefix-fp64",
            scenario="chat-multiturn",
            policy="fp64-ref",
            iterl2norm=False,
            requests_per_round=240,
            warmup_requests=90,
            offline=False,
            rate_scale=0.015625,
            prefix_caching=True,
            max_blocks=24,
        ),
    )
}


def build_model(spec: ServingSpec) -> OPTLanguageModel:
    model = OPTLanguageModel(
        get_config(MODEL), rng=np.random.default_rng(MODEL_SEED), policy=spec.policy
    )
    model.eval()
    if spec.iterl2norm:
        model.replace_layernorm(
            "iterl2norm", fmt=model.policy.variant_normalizer_fmt, num_steps=5
        )
    return model


def round_requests(spec: ServingSpec, seed: int, count: int) -> list:
    """The fully seeded request list of one round."""
    requests = generate_workload(
        spec.scenario,
        num_requests=count,
        vocab_size=get_config(MODEL).vocab_size,
        seed=seed,
        rate_scale=spec.rate_scale,
    )
    if spec.offline:
        requests = [dataclasses.replace(r, arrival_time=0.0) for r in requests]
    return sorted(requests, key=lambda r: r.arrival_time)


def token_digest(completed) -> str:
    """Order-independent checksum of every request's full token stream."""
    crc = 0
    for c in sorted(completed, key=lambda c: c.request_id):
        crc = zlib.crc32(c.request_id.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(c.tokens, dtype=np.int64).tobytes(), crc)
    return f"{crc:08x}"


def step_ends(requests, submitted, step_s) -> list[float]:
    """Benchmark-clock end time of each step, for the given step durations.

    A step starts when the previous one ended, or once the last request
    submitted before it was due, whichever is later.
    """
    clock, ends = 0.0, []
    for due, took in zip(submitted, step_s):
        if due:
            clock = max(clock, requests[due - 1].arrival_time)
        clock += took
        ends.append(clock)
    return ends


@dataclass
class Round:
    requests: list
    completed: list
    submitted: list[int]  # requests submitted before each step, cumulative
    step_s: list[float]  # wall duration of each step_at call
    admit_step: list[int]  # per completed request: step that admitted it
    first_step: list[int]  # per completed request: step of its first token
    last_step: list[int]  # per completed request: step of its last token
    report: object

    @property
    def step_end(self) -> list[float]:
        """Benchmark-clock end time of each step, on the measured durations."""
        return step_ends(self.requests, self.submitted, self.step_s)

    @property
    def busy_s(self) -> float:
        return sum(self.step_s)

    @property
    def makespan_s(self) -> float:
        return self.step_end[-1] - self.requests[0].arrival_time

    @property
    def digest(self) -> str:
        return token_digest(self.completed)

    @property
    def tokens(self) -> int:
        return sum(c.generated for c in self.completed)

    @property
    def rows(self) -> int:
        """Activation rows the forward computed: prefill plus decode positions."""
        decode = sum(c.generated - 1 for c in self.completed)
        return self.report.metrics["prefill_tokens_computed"] + decode

    def latencies(self, step_end=None):
        """``(request_id, ttft_s, tpot_s or None)`` per completed request,
        on the given step end times (default: the measured ones)."""
        ends = self.step_end if step_end is None else step_end
        for c, first, last in zip(self.completed, self.first_step, self.last_step):
            tpot = (ends[last] - ends[first]) / (c.generated - 1) if c.generated > 1 else None
            yield c.request_id, ends[first] - c.arrival_time, tpot

    def queue_waits(self) -> list[float]:
        """Per completed request: due time to the start of its admitting step."""
        ends = self.step_end
        return [
            ends[step] - self.step_s[step] - c.arrival_time
            for c, step in zip(self.completed, self.admit_step)
        ]


def serve_round(spec, model, executor, requests, tracer=None, schedule=None) -> Round:
    """Serve one request list, open loop or, given a ``schedule``, as a replay.

    Open loop, each step is preceded by the submission of every request due
    by its start on a nominal clock, which advances :data:`NOMINAL_STEP_S`
    per step and jumps to the next due time when the engine is idle.  A
    replay submits, before step ``i``, the first ``schedule[i]`` requests:
    pass an earlier round's ``submitted`` to give every step that round's
    batch.  Either way the engine's clock reads the step index, so each token
    stamp names the step that produced it.
    """
    engine = ServeEngine(
        model,
        max_batch_size=MAX_BATCH_SIZE,
        backend=executor,
        prefix_caching=spec.prefix_caching,
        max_blocks=spec.max_blocks,
    )
    if tracer is not None:
        tracing.instrument_engine(tracer, engine)
    engine.begin()
    nominal = 0.0
    submitted: list[int] = []
    walls: list[float] = []
    cursor, count = 0, len(requests)
    while cursor < count or engine.has_work:
        if schedule is None:
            due = cursor
            while due < count and requests[due].arrival_time <= nominal:
                due += 1
            if due == cursor and not engine.has_work:
                nominal = requests[cursor].arrival_time
                continue
        elif len(submitted) < len(schedule):
            due = schedule[len(submitted)]
        else:
            raise RuntimeError(f"{spec.name}: replay outran its schedule")
        for request in requests[cursor:due]:
            engine.submit(request)
        cursor = due
        record = tracer.begin("serve.engine.step") if tracer is not None else None
        start = _clock()
        engine.step_at(len(submitted) * _STEP_STAMP)
        wall = _clock() - start
        if record is not None:
            tracer.end(record)
        submitted.append(due)
        walls.append(wall)
        nominal += NOMINAL_STEP_S
    report = engine.report()

    def step_of(stamp: float) -> int:
        return int(stamp // _STEP_STAMP)

    return Round(
        requests=requests,
        completed=report.completed,
        submitted=submitted,
        step_s=walls,
        admit_step=[step_of(c.admitted_time) for c in report.completed],
        first_step=[step_of(c.first_token_time) for c in report.completed],
        last_step=[step_of(c.finish_time) for c in report.completed],
        report=report,
    )


def check_against_generate(model, served: Round, picks: int, seed: int) -> int:
    """Re-decode ``picks`` served requests with ``generate()``; count mismatches."""
    by_id = {r.request_id: r for r in served.requests}
    order = np.random.default_rng(seed).permutation(len(served.completed))[:picks]
    mismatches = 0
    for index in order:
        c = served.completed[int(index)]
        r = by_id[c.request_id]
        expected = generate(
            model,
            r.prompt_ids,
            max_new_tokens=r.max_new_tokens,
            temperature=r.temperature,
            top_k=r.top_k,
            rng=np.random.default_rng(r.seed),
            stop_tokens=r.stop_tokens,
        )
        if not np.array_equal(expected, c.tokens):
            print(f"wallbench: {c.request_id} differs from generate()", file=sys.stderr)
            mismatches += 1
    return mismatches


def _setup(spec: ServingSpec, golden: str | None):
    """Build model and compiled plan, then warm up on the golden round."""
    start = _clock()
    model = build_model(spec)
    executor = resolve_executor("compiled", model)
    warm = serve_round(
        spec, model, executor, round_requests(spec, GOLDEN_SEED, spec.warmup_requests)
    )
    seconds = _clock() - start
    ok = warm.digest == golden and len(warm.completed) == len(warm.requests)
    if not ok:
        print(
            f"wallbench: {spec.name} golden digest {warm.digest} != stored {golden}",
            file=sys.stderr,
        )
    return model, executor, seconds, len(warm.requests), ok


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


SERVE_COUNTERS = (
    "serve.scheduler.preemptions",
    "serve.scheduler.queue_wait_p50_ms",
    "serve.kv_pool.prefix_hit_rate",
    "serve.kv_pool.cow_forks",
    "serve.kv_pool.prefix_evictions",
    "serve.kv_pool.recompute_tokens",
)


def serve_extras(served: Round) -> dict[str, float]:
    """Scheduler and KV-pool counters of one round, from its report."""
    completed = served.completed
    prompt = sum(c.prompt_len for c in completed)
    reused = sum(c.prefix_tokens_reused for c in completed)
    needed = sum(
        min(c.prompt_len, get_config(MODEL).max_position) - c.prefix_tokens_reused
        for c in completed
    )
    pool = served.report.pool_stats
    return {
        "serve.scheduler.preemptions": served.report.metrics["preempted_count"],
        "serve.scheduler.queue_wait_p50_ms": 1e3 * _pct(served.queue_waits(), 50),
        "serve.kv_pool.prefix_hit_rate": reused / prompt if prompt else 0.0,
        "serve.kv_pool.cow_forks": pool["cow_forks"],
        "serve.kv_pool.prefix_evictions": pool["prefix_evictions"],
        "serve.kv_pool.recompute_tokens": served.report.metrics["prefill_tokens_computed"]
        - needed,
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    golden: dict,
    setups: int = 5,
    round_size: int | None = None,
    trace_dir: Path | None = None,
) -> dict:
    """One run.  ``setups // 2`` of the set-ups follow the timed rounds, so
    their median spans the run rather than one phase of a shared host."""
    spec = WORKLOADS[name]
    round_size = round_size or spec.requests_per_round
    attempted = failed = 0
    setup_s = []

    def set_up():
        nonlocal attempted, failed
        model, executor, took, warm_count, ok = _setup(spec, golden.get(name))
        setup_s.append(took)
        attempted += warm_count
        failed += 0 if ok else warm_count
        return model, executor

    for _ in range(setups - setups // 2):
        model, executor = set_up()
    if trace:
        out = _traced(spec, model, executor, seed, seconds, round_size, trace_dir)
    else:
        out = _timed(spec, model, executor, seed, seconds, round_size)
        for _ in range(setups // 2):
            set_up()
        out["metrics"]["setup_s"] = statistics.median(setup_s)
    failed += check_against_generate(model, out.pop("checked"), SAMPLE_CHECKS, seed)
    attempted += out.pop("attempted")
    failed += out.pop("failed")
    out["detail"]["setup_s_each"] = setup_s
    return {"attempted": attempted, "failed": failed, **out}


def _timed(spec, model, executor, seed, seconds, round_size) -> dict:
    """Serve the seed's request list round after round until ``seconds`` pass.

    A shared host alternates between fast and slow phases lasting seconds,
    and a slow phase stretches every timing it covers.  So each timing is the
    best over repeats of identical work.  The first round is served open loop
    and every later round replays its submissions, so step ``i`` runs the
    same batch on every repeat.  Each step keeps its best time, and every
    metric is read off the timeline those best steps compose
    (:func:`step_ends`).
    """
    requests = round_requests(spec, seed * 1000, round_size)
    first: Round | None = None
    best: np.ndarray | None = None
    rounds = attempted = failed = 0
    deadline = _clock() + seconds
    while True:
        rounds += 1
        attempted += len(requests)
        schedule = first.submitted if first is not None else None
        try:
            served = serve_round(spec, model, executor, requests, schedule=schedule)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            served = None
            failed += len(requests)
        if served is not None and first is not None and (
            served.digest != first.digest or served.submitted != first.submitted
        ):
            print(f"wallbench: {spec.name} repeat differs from the first", file=sys.stderr)
            failed += len(requests)
        elif served is not None:
            failed += len(requests) - len(served.completed)
            first = first or served
            steps = np.asarray(served.step_s)
            best = steps if best is None else np.minimum(best, steps)
        if _clock() >= deadline:
            break
    if first is None:
        raise RuntimeError(f"{spec.name}: every round failed")

    ttft, tpot, met = [], [], 0
    for _, ttft_s, tpot_s in first.latencies(step_ends(requests, first.submitted, best)):
        ttft.append(ttft_s)
        if tpot_s is not None:
            tpot.append(tpot_s)
        met += ttft_s * 1e3 <= SLO_TTFT_MS and (tpot_s or 0.0) * 1e3 <= SLO_TPOT_MS
    busy = float(best.sum())
    metrics = {
        "tokens_per_s": first.tokens / busy,
        "rows_per_s": first.rows / busy,
        "ttft_p50_ms": 1e3 * _pct(ttft, 50),
        "ttft_p90_ms": 1e3 * _pct(ttft, 90),
        "tpot_p50_ms": 1e3 * _pct(tpot, 50),
        "tpot_p90_ms": 1e3 * _pct(tpot, 90),
        "slo_attainment": met / len(requests),
    }
    detail = {
        "rounds": rounds,
        "requests_per_round": round_size,
        "steps": len(best),
        "ttft_samples": len(ttft),
        "tpot_samples": len(tpot),
        # Bound by the arrival rate on the open-loop workload.
        "delivered_tokens_per_s": first.tokens / first.makespan_s,
        "digest": first.digest,
        "slo_limits_ms": {"ttft": SLO_TTFT_MS, "tpot": SLO_TPOT_MS},
        **serve_extras(first),
    }
    return {
        "metrics": metrics,
        "detail": detail,
        "checked": first,
        "attempted": attempted,
        "failed": failed,
    }


def _traced(spec, model, executor, seed, seconds, round_size, trace_dir) -> dict:
    """Alternate untraced and traced replays of one fixed request list."""
    requests = round_requests(spec, seed * 1000, round_size)
    base = serve_round(spec, model, executor, requests)
    schedule = base.submitted
    traced_executor = resolve_executor("compiled", model)
    tracer = tracing.Tracer()
    # The first traced round builds the traced executor's plan; discarded.
    with tracing.instrument(tracer, model):
        serve_round(spec, model, traced_executor, requests, tracer, schedule)

    attempted, failed = len(requests), 0
    untraced_s, traced_s, layers = [], [], []
    deadline = _clock() + seconds
    while True:
        plain = serve_round(spec, model, executor, requests, schedule=schedule)
        tracer.reset()
        with tracing.instrument(tracer, model):
            traced = serve_round(spec, model, traced_executor, requests, tracer, schedule)
        attempted += 2 * len(requests)
        for served in (plain, traced):
            if served.digest != base.digest:
                print(f"wallbench: {spec.name} traced digest differs", file=sys.stderr)
                failed += len(requests)
        untraced_s.append(plain.busy_s)
        traced_s.append(traced.busy_s)
        layers.append({**tracing.layer_metrics(tracer, traced.busy_s), **serve_extras(traced)})
        if _clock() >= deadline:
            break
    if trace_dir is not None:
        tracer.dump(trace_dir / f"trace-{spec.name}.jsonl")
    metrics = {key: statistics.median(d[key] for d in layers) for key in layers[0]}
    metrics["bench.tracing_overhead"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    detail = {
        "pairs": len(layers),
        "digest": base.digest,
        "untraced_busy_s": untraced_s,
        "traced_busy_s": traced_s,
    }
    return {
        "metrics": metrics,
        "detail": detail,
        "checked": base,
        "attempted": attempted,
        "failed": failed,
    }
