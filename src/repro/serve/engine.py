"""The continuous-batching serve loop: admit, plan, forward, sample, retire.

:class:`ServeEngine` drives one model over a stream of
:class:`~repro.serve.request.Request` objects.  Each iteration mixes, in a
single left-padded ragged batch, the *prefill* chunks of admitted requests
with the *decode* rows of established ones
(:meth:`~repro.nn.model.OPTLanguageModel.forward_ragged`), samples from
every row that reached its next position, and immediately retires
finished sequences so their slot and KV blocks are reused on the next
step.  Every decode row feeds its last committed token and emits one
token per iteration.  Three scheduling features layer on top of the PR-2
loop:

* **Prefix caching** (``prefix_caching=True``): an admitted request first
  adopts pool blocks covering the longest cached prefix of its prompt
  (bumping refcounts) and prefills only the remainder; when its prefill
  completes, its own prompt blocks are published for later requests.
  Shared blocks are copy-on-write, so decode writes never leak between
  requests.
* **Chunked prefill** (``prefill_budget=N``): at most ``N`` prompt tokens
  are prefilled per iteration across the whole batch, so a long prompt
  streams in over several steps interleaved with decode rows instead of
  monopolizing an iteration.
* **Priority + preemption** (``max_blocks=M``): requests carry priority
  classes; when a bounded pool runs dry the scheduler preempts victims
  (lowest class, newest first), releasing their blocks and re-queueing
  them for a deterministic re-run.

**Exactness.**  Per request, the engine performs a sequence of chunked
cached forwards — and the chunked cached path is bit-identical to the
one-shot prefill (the chunked==prefill tests pin this under every
precision policy), while adopted prefix blocks hold *the same bytes* the
request would have written itself (K/V of positions ``0..n-1`` is a pure
function of token ids ``0..n-1``).  Combined with the ragged forward's
per-row bit-exactness, a request's greedy token stream is bit-identical
however it was batched, chunked, shared, preempted or re-run — the
headline property the serve test suite pins down, per precision policy.

**Clock.**  The engine keeps a *virtual clock* on the arrival timeline:
it advances by the measured wall time of each step, and when no work is
pending it jumps directly to the next arrival instead of sleeping.
Latency metrics therefore reflect compute and queueing faithfully, while
idle spans are never slept through (they remain part of the timeline, so
throughput-over-makespan is delivered throughput under that traffic).
Pass a custom ``timer`` for deterministic tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.nn.executor import resolve_executor
from repro.nn.generation import select_token
from repro.nn.model import OPTLanguageModel
from repro.serve.kv_pool import BlockKVPool
from repro.serve.metrics import MetricsRecorder
from repro.serve.request import CompletedRequest, Request, RequestState
from repro.serve.scheduler import Scheduler, StepPlan


@dataclass
class ServeReport:
    """Everything a serve run produced."""

    completed: list[CompletedRequest]
    metrics: dict
    pool_stats: dict
    #: The recorder that produced ``metrics``, kept so callers can read
    #: the raw per-step and per-token samples behind the already-reduced
    #: summary.  ``None`` on hand-built reports.
    recorder: MetricsRecorder | None = field(default=None, repr=False, compare=False)
    #: Lazily built request_id -> CompletedRequest map backing :meth:`by_id`.
    _index: dict[str, CompletedRequest] | None = field(
        default=None, repr=False, compare=False
    )

    def by_id(self, request_id: str) -> CompletedRequest:
        if self._index is None:
            self._index = {c.request_id: c for c in self.completed}
        return self._index[request_id]


class ServeEngine:
    """Continuous-batching server around one model.

    Parameters
    ----------
    model:
        The language model (placed in eval mode).
    max_batch_size:
        Decode slots per step.
    block_size / initial_blocks:
        KV pool geometry (see :class:`~repro.serve.kv_pool.BlockKVPool`).
    prefix_caching:
        Share prompt-prefix KV blocks across requests through the pool's
        prefix index (copy-on-write protected; off by default).
    prefill_budget:
        Per-iteration cap on prefilled prompt tokens, summed over the
        batch (``None`` = whole prompts in one chunk).
    max_blocks:
        Pool capacity ceiling; enables preemption under exhaustion
        (``None`` = unbounded growth, never preempts).
    tier_blocks / tier_ratio:
        Cold-tier capacity: an absolute block count, or a fraction of
        ``max_blocks`` (``tier_ratio`` requires a bounded pool; at most
        one of the two may be given).  Under pool pressure, demotable
        cached prefixes are re-quantized into the tier and promoted back
        on a hit instead of being recomputed — see
        :class:`~repro.serve.kv_pool.BlockKVPool`.  Off by default.
    tier_fmt:
        Cold-tier storage format; ``None`` uses the policy's
        ``kv_cache_fmt`` (lossless, so hits promote).  An explicitly
        different format makes the tier lossy: hits are refused and
        re-prefilled.  Served tokens are bit-identical either way.
    slo_aware:
        Give the scheduler the tier cost model so preemption victims are
        priced by recompute time (within the lowest priority class)
        instead of the classic newest-first order.  Off by default.
    timer:
        Monotonic-seconds callable used to measure step durations
        (default :func:`time.perf_counter`); inject a fake for
        deterministic tests.
    backend:
        Execution backend: a :class:`~repro.nn.executor.ModelExecutor`
        instance or registered name (``"reference"`` default,
        ``"compiled"``).  Backends change tokens/sec only — never a
        single served token.
    """

    def __init__(
        self,
        model: OPTLanguageModel,
        max_batch_size: int = 8,
        block_size: int = 16,
        initial_blocks: int = 64,
        prefix_caching: bool = False,
        prefill_budget: int | None = None,
        max_blocks: int | None = None,
        timer=None,
        backend: str | None = None,
        tier_blocks: int | None = None,
        tier_ratio: float | None = None,
        tier_fmt: str | None = None,
        slo_aware: bool = False,
    ) -> None:
        model.eval()
        self.model = model
        self.executor = resolve_executor(backend, model)
        self.backend = self.executor.name
        self.prefix_caching = bool(prefix_caching)
        if max_blocks is not None:
            # A bound tighter than the default preallocation just means a
            # smaller pool, not a configuration error.
            initial_blocks = min(initial_blocks, max_blocks)
        if tier_ratio is not None:
            if tier_blocks is not None:
                raise ValueError("give tier_blocks or tier_ratio, not both")
            if not 0.0 <= tier_ratio <= 1.0:
                raise ValueError(f"tier_ratio must be in [0, 1], got {tier_ratio}")
            if max_blocks is None:
                raise ValueError("tier_ratio requires max_blocks")
            tier_blocks = round(max_blocks * float(tier_ratio))
        cost_model = None
        if tier_blocks or slo_aware:
            from repro.serve.costs import TierCostModel

            cost_model = TierCostModel.for_model(model, tier_fmt=tier_fmt)
        self.pool = BlockKVPool.for_model(
            model,
            block_size=block_size,
            initial_blocks=initial_blocks,
            max_blocks=max_blocks,
            prefix_caching=prefix_caching,
            tier_blocks=tier_blocks,
            tier_fmt=tier_fmt,
            tier_cost_model=cost_model,
        )
        self.scheduler = Scheduler(
            self.pool,
            max_batch_size=max_batch_size,
            prefill_budget=prefill_budget,
            max_position=model.config.max_position,
            cost_model=cost_model if slo_aware else None,
        )
        self.timer = timer or time.perf_counter
        self._recorder: MetricsRecorder | None = None

    # -- the stepwise interface ----------------------------------------------------
    def begin(self) -> None:
        """Start a serve session: fresh metrics, ready for external stepping.

        :meth:`serve` calls this itself and then drives the engine
        through :meth:`submit` / :meth:`step_at`; an external driver that
        owns the clock and the arrival stream does the same.
        """
        self._recorder = MetricsRecorder()

    @property
    def has_work(self) -> bool:
        """True while any request is queued or holds a decode slot."""
        return self.scheduler.has_work

    def submit(self, request: Request) -> None:
        """Hand one arrived request to the scheduler's admission queue.

        Raises :class:`ValueError`, and enqueues nothing, when a prompt
        token id lies outside the model's vocabulary: admitted, it would
        fail the embedding lookup of a later step and take every request
        batched with it down too.  A stop token outside the vocabulary is
        rejected the same way, since no step could ever produce it.  So is
        a request whose KV footprint exceeds a bounded pool even with
        every other request preempted: admitted, its ``reserve`` would
        raise :class:`~repro.serve.kv_pool.PoolExhaustedError` out of the
        step and stop every request in the run.
        """
        prompt = request.prompt_ids
        vocab_size = self.model.config.vocab_size
        if prompt.min() < 0 or prompt.max() >= vocab_size:
            raise ValueError(
                f"request {request.request_id!r}: prompt token id out of range "
                f"[0, {vocab_size})"
            )
        bad_stops = [t for t in request.stop_tokens if not 0 <= t < vocab_size]
        if bad_stops:
            raise ValueError(
                f"request {request.request_id!r}: stop token id(s) {bad_stops} "
                f"out of range [0, {vocab_size})"
            )
        max_blocks = self.pool.max_blocks
        needed = self._footprint_blocks(request)
        if max_blocks is not None and needed > max_blocks:
            raise ValueError(
                f"request {request.request_id!r}: needs {needed} KV blocks, "
                f"more than the pool's max_blocks={max_blocks}"
            )
        self.scheduler.enqueue(request)

    def _footprint_blocks(self, request: Request) -> int:
        """Most pool blocks the request can hold at once, in the worst case.

        The cache holds the admitted prompt window and every generated
        token but the last, which is never fed back; at ``max_position``
        the window slides and the blocks go back.  With prefix caching the
        first write into a shared partial block forks it while the shared
        copy is still held, so the prompt's blocks need one more: an
        adopted tail forks when prefill writes past it, the prompt's own
        published tail when decode does.
        """
        bs = self.pool.block_size
        max_pos = self.model.config.max_position
        prompt = min(int(request.prompt_ids.size), max_pos)
        written = min(prompt + request.max_new_tokens - 1, max_pos)
        blocks = -(-written // bs)  # ceil division
        if self.prefix_caching and bs > 1 and (prompt > 1 or written > prompt):
            blocks = max(blocks, -(-prompt // bs) + 1)
        return blocks

    def step_at(self, now: float) -> float:
        """Run one iteration with the virtual clock at ``now``.

        Admits from the queue, plans, reserves (possibly preempting), runs
        the ragged forward, and commits tokens at ``now + elapsed``.
        Returns the measured ``elapsed`` seconds so the caller advances
        its clock by exactly the time this step consumed.  Requires
        :meth:`begin`.
        """
        recorder = self._recorder
        if recorder is None:
            raise RuntimeError("call begin() before step_at()")
        scheduler = self.scheduler
        admitted = scheduler.admit(now)
        if self.prefix_caching:
            for state in admitted:
                # Cap adoption below the full window: the final prompt
                # position must be computed to produce the logits the
                # first sampled token comes from.
                state.kv.adopt_prefix(
                    state.prompt_window,
                    max_tokens=len(state.prompt_window) - 1,
                )
                # SequenceKV.adopted_tokens is the source of truth;
                # mirror it onto the state because the kv object dies
                # before completion (sliding window, preemption).
                state.prefill_pos = state.adopted_tokens = state.kv.adopted_tokens
                if state.kv.cold_tokens_restored or state.kv.cold_tokens_refused:
                    # Tier traffic is recorded at adoption: the pool-side
                    # promotion (or refusal) already happened, whatever
                    # later becomes of this run.
                    recorder.record_cold(
                        state.kv.cold_tokens_restored,
                        state.kv.cold_tokens_refused,
                    )
        plan = scheduler.plan()
        for victim in scheduler.reserve(plan):
            recorder.record_preemption(victim.request.request_id, now)

        started = self.timer()
        emitted = self._step(plan)
        elapsed = self.timer() - started
        now += elapsed

        finished = 0
        for state, token in emitted:
            first_token = state.produced == 0
            state.record_token(token, now)
            if first_token and state.adopted_tokens:
                # Count adopted positions only once the prefill they
                # shortened actually completed — a run preempted
                # mid-prefill never inflates the hit rate, and a
                # re-admitted run counts its own (fresh) adoption.
                recorder.record_adoption(state.adopted_tokens)
            self._after_token(state)
            if state.finish_reason is not None:
                scheduler.retire(state)
                completed = self._completed(state)
                recorder.record_completion(completed, state.token_times)
                finished += 1
        recorder.record_step(
            queue_depth=scheduler.queue_depth,
            active=scheduler.active_count + finished,
            elapsed=elapsed,
            tokens=len(emitted),
            prefill_tokens=plan.prefill_tokens,
        )
        return elapsed

    def report(self) -> ServeReport:
        """The session's report so far (terminal once :attr:`has_work` clears)."""
        recorder = self._recorder
        if recorder is None:
            raise RuntimeError("call begin() before report()")
        return ServeReport(
            completed=recorder.completed,
            metrics=recorder.summary(max_batch_size=self.scheduler.max_batch_size),
            pool_stats=self.pool.stats().as_dict(),
            recorder=recorder,
        )

    # -- the serve loop ------------------------------------------------------------
    def serve(self, requests: list[Request]) -> ServeReport:
        """Serve a workload to completion and return tokens plus metrics."""
        pending = sorted(requests, key=lambda r: r.arrival_time)
        self.begin()
        now = 0.0
        cursor = 0

        while cursor < len(pending) or self.scheduler.has_work:
            # Deliver arrivals whose timestamp has passed; when completely
            # idle, jump the virtual clock to the next arrival.
            while cursor < len(pending) and pending[cursor].arrival_time <= now:
                self.submit(pending[cursor])
                cursor += 1
            if not self.scheduler.has_work:
                now = pending[cursor].arrival_time
                continue
            now += self.step_at(now)

        return self.report()

    # -- one iteration -------------------------------------------------------------
    def _step(self, plan: StepPlan) -> list[tuple[RequestState, int]]:
        """Run one planned iteration; returns ``(state, sampled token)`` pairs.

        Prefill chunks and decode rows share one ragged forward.  A row
        only yields a token when it reached its next position: decode rows
        always do, prefill rows only on their final chunk (earlier chunks
        write KV and discard logits — exactly the work a one-shot prefill
        performs for those positions).
        """
        prefill_chunk = {id(state): take for state, take in plan.prefill}
        decode_ids = {id(state) for state in plan.decode}
        max_pos = self.model.config.max_position

        ragged: list[tuple[RequestState, np.ndarray]] = []
        for state in self.scheduler.active():
            if id(state) in prefill_chunk:
                take = prefill_chunk[id(state)]
                chunk = np.asarray(
                    state.prompt_window[state.prefill_pos : state.prefill_pos + take],
                    dtype=np.int64,
                )
                ragged.append((state, chunk))
            elif id(state) in decode_ids:
                ragged.append((state, np.asarray(state.tokens[-1:], dtype=np.int64)))

        emitted: list[tuple[RequestState, int]] = []
        if ragged:
            new_lens = np.asarray([chunk.size for _, chunk in ragged], dtype=np.int64)
            width = int(new_lens.max())
            token_matrix = np.zeros((len(ragged), width), dtype=np.int64)
            for row, (_, chunk) in enumerate(ragged):
                token_matrix[row, width - chunk.size :] = chunk
            caches = [state.kv for state, _ in ragged]
            logits = self.executor.forward_ragged(token_matrix, caches, new_lens)
            for row, (state, chunk) in enumerate(ragged):
                if id(state) in prefill_chunk:
                    state.prefill_pos += chunk.size
                    if state.needs_prefill:
                        continue
                    if self.prefix_caching:
                        # The whole prompt window is committed and its
                        # blocks are now append-only: publish them.
                        state.kv.register_prefix(state.prompt_window)
                emitted.append((state, self._sample(state, logits[row, -1])))
        for state in plan.slid:
            context = np.asarray(state.tokens[-max_pos:], dtype=np.int64)[None, :]
            row_logits = self.executor.forward(context)[0, -1]
            emitted.append((state, self._sample(state, row_logits)))
        return emitted

    def _sample(self, state: RequestState, logits: np.ndarray) -> int:
        request = state.request
        return select_token(logits, request.temperature, request.top_k, state.rng)

    def _after_token(self, state: RequestState) -> None:
        """Finish-reason and sliding-window transitions, mirroring generate."""
        request = state.request
        if state.tokens[-1] in state.stop_set:
            state.finish_reason = "stop"
        elif state.produced >= request.max_new_tokens:
            state.finish_reason = "length"
        elif not state.slid and state.kv.seq_len >= self.model.config.max_position:
            # The window slid: from now on every step re-runs the trailing
            # window (generate's BLAS tail).  The KV history is dead weight —
            # release the blocks immediately so other requests reuse them.
            state.slid = True
            state.kv.release()
            state.kv = None

    def _completed(self, state: RequestState) -> CompletedRequest:
        request = state.request
        return CompletedRequest(
            request_id=request.request_id,
            tokens=np.asarray(state.tokens, dtype=np.int64),
            prompt_len=int(request.prompt_ids.size),
            generated=state.produced,
            finish_reason=state.finish_reason,
            arrival_time=request.arrival_time,
            admitted_time=state.admitted_time,
            first_token_time=state.token_times[0],
            finish_time=state.token_times[-1],
            priority=request.priority,
            prefix_tokens_reused=state.adopted_tokens,
            preemptions=self.scheduler.preemptions_of(request.request_id),
        )
