"""The continuous-batching serve loop: admit, plan, forward, sample, retire.

:class:`ServeEngine` drives one model over a stream of
:class:`~repro.serve.request.Request` objects.  Each iteration mixes, in a
single left-padded ragged batch, the *prefill* chunks of admitted requests
with the *decode* rows of established ones
(:meth:`~repro.nn.model.OPTLanguageModel.forward_ragged`), samples from
every row that reached its next position, and immediately retires
finished sequences so their slot and KV blocks are reused on the next
step.  A pluggable :class:`~repro.serve.decode.DecodeStrategy` decides
how many tokens a decode row may emit per iteration: the default
:class:`~repro.serve.decode.GreedyOneToken` reproduces the classic
one-token loop, while :class:`~repro.serve.decode.PromptLookupSpeculator`
feeds each row's last committed token *plus K draft tokens* through the
same ragged forward, greedily verifies them position by position, emits
the accepted prefix plus one correction token, and rolls the row's KV
back past the rejected tail (:meth:`~repro.serve.kv_pool.SequenceKV
.rollback`) — several tokens per model step, byte-identical output.
Three scheduling features layer on top of the PR-2 loop:

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
function of token ids ``0..n-1``).  Speculation preserves this: the
verify forward computes position ``j``'s logits with the cache holding
exactly the tokens before ``j``, acceptance compares the draft against
the greedy argmax there, and rejected positions are rolled back — so the
emitted tokens are precisely the sequential greedy stream, just batched
into fewer model steps.  Combined with the ragged forward's per-row
bit-exactness, a request's greedy token stream is bit-identical however
it was batched, chunked, shared, preempted, re-run, or speculated — the
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
from repro.serve.decode import DecodeStrategy, resolve_strategy
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


@dataclass
class StepOutcome:
    """What one engine iteration produced, before commit bookkeeping.

    ``emitted`` pairs each state that reached its next position with the
    tokens it emits this step — a single sampled token on the classic
    path, the accepted-draft-plus-correction run under speculation.  The
    counters feed the speculation metrics: ``draft_proposed`` /
    ``draft_accepted`` count draft tokens verified this step, and
    ``decode_rows`` / ``decode_tokens`` measure tokens-per-decode-row
    (exactly 1.0 on the one-token path).
    """

    emitted: list[tuple[RequestState, list[int]]] = field(default_factory=list)
    draft_proposed: int = 0
    draft_accepted: int = 0
    decode_rows: int = 0
    decode_tokens: int = 0

    @property
    def tokens(self) -> int:
        return sum(len(run) for _, run in self.emitted)


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
    decode_strategy:
        A :class:`~repro.serve.decode.DecodeStrategy` instance or
        registered name (``"one-token"`` default, ``"prompt-lookup"``)
        controlling how many tokens a decode row may emit per iteration.
        Speculative strategies change step counts and throughput only —
        never a single served token.
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
        decode_strategy: DecodeStrategy | str | None = None,
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
        self.decode_strategy = resolve_strategy(decode_strategy)
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
            decode_strategy=self.decode_strategy,
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
        rejected the same way, since no step could ever produce it.
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
        self.scheduler.enqueue(request)

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
        outcome = self._step(plan)
        elapsed = self.timer() - started
        now += elapsed

        finished = 0
        for state, run in outcome.emitted:
            first_tokens = state.produced == 0
            for token in run:
                # All tokens of a speculative run land at the same
                # virtual-clock instant: they were produced by one
                # model step (inter-token gaps within a run are 0).
                state.record_token(token, now)
            if first_tokens and state.adopted_tokens:
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
            tokens=outcome.tokens,
            prefill_tokens=plan.prefill_tokens,
            draft_proposed=outcome.draft_proposed,
            draft_accepted=outcome.draft_accepted,
            decode_rows=outcome.decode_rows,
            decode_tokens=outcome.decode_tokens,
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
    def _step(self, plan: StepPlan) -> StepOutcome:
        """Run one planned iteration; returns the emitted token runs.

        Prefill chunks and decode rows share one ragged forward.  A row
        only yields tokens when it reached its next position: decode rows
        always do, prefill rows only on their final chunk (earlier chunks
        write KV and discard logits — exactly the work a one-shot prefill
        performs for those positions).  A decode row with planned draft
        tokens feeds ``[last committed, d1..dK]`` as one chunk and is
        greedily verified (:meth:`_verify`); the others read a single
        trailing logit row exactly as before.
        """
        prefill_chunk = {id(state): take for state, take in plan.prefill}
        decode_ids = {id(state) for state in plan.decode}
        max_pos = self.model.config.max_position

        ragged: list[tuple[RequestState, np.ndarray, bool, tuple[int, ...]]] = []
        for state in self.scheduler.active():
            if id(state) in prefill_chunk:
                take = prefill_chunk[id(state)]
                chunk = np.asarray(
                    state.prompt_window[state.prefill_pos : state.prefill_pos + take],
                    dtype=np.int64,
                )
                final = state.prefill_pos + take == len(state.prompt_window)
                ragged.append((state, chunk, final, ()))
            elif id(state) in decode_ids:
                draft = plan.draft_for(state)
                chunk = np.asarray([state.tokens[-1], *draft], dtype=np.int64)
                ragged.append((state, chunk, True, draft))

        outcome = StepOutcome()
        if ragged:
            new_lens = np.asarray([chunk.size for _, chunk, _, _ in ragged], dtype=np.int64)
            width = int(new_lens.max())
            token_matrix = np.zeros((len(ragged), width), dtype=np.int64)
            for row, (_, chunk, _, _) in enumerate(ragged):
                token_matrix[row, width - chunk.size :] = chunk
            caches = [state.kv for state, _, _, _ in ragged]
            # Rows are right-aligned, so a row verifying K drafts reads its
            # logits from the trailing 1 + K slots; widening last_k never
            # changes the bytes of the narrower slice (per-position
            # deterministic projection).
            last_k = max(1 + len(draft) for _, _, _, draft in ragged)
            logits = self.executor.forward_ragged(
                token_matrix, caches, new_lens, last_k=last_k
            )
            for row, (state, chunk, final, draft) in enumerate(ragged):
                if id(state) in prefill_chunk:
                    state.prefill_pos += chunk.size
                    if final and self.prefix_caching:
                        # The whole prompt window is committed and its
                        # blocks are now append-only: publish them.
                        state.kv.register_prefix(state.prompt_window)
                    if final:
                        outcome.emitted.append(
                            (state, [self._sample(state, logits[row, -1])])
                        )
                elif draft:
                    run, used = self._verify(state, draft, logits[row])
                    outcome.emitted.append((state, run))
                    outcome.draft_proposed += len(draft)
                    outcome.draft_accepted += used
                    outcome.decode_rows += 1
                    outcome.decode_tokens += len(run)
                else:
                    outcome.emitted.append(
                        (state, [self._sample(state, logits[row, -1])])
                    )
                    outcome.decode_rows += 1
                    outcome.decode_tokens += 1
        for state in plan.slid:
            context = np.asarray(state.tokens[-max_pos:], dtype=np.int64)[None, :]
            row_logits = self.executor.forward(context)[0, -1]
            outcome.emitted.append((state, [self._sample(state, row_logits)]))
            outcome.decode_rows += 1
            outcome.decode_tokens += 1
        return outcome

    def _verify(
        self, state: RequestState, draft: tuple[int, ...], row_logits: np.ndarray
    ) -> tuple[list[int], int]:
        """Greedy verification of one speculative row.

        ``row_logits`` holds the row's trailing logits; slot ``j`` of the
        last ``K + 1`` was computed with the cache holding exactly the
        tokens before draft position ``j``, so its argmax is what
        sequential greedy decoding would emit there
        (:func:`~repro.nn.generation.select_token` at greedy temperature
        *is* argmax).  The emitted run is the longest accepted draft
        prefix plus the model's own token at the first mismatch — then
        truncated at the first stop token and the remaining decode budget,
        exactly where :func:`~repro.nn.generation.generate` would halt.
        Rejected (and truncated) cache positions are rolled back so the
        sequence's KV holds precisely the tokens preceding its last
        emitted one.  Returns ``(run, drafts actually used)``.
        """
        greedy = np.argmax(row_logits[-(len(draft) + 1) :], axis=-1)
        accepted = 0
        while accepted < len(draft) and int(greedy[accepted]) == draft[accepted]:
            accepted += 1
        run = [int(t) for t in greedy[: accepted + 1]]
        allowed = state.request.max_new_tokens - state.produced
        run = run[:allowed]
        stops = state.stop_set
        for j, token in enumerate(run):
            if token in stops:
                run = run[: j + 1]
                break
        state.kv.rollback(1 + len(draft) - len(run))
        return run, min(accepted, len(run))

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
