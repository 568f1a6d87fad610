"""Iteration scheduling: FIFO admission, prefill budget, preemption.

The scheduler owns the admission bookkeeping and nothing else — no model
calls, no sampling.  It maintains a FIFO queue of pending requests and a
fixed number of *decode slots*.  One order rules every decision: queue
seniority, the ``queue_seq`` a request receives when it is enqueued.
Every engine step:

1. finished sequences are retired (:meth:`Scheduler.retire`), freeing
   their slot and their KV blocks immediately;
2. queued requests are admitted into free slots (:meth:`Scheduler.admit`)
   in queue order, each receiving a fresh
   :class:`~repro.serve.kv_pool.SequenceKV` from the pool;
3. :meth:`Scheduler.plan` lays out the iteration as a :class:`StepPlan`:
   every established request contributes one decode token, and requests
   still prefilling contribute prompt *chunks* whose combined size is
   capped by the per-iteration **prefill token budget** — a long prompt no
   longer monopolizes an iteration; it streams in over several steps,
   interleaved with everyone else's decode rows (the chunked cached
   forward is bit-identical to a one-shot prefill, so chunking never
   changes tokens);
4. :meth:`Scheduler.reserve` pre-checks the plan's worst-case block demand
   against the pool.  Under exhaustion (a bounded pool that cannot grow
   or evict further) it **preempts** victims — the most recently queued
   first — releasing their blocks and re-queueing each request under its
   original ``queue_seq``, ahead of every later arrival.  Preemption is
   lossless: decode is bit-reproducible from (prompt, seed), so the
   re-run emits byte-identical output.

With no budget and an unbounded pool this is the Orca-style
iteration-level FIFO scheduler.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.serve.kv_pool import BlockKVPool, PoolExhaustedError
from repro.serve.request import Request, RequestState

#: Queue seniority, the one order of admission, prefill budget and
#: preemption: a lower ``queue_seq`` is senior, hence protected.
_QUEUE_ORDER = attrgetter("queue_seq")


@dataclass
class StepPlan:
    """One iteration's worth of work, laid out by :meth:`Scheduler.plan`.

    ``prefill`` pairs each mid-prefill state with the number of prompt
    tokens it advances this step; ``decode`` states contribute one token
    each; ``slid`` states run per-row full-window forwards outside the
    pool.  States stalled by the prefill budget appear in no list and
    simply wait for the next iteration.
    """

    prefill: list[tuple[RequestState, int]] = field(default_factory=list)
    decode: list[RequestState] = field(default_factory=list)
    slid: list[RequestState] = field(default_factory=list)

    def drop(self, state: RequestState) -> None:
        """Remove a (preempted) state from every lane."""
        self.prefill = [(s, n) for s, n in self.prefill if s is not state]
        self.decode = [s for s in self.decode if s is not state]
        self.slid = [s for s in self.slid if s is not state]

    @property
    def prefill_tokens(self) -> int:
        return sum(n for _, n in self.prefill)


class Scheduler:
    """FIFO admission, chunked-prefill budgeting, and preemption.

    Parameters
    ----------
    pool:
        The shared :class:`~repro.serve.kv_pool.BlockKVPool` new requests
        draw their KV blocks from.
    max_batch_size:
        Number of decode slots (the per-step batch ceiling).
    prefill_budget:
        Maximum prompt tokens prefilled per iteration, summed over all
        mid-prefill rows (``None`` = unbounded: whole prompts prefill in
        one chunk, the pre-budget behaviour).
    max_position:
        The model's context window; prompts are trimmed to their trailing
        ``max_position`` tokens at admission (``None`` keeps whole
        prompts — only sensible in unit tests).
    """

    def __init__(
        self,
        pool: BlockKVPool,
        max_batch_size: int = 8,
        prefill_budget: int | None = None,
        max_position: int | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if prefill_budget is not None and prefill_budget < 1:
            raise ValueError(f"prefill_budget must be >= 1, got {prefill_budget}")
        self.pool = pool
        self.max_batch_size = int(max_batch_size)
        self.prefill_budget = None if prefill_budget is None else int(prefill_budget)
        self.max_position = None if max_position is None else int(max_position)
        #: (queue_seq, Request) min-heap: lowest sequence number (earliest
        #: arrival, or a preempted request's re-entry) first.
        self._heap: list[tuple[int, Request]] = []
        self._next_seq = 0
        self._slots: list[RequestState | None] = [None] * self.max_batch_size
        self.preemption_count = 0
        self._preempted_by_id: dict[str, int] = {}

    # -- queue state ---------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests waiting for a slot."""
        return len(self._heap)

    @property
    def active_count(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)

    @property
    def has_work(self) -> bool:
        return bool(self._heap) or self.active_count > 0

    def enqueue(self, request: Request) -> None:
        """Add an arrived request to the back of the queue."""
        heapq.heappush(self._heap, (self._next_seq, request))
        self._next_seq += 1

    def preemptions_of(self, request_id: str) -> int:
        """How many times the given request has been preempted so far."""
        return self._preempted_by_id.get(request_id, 0)

    def active(self) -> list[RequestState]:
        """Occupied slots in slot order (stable across steps)."""
        return [slot for slot in self._slots if slot is not None]

    # -- admission -----------------------------------------------------------------
    def admit(self, now: float) -> list[RequestState]:
        """Fill free slots from the queue; returns the admitted states.

        Each admitted request gets a per-request generator seeded with its
        own ``seed``, an empty pooled KV sequence, and its prompt trimmed
        to the trailing context window.
        """
        admitted: list[RequestState] = []
        for index, slot in enumerate(self._slots):
            if slot is not None or not self._heap:
                continue
            queue_seq, request = heapq.heappop(self._heap)
            window = request.prompt_ids
            if self.max_position is not None:
                window = window[-self.max_position :]
            state = RequestState(
                request=request,
                rng=np.random.default_rng(request.seed),
                kv=self.pool.sequence(),
                prompt_window=window,
                tokens=list(request.prompt_ids),
                admitted_time=now,
                queue_seq=queue_seq,
            )
            self._slots[index] = state
            admitted.append(state)
        return admitted

    # -- iteration planning --------------------------------------------------------
    def plan(self) -> StepPlan:
        """Lay out one iteration: decode rows plus budgeted prefill chunks.

        The prefill budget is granted in queue order — the same order
        preemption protects — so the most senior active state is always
        in the plan: either its decode row, or the first prefill chunk the
        budget funds.  That is what makes the reserve()/preemption loop
        live: the state it refuses to preempt is guaranteed to be one that
        actually runs this iteration.  Junior prefills stalled by the
        budget merely wait a step; decode rows always run.
        """
        plan = StepPlan()
        budget = self.prefill_budget
        for state in sorted(self.active(), key=_QUEUE_ORDER):
            if state.slid:
                plan.slid.append(state)
            elif state.needs_prefill:
                remaining = len(state.prompt_window) - state.prefill_pos
                take = remaining if budget is None else min(remaining, budget)
                if take >= 1:
                    plan.prefill.append((state, take))
                    if budget is not None:
                        budget -= take
            else:
                plan.decode.append(state)
        return plan

    def _blocks_needed(self, state: RequestState, new_tokens: int) -> int:
        """Worst-case fresh blocks a state's planned write can consume.

        Covers new block allocations past the current tail plus one
        potential copy-on-write fork when the tail block is shared.
        """
        kv = state.kv
        bs = self.pool.block_size
        committed = kv.seq_len
        target = -(-(committed + new_tokens) // bs)  # ceil division
        extra = max(target - len(kv.block_ids), 0)
        if committed % bs and self.pool.refcount(kv.block_ids[committed // bs]) > 1:
            extra += 1
        return extra

    def reserve(self, plan: StepPlan) -> list[RequestState]:
        """Preempt until the pool can cover the plan; returns the victims.

        The most senior state *in the plan* is never preempted — and
        because :meth:`plan` grants the prefill budget in queue order,
        that protected state is also the most senior active state,
        so every iteration advances it: no preemption livelock.  If even
        that lone state cannot fit, :class:`PoolExhaustedError`
        propagates.  That is a backstop: ``ServeEngine.submit`` rejects a
        request whose footprint exceeds ``max_blocks`` before it is
        queued.
        """
        victims: list[RequestState] = []
        while True:
            needed = sum(
                self._blocks_needed(state, take) for state, take in plan.prefill
            ) + sum(
                self._blocks_needed(state, 1) for state in plan.decode
            )
            if self.pool.can_provide(needed):
                return victims
            victim = self._pick_victim(plan)
            if victim is None:
                raise PoolExhaustedError(
                    f"pool cannot provide {needed} blocks even after preempting "
                    f"every other request"
                )
            self._preempt(victim, plan)
            victims.append(victim)

    def _pick_victim(self, plan: StepPlan) -> RequestState | None:
        """The most recently queued state; never the plan's most senior.

        The protected state must be one the plan actually runs: protecting
        a state the plan does not run while preempting every planned row
        would spin forever without progress (the livelock the scheduler
        regression tests pin).
        """
        planned = [state for state, _ in plan.prefill] + list(plan.decode)
        protected = min(planned, key=_QUEUE_ORDER) if planned else None
        victims = [
            state
            for state in self.active()
            if state.kv is not None and state is not protected
        ]
        if not victims:
            return None
        return max(victims, key=_QUEUE_ORDER)

    def _preempt(self, victim: RequestState, plan: StepPlan) -> None:
        """Release the victim's blocks and re-queue it for deterministic re-run."""
        for index, slot in enumerate(self._slots):
            if slot is victim:
                self._slots[index] = None
                break
        victim.kv.release()
        victim.kv = None
        plan.drop(victim)
        # Keeping the original queue_seq re-inserts the request ahead of
        # every later arrival.
        heapq.heappush(self._heap, (victim.queue_seq, victim.request))
        self.preemption_count += 1
        request_id = victim.request.request_id
        self._preempted_by_id[request_id] = self._preempted_by_id.get(request_id, 0) + 1

    # -- retirement ----------------------------------------------------------------
    def retire(self, state: RequestState) -> None:
        """Free the state's slot and drop its KV block references."""
        for index, slot in enumerate(self._slots):
            if slot is state:
                self._slots[index] = None
                break
        else:
            raise ValueError(f"state {state.request.request_id!r} holds no slot")
        if state.kv is not None:
            state.kv.release()
            state.kv = None

