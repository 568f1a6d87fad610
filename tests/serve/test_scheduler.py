"""Scheduler bookkeeping: FIFO admission, budget plans, preemption."""

import numpy as np
import pytest

from repro.serve.kv_pool import BlockKVPool, PoolExhaustedError
from repro.serve.request import Request
from repro.serve.scheduler import Scheduler


def make_request(rid, arrival=0.0, prompt_len=3):
    return Request(
        rid,
        np.arange(1, prompt_len + 1),
        max_new_tokens=4,
        arrival_time=arrival,
    )


def make_pool(**kwargs):
    defaults = dict(
        num_layers=2, num_heads=2, head_dim=16, block_size=4, initial_blocks=8
    )
    defaults.update(kwargs)
    return BlockKVPool(**defaults)


@pytest.fixture
def scheduler():
    return Scheduler(make_pool(), max_batch_size=2)


class TestAdmission:
    def test_fifo_order(self, scheduler):
        for rid in ("a", "b", "c"):
            scheduler.enqueue(make_request(rid))
        admitted = scheduler.admit(now=1.0)
        assert [s.request.request_id for s in admitted] == ["a", "b"]
        assert scheduler.queue_depth == 1
        assert all(s.admitted_time == 1.0 for s in admitted)

    def test_admit_into_freed_slot(self, scheduler):
        for rid in ("a", "b", "c"):
            scheduler.enqueue(make_request(rid))
        first = scheduler.admit(now=0.0)
        scheduler.retire(first[0])
        second = scheduler.admit(now=2.0)
        assert [s.request.request_id for s in second] == ["c"]
        assert scheduler.active_count == 2
        assert scheduler.queue_depth == 0

    def test_admit_no_queue_is_noop(self, scheduler):
        assert scheduler.admit(now=0.0) == []
        assert not scheduler.has_work

    def test_per_request_generators_are_seeded(self, scheduler):
        scheduler.enqueue(Request("a", np.array([1]), seed=7))
        state = scheduler.admit(now=0.0)[0]
        expected = np.random.default_rng(7).random()
        assert state.rng.random() == expected


class TestRetirement:
    def test_retire_releases_kv_blocks(self, scheduler):
        scheduler.enqueue(make_request("a"))
        state = scheduler.admit(now=0.0)[0]
        state.kv.layers[0].append(np.zeros((1, 2, 5, 16)), np.zeros((1, 2, 5, 16)))
        assert scheduler.pool.blocks_in_use > 0
        scheduler.retire(state)
        assert scheduler.pool.blocks_in_use == 0
        assert scheduler.active_count == 0

    def test_retire_unknown_state_rejected(self, scheduler):
        scheduler.enqueue(make_request("a"))
        state = scheduler.admit(now=0.0)[0]
        scheduler.retire(state)
        with pytest.raises(ValueError):
            scheduler.retire(state)

    def test_max_batch_size_validated(self, scheduler):
        with pytest.raises(ValueError):
            Scheduler(scheduler.pool, max_batch_size=0)


class TestQueueOrder:
    def test_queue_seq_counts_enqueues(self):
        scheduler = Scheduler(make_pool(), max_batch_size=3)
        for rid in ("a", "b", "c"):
            scheduler.enqueue(make_request(rid))
        admitted = scheduler.admit(now=0.0)
        assert [s.request.request_id for s in admitted] == ["a", "b", "c"]
        assert [s.queue_seq for s in admitted] == [0, 1, 2]

    def test_prompt_window_trimmed_to_max_position(self):
        scheduler = Scheduler(make_pool(), max_batch_size=1, max_position=4)
        scheduler.enqueue(make_request("long", prompt_len=10))
        state = scheduler.admit(now=0.0)[0]
        np.testing.assert_array_equal(state.prompt_window, [7, 8, 9, 10])
        assert state.tokens == list(range(1, 11))  # full prompt kept for output


class TestStepPlan:
    def test_budget_chunks_prefill_across_steps(self):
        scheduler = Scheduler(make_pool(), max_batch_size=2, prefill_budget=4)
        scheduler.enqueue(make_request("long", prompt_len=10))
        state = scheduler.admit(now=0.0)[0]
        takes = []
        while state.needs_prefill:
            plan = scheduler.plan()
            assert plan.prefill_tokens <= 4
            (planned, take), = plan.prefill
            assert planned is state
            takes.append(take)
            state.prefill_pos += take  # what the engine does after the forward
        assert takes == [4, 4, 2]

    def test_budget_shared_across_rows_decode_always_runs(self):
        scheduler = Scheduler(make_pool(), max_batch_size=3, prefill_budget=5)
        scheduler.enqueue(make_request("p1", prompt_len=4))
        scheduler.enqueue(make_request("p2", prompt_len=4))
        scheduler.enqueue(make_request("d", prompt_len=2))
        p1, p2, d = scheduler.admit(now=0.0)
        d.prefill_pos = 2  # d already finished prefill
        plan = scheduler.plan()
        assert [(s.request.request_id, n) for s, n in plan.prefill] == [
            ("p1", 4), ("p2", 1)
        ]
        assert [s.request.request_id for s in plan.decode] == ["d"]

    def test_budget_granted_in_queue_order_not_slot_order(self):
        scheduler = Scheduler(make_pool(), max_batch_size=2, prefill_budget=4)
        scheduler.enqueue(make_request("a", prompt_len=6))
        scheduler.enqueue(make_request("b", prompt_len=6))
        a, b = scheduler.admit(now=0.0)
        scheduler.retire(a)
        scheduler.enqueue(make_request("c", prompt_len=6))
        (c,) = scheduler.admit(now=1.0)
        assert scheduler.active() == [c, b]  # c took a's slot
        plan = scheduler.plan()
        assert [(s.request.request_id, n) for s, n in plan.prefill] == [("b", 4)]

    def test_no_budget_prefills_whole_prompt(self):
        scheduler = Scheduler(make_pool(), max_batch_size=1)
        scheduler.enqueue(make_request("r", prompt_len=9))
        scheduler.admit(now=0.0)
        plan = scheduler.plan()
        assert plan.prefill[0][1] == 9

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            Scheduler(make_pool(), prefill_budget=0)


class TestDecodeRows:
    def _decode_state(self, scheduler, rid, committed=2, **request_kwargs):
        scheduler.enqueue(make_request(rid, **request_kwargs))
        state = scheduler.admit(now=0.0)[-1]
        heads, dim = scheduler.pool.num_heads, scheduler.pool.head_dim
        chunk = np.zeros((1, heads, committed, dim))
        for layer in range(scheduler.pool.num_layers):
            state.kv.layers[layer].append(chunk, chunk.copy())
        state.prefill_pos = len(state.prompt_window)
        return state

    def test_established_row_plans_one_decode_lane(self, scheduler):
        state = self._decode_state(scheduler, "a")
        plan = scheduler.plan()
        assert plan.decode == [state]
        assert plan.prefill == [] and plan.slid == []
        assert plan.prefill_tokens == 0

    @pytest.mark.parametrize("committed, fresh", [(3, 0), (4, 1), (8, 1)])
    def test_decode_row_reserves_one_position(self, committed, fresh):
        """A decode row needs a fresh block only when its tail block is full."""
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=1)
        state = self._decode_state(scheduler, "a", committed=committed)
        assert scheduler._blocks_needed(state, 1) == fresh
        assert scheduler.reserve(scheduler.plan()) == []

    def test_drop_removes_state_from_every_lane(self):
        scheduler = Scheduler(make_pool(), max_batch_size=2)
        decoding = self._decode_state(scheduler, "d")
        scheduler.enqueue(make_request("p"))
        prefilling = scheduler.admit(now=0.0)[-1]
        plan = scheduler.plan()
        assert plan.decode == [decoding]
        assert [s for s, _ in plan.prefill] == [prefilling]
        plan.drop(decoding)
        plan.drop(prefilling)
        assert plan.decode == [] and plan.prefill == []


class TestPreemption:
    def _admit_with_blocks(self, scheduler, rid, blocks):
        scheduler.enqueue(make_request(rid))
        state = scheduler.admit(now=0.0)[-1]
        bs = scheduler.pool.block_size
        heads, dim = scheduler.pool.num_heads, scheduler.pool.head_dim
        chunk = np.zeros((1, heads, blocks * bs, dim))
        for layer in range(scheduler.pool.num_layers):
            state.kv.layers[layer].append(chunk, chunk.copy())
        state.prefill_pos = len(state.prompt_window)
        return state

    def test_newest_victim(self):
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=3)
        keeper = self._admit_with_blocks(scheduler, "keeper", 3)
        older = self._admit_with_blocks(scheduler, "older", 3)
        newest = self._admit_with_blocks(scheduler, "newest", 2)
        plan = scheduler.plan()
        victims = scheduler.reserve(plan)
        assert [v.request.request_id for v in victims] == ["newest"]
        assert scheduler.preemption_count == 1
        assert scheduler.preemptions_of("newest") == 1
        assert newest.kv is None  # blocks released
        assert keeper in scheduler.active() and older in scheduler.active()
        # The victim re-enters the queue ahead of any later arrival.
        scheduler.enqueue(make_request("later"))
        scheduler.retire(keeper)
        readmitted = scheduler.admit(now=1.0)
        assert readmitted[0].request.request_id == "newest"
        assert readmitted[0].queue_seq == 2

    def test_victims_taken_newest_first_until_the_plan_fits(self):
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=4)
        first = self._admit_with_blocks(scheduler, "first", 2)
        for rid in ("second", "third", "fourth"):
            self._admit_with_blocks(scheduler, rid, 2)
        first.kv.release()  # free two blocks, then ask for five
        first.kv = scheduler.pool.sequence()
        first.prefill_pos = 0
        first.prompt_window = np.arange(1, 21)
        plan = scheduler.plan()
        assert [(s.request.request_id, n) for s, n in plan.prefill] == [("first", 20)]
        victims = scheduler.reserve(plan)
        assert [v.request.request_id for v in victims] == ["fourth", "third"]
        assert [s.request.request_id for s in scheduler.active()] == [
            "first", "second"
        ]

    def test_preempted_plan_rows_are_dropped(self):
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=2)
        keeper = self._admit_with_blocks(scheduler, "keeper", 4)
        victim = self._admit_with_blocks(scheduler, "victim", 4)
        plan = scheduler.plan()
        assert len(plan.decode) == 2
        scheduler.reserve(plan)
        assert [s.request.request_id for s in plan.decode] == ["keeper"]

    def test_exhaustion_with_single_candidate_raises(self):
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=1)
        state = self._admit_with_blocks(scheduler, "lone", 8)
        plan = scheduler.plan()
        with pytest.raises(PoolExhaustedError):
            scheduler.reserve(plan)
        assert state in scheduler.active()  # the survivor is never preempted

    def test_unbounded_pool_reserves_without_preempting(self):
        scheduler = Scheduler(make_pool(initial_blocks=2), max_batch_size=2)
        self._admit_with_blocks(scheduler, "a", 1)
        self._admit_with_blocks(scheduler, "b", 1)
        assert scheduler.reserve(scheduler.plan()) == []
