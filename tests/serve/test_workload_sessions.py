"""Workload sizing in sessions: the ``sessions=`` scale parameter.

Structured scenarios expand ``sessions`` into whole conversations /
fan-out groups, every related request carries the shared ``session_id``
handle, and the parameter is mutually exclusive with ``num_requests``.
"""

import numpy as np
import pytest

from repro.serve.workload import generate_workload

VOCAB = 64


class TestSessionsParameter:
    def test_multiturn_expands_sessions_times_turns(self):
        workload = generate_workload(
            "chat-multiturn", sessions=5, vocab_size=VOCAB, seed=0
        )
        assert len(workload) == 5 * 3  # num_turns = 3
        assert len({r.session_id for r in workload}) == 5

    def test_fanout_expands_sessions_times_fanout(self):
        workload = generate_workload(
            "agent-fanout", sessions=2, vocab_size=VOCAB, seed=0
        )
        assert len(workload) == 2 * 6  # fanout = 6
        assert len({r.session_id for r in workload}) == 2

    def test_independent_scenario_gets_one_request_per_session(self):
        workload = generate_workload("steady", sessions=7, vocab_size=VOCAB, seed=0)
        assert len(workload) == 7
        assert all(r.session_id is None for r in workload)

    def test_sessions_and_num_requests_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            generate_workload(
                "steady", num_requests=4, sessions=2, vocab_size=VOCAB, seed=0
            )

    def test_one_of_them_is_required(self):
        with pytest.raises(ValueError, match="num_requests or sessions"):
            generate_workload("steady", vocab_size=VOCAB, seed=0)

    def test_sessions_validated(self):
        with pytest.raises(ValueError, match="sessions"):
            generate_workload("steady", sessions=0, vocab_size=VOCAB, seed=0)


class TestSessionIdentity:
    def test_turns_of_one_conversation_share_id_and_grow_prefix(self):
        workload = generate_workload(
            "chat-multiturn", sessions=2, vocab_size=VOCAB, seed=3
        )
        by_session: dict[str, list] = {}
        for request in workload:
            by_session.setdefault(request.session_id, []).append(request)
        for session, turns in by_session.items():
            assert len(turns) == 3
            for earlier, later in zip(turns, turns[1:]):
                np.testing.assert_array_equal(
                    later.prompt_ids[: earlier.prompt_ids.size], earlier.prompt_ids
                )

    def test_fanout_group_shares_context_and_id(self):
        workload = generate_workload(
            "agent-fanout", sessions=1, vocab_size=VOCAB, seed=4
        )
        assert len({r.session_id for r in workload}) == 1
        first = workload[0].prompt_ids
        # All members share the group context (first tokens of the leader).
        shared = min(r.prompt_ids.size for r in workload)
        for member in workload[1:]:
            common = 0
            limit = min(shared, member.prompt_ids.size, first.size)
            while common < limit and member.prompt_ids[common] == first[common]:
                common += 1
            assert common >= 16  # at least the minimum shared context

    def test_equal_sizing_paths_agree(self):
        """sessions=N and num_requests=N*per_session build the same list."""
        by_sessions = generate_workload(
            "chat-multiturn", sessions=4, vocab_size=VOCAB, seed=11
        )
        by_requests = generate_workload(
            "chat-multiturn", num_requests=12, vocab_size=VOCAB, seed=11
        )
        assert len(by_sessions) == len(by_requests)
        for a, b in zip(by_sessions, by_requests):
            assert a.request_id == b.request_id
            assert a.arrival_time == b.arrival_time
            np.testing.assert_array_equal(a.prompt_ids, b.prompt_ids)


class TestClusterScale:
    def test_ten_thousand_sessions_generate_quickly(self):
        """Tens of thousands of sessions generate in one call."""
        workload = generate_workload(
            "chat-multiturn", sessions=10_000, vocab_size=VOCAB, seed=0
        )
        assert len(workload) == 30_000
        assert len({r.session_id for r in workload}) == 10_000
        assert len({r.request_id for r in workload}) == 30_000
        arrivals = np.asarray([r.arrival_time for r in workload])
        assert np.all(np.diff(arrivals) >= 0)

    def test_small_prefix_of_arrivals_stable_under_scale(self):
        """Session arrivals: growing the workload does not move the early
        sessions' arrival times (per-session spawned RNGs)."""
        small = generate_workload(
            "chat-multiturn", sessions=5, vocab_size=VOCAB, seed=8
        )
        large = generate_workload(
            "chat-multiturn", sessions=500, vocab_size=VOCAB, seed=8
        )
        for a, b in zip(small, large[: len(small)]):
            assert a.arrival_time == b.arrival_time
