"""Workload generator: scenario shapes, determinism, arrival models."""

import zlib

import numpy as np
import pytest

from repro.serve.workload import SCENARIOS, generate_workload, get_scenario


class TestScenarios:
    def test_mixes_registered(self):
        assert set(SCENARIOS) == {
            "steady",
            "bursty",
            "chat",
            "codegen",
            "chat-multiturn",
            "agent-fanout",
            "agent-tree",
            "map-reduce",
        }

    def test_default_bench_grid_is_the_classic_four(self):
        from repro.serve.bench import DEFAULT_SCENARIOS

        assert DEFAULT_SCENARIOS == ("steady", "bursty", "chat", "codegen")

    def test_chat_is_prefill_heavy_codegen_is_decode_heavy(self):
        chat = get_scenario("chat")
        codegen = get_scenario("codegen")
        assert chat.prompt_len[0] > chat.max_new[1]
        assert codegen.max_new[0] > codegen.prompt_len[1]

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("nope")


class TestGeneration:
    def test_same_seed_same_workload(self):
        a = generate_workload("bursty", num_requests=10, vocab_size=64, seed=3)
        b = generate_workload("bursty", num_requests=10, vocab_size=64, seed=3)
        for left, right in zip(a, b):
            assert left.request_id == right.request_id
            assert left.seed == right.seed
            assert left.arrival_time == right.arrival_time
            np.testing.assert_array_equal(left.prompt_ids, right.prompt_ids)

    def test_different_seed_different_workload(self):
        a = generate_workload("steady", num_requests=10, vocab_size=64, seed=0)
        b = generate_workload("steady", num_requests=10, vocab_size=64, seed=1)
        assert any(
            left.prompt_ids.size != right.prompt_ids.size
            or not np.array_equal(left.prompt_ids, right.prompt_ids)
            for left, right in zip(a, b)
        )

    def test_request_shapes_respect_scenario(self):
        scenario = get_scenario("chat")
        requests = generate_workload(scenario, num_requests=20, vocab_size=64, seed=0)
        assert len(requests) == 20
        for request in requests:
            assert scenario.prompt_len[0] <= request.prompt_ids.size <= scenario.prompt_len[1]
            assert scenario.max_new[0] <= request.max_new_tokens <= scenario.max_new[1]
            assert request.temperature == scenario.temperature
            assert request.stop_tokens == (63,)
            assert not np.any(request.prompt_ids == 63)  # EOS kept out of prompts
            assert np.all(request.prompt_ids >= 1)

    def test_arrivals_sorted_and_rate_scale_compresses(self):
        slow = generate_workload("steady", num_requests=20, vocab_size=64, seed=0)
        fast = generate_workload(
            "steady", num_requests=20, vocab_size=64, seed=0, rate_scale=4.0
        )
        slow_times = [r.arrival_time for r in slow]
        fast_times = [r.arrival_time for r in fast]
        assert slow_times == sorted(slow_times)
        assert fast_times[-1] == pytest.approx(slow_times[-1] / 4.0)

    def test_per_request_seeds_differ(self):
        requests = generate_workload("codegen", num_requests=16, vocab_size=64, seed=0)
        assert len({r.seed for r in requests}) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_workload("steady", num_requests=0, vocab_size=64)
        with pytest.raises(ValueError):
            generate_workload("steady", num_requests=1, vocab_size=2)
        with pytest.raises(ValueError):
            generate_workload("steady", num_requests=1, vocab_size=64, rate_scale=0)


class TestStructuredScenarios:
    def test_multiturn_prompts_extend_previous_turn(self):
        """Turn t's prompt is a strict extension of turn t-1's prompt."""
        scenario = get_scenario("chat-multiturn")
        requests = generate_workload(
            "chat-multiturn", num_requests=9, vocab_size=64, seed=0
        )
        for c in range(3):
            turns = requests[c * scenario.num_turns : (c + 1) * scenario.num_turns]
            for prev, cur in zip(turns, turns[1:]):
                assert cur.prompt_ids.size > prev.prompt_ids.size
                np.testing.assert_array_equal(
                    cur.prompt_ids[: prev.prompt_ids.size], prev.prompt_ids
                )
            # Turn arrivals are ordered within the conversation.
            times = [t.arrival_time for t in turns]
            assert times == sorted(times)

    def test_multiturn_prompts_fit_the_test_model_window(self):
        """Prompts must stay inside opt-test's max_position for sharing."""
        requests = generate_workload(
            "chat-multiturn", num_requests=30, vocab_size=64, seed=1
        )
        assert max(r.prompt_ids.size for r in requests) <= 32

    def test_fanout_groups_share_their_context(self):
        scenario = get_scenario("agent-fanout")
        requests = generate_workload(
            "agent-fanout", num_requests=12, vocab_size=64, seed=0
        )
        for g in range(2):
            group = requests[g * scenario.fanout : (g + 1) * scenario.fanout]
            shortest = min(r.prompt_ids.size for r in group)
            context_len = shortest - scenario.prompt_len[1]
            assert context_len >= scenario.shared_prefix_len[0]
            first = group[0].prompt_ids[: scenario.shared_prefix_len[0]]
            for member in group[1:]:
                np.testing.assert_array_equal(
                    member.prompt_ids[: scenario.shared_prefix_len[0]], first
                )

    def test_structured_workloads_are_seed_deterministic(self):
        for name in (
            "chat-multiturn", "agent-fanout", "agent-tree", "map-reduce",
        ):
            a = generate_workload(name, num_requests=12, vocab_size=64, seed=7)
            b = generate_workload(name, num_requests=12, vocab_size=64, seed=7)
            for left, right in zip(a, b):
                assert left.request_id == right.request_id
                assert left.arrival_time == right.arrival_time
                np.testing.assert_array_equal(left.prompt_ids, right.prompt_ids)


class TestDAGScenarios:
    """The application-DAG workloads that stress the tiered KV pool."""

    def test_group_size(self):
        from repro.serve.workload import group_size

        assert group_size(get_scenario("chat-multiturn")) == 3
        assert group_size(get_scenario("agent-fanout")) == 6
        # Depth-3 binary tree: 1 + 2 + 4 nodes.
        assert group_size(get_scenario("agent-tree")) == 7
        # fanout mappers plus the reducer.
        assert group_size(get_scenario("map-reduce")) == 5
        assert group_size(get_scenario("steady")) == 1

    def test_agent_tree_children_extend_parents(self):
        """Node k's prompt is its parent's full prompt plus a suffix."""
        scenario = get_scenario("agent-tree")
        size = 7
        requests = generate_workload(
            "agent-tree", num_requests=2 * size, vocab_size=64, seed=0
        )
        by_id = {r.request_id: r for r in requests}
        for tree in range(2):
            for node in range(1, size):
                child = by_id[f"agent-tree-t{tree:03d}n{node:02d}"]
                parent = by_id[
                    f"agent-tree-t{tree:03d}n{(node - 1) // scenario.fanout:02d}"
                ]
                assert child.prompt_ids.size > parent.prompt_ids.size
                np.testing.assert_array_equal(
                    child.prompt_ids[: parent.prompt_ids.size], parent.prompt_ids
                )

    def test_agent_tree_system_prompt_is_workload_global(self):
        """Every tree's root starts with the same system prompt."""
        scenario = get_scenario("agent-tree")
        requests = generate_workload(
            "agent-tree", num_requests=21, vocab_size=64, seed=1
        )
        roots = [r for r in requests if r.request_id.endswith("n00")]
        assert len(roots) == 3
        head = roots[0].prompt_ids[: scenario.shared_prefix_len[0]]
        for root in roots[1:]:
            np.testing.assert_array_equal(
                root.prompt_ids[: scenario.shared_prefix_len[0]], head
            )

    def test_agent_tree_emission_is_stage_major(self):
        """All trees' level-s nodes precede any tree's level-(s+1) node."""
        requests = generate_workload(
            "agent-tree", num_requests=14, vocab_size=64, seed=0
        )
        # Node index -> tree level for a depth-3 binary tree.
        level = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2}
        levels = [level[int(r.request_id[-2:])] for r in requests]
        assert levels == sorted(levels)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)

    def test_map_reduce_reducer_joins_every_mapper_digest(self):
        """The reducer shares the group context and each shard's digest."""
        scenario = get_scenario("map-reduce")
        requests = generate_workload(
            "map-reduce", num_requests=10, vocab_size=64, seed=0
        )
        by_id = {r.request_id: r for r in requests}
        for group in range(2):
            session = f"map-reduce-g{group:03d}"
            mappers = [by_id[f"{session}m{m}"] for m in range(scenario.fanout)]
            reducer = by_id[f"{session}reduce"]
            # Group context: the longest common head of the mappers.
            context_len = min(m.prompt_ids.size for m in mappers) - scenario.prompt_len[1]
            assert context_len >= scenario.shared_prefix_len[0]
            for mapper in mappers:
                np.testing.assert_array_equal(
                    mapper.prompt_ids[:context_len], reducer.prompt_ids[:context_len]
                )
            # Past the context the reducer carries one digest per mapper.
            assert reducer.prompt_ids.size > context_len + scenario.fanout - 1

    def test_map_reduce_emission_is_stage_major(self):
        """Every mapper arrives before any reducer — the map barrier."""
        requests = generate_workload(
            "map-reduce", num_requests=10, vocab_size=64, seed=0
        )
        kinds = [r.request_id.endswith("reduce") for r in requests]
        assert kinds == sorted(kinds)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)

    def test_dag_prompts_fit_the_test_model_window(self):
        """Worst-case prompt + max_new must stay inside opt-test's window."""
        for name in ("agent-tree", "map-reduce"):
            scenario = get_scenario(name)
            requests = generate_workload(name, sessions=4, vocab_size=64, seed=2)
            assert (
                max(r.prompt_ids.size for r in requests) + scenario.max_new[1] <= 32
            )

    def test_sessions_sizing_counts_whole_groups(self):
        assert len(
            generate_workload("agent-tree", sessions=2, vocab_size=64, seed=0)
        ) == 14
        assert len(
            generate_workload("map-reduce", sessions=3, vocab_size=64, seed=0)
        ) == 15


#: Request-list checksums at seed 0, 16 requests, vocab 64.  A scenario
#: edit that moves any field of any request, or a draw added to the shared
#: random stream, changes its checksum.
WORKLOAD_DIGESTS = {
    "steady": "9e2577d0",
    "bursty": "07bbcfcf",
    "chat": "acc84c8a",
    "codegen": "d2a53b8e",
    "chat-multiturn": "449f833d",
    "agent-fanout": "4350b068",
    "agent-tree": "e800efb2",
    "map-reduce": "91fc1e92",
}


def workload_digest(requests):
    crc = 0
    for r in requests:
        fields = (
            r.request_id, r.max_new_tokens, r.temperature, r.top_k,
            r.stop_tokens, r.seed, r.session_id,
        )
        crc = zlib.crc32(repr(fields).encode(), crc)
        crc = zlib.crc32(np.float64(r.arrival_time).tobytes(), crc)
        crc = zlib.crc32(
            np.ascontiguousarray(r.prompt_ids, dtype=np.int64).tobytes(), crc
        )
    return f"{crc:08x}"


def test_every_scenario_has_a_pinned_digest():
    assert set(WORKLOAD_DIGESTS) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_bytes_are_pinned(name):
    requests = generate_workload(name, num_requests=16, vocab_size=64, seed=0)
    assert workload_digest(requests) == WORKLOAD_DIGESTS[name]
