"""Synthetic serving workloads: named traffic scenario mixes.

Each :class:`Scenario` pairs an arrival process from
:mod:`repro.macro.traffic` with prompt/decode length distributions and
sampling parameters, modelling a qualitatively different production
traffic shape:

* ``steady`` — evenly spaced greedy requests of moderate size: the
  baseline that isolates pure compute throughput.
* ``bursty`` — a Markov-modulated Poisson process: bursts form deep
  queues even though the mean rate is sustainable, separating p99 TTFT
  from p50.
* ``chat`` — long prompts, short decodes (assistant-style turns): stresses
  prefill cost and admission latency.
* ``codegen`` — short prompts, long decodes (completion-style): stresses
  decode-slot occupancy and the sliding-window tail.

Three *structured* scenarios exercise the shared-prefix, chunked-prefill,
and priority scheduling features:

* ``chat-multiturn`` — conversations over a shared system prompt; each
  turn's prompt extends the previous turn's, and turns arrive clustered
  (``session`` arrivals), so with ``prefix_caching`` every turn adopts
  the previous turn's KV blocks instead of re-prefilling them.
* ``agent-fanout`` — groups of requests sharing one long context plus a
  short per-agent suffix, arriving in a tight burst — the fan-out pattern
  of parallel agent calls, and the best case for block sharing.
* ``priority-burst`` — a bursty mixed-priority stream (interactive /
  standard / batch classes) for the priority-admission and preemption
  metrics.
* ``summarize-copy`` — copy-heavy greedy requests: a ``copy_rate``
  fraction of every prompt is a short motif tiled over and over (the
  shape of summarization / quote-heavy chat follow-ups), and decodes are
  long enough for greedy decoding to settle into its repetitive tail.
  Both make the continuation predictable from the request's own token
  stream.

Two *application-DAG* scenarios stress the tiered KV pool: whole waves
of requests share deep prefixes that go cold between waves and are
re-demanded wholesale when the next stage arrives:

* ``agent-tree`` — agent call trees: every tree runs under one
  workload-wide system prompt, each tree's root extends it with a task
  statement, and every child call extends its parent's full prompt with
  a private suffix, so siblings share their parent's entire context.
  Whole trees arrive as ``wave`` bursts; under a tight pool the shared
  system span goes cold between trees and is promoted back when the
  next tree arrives.
* ``map-reduce`` — map waves with a fan-in join: ``fanout`` mappers
  share a context (workload-wide system prompt + per-group job header)
  plus private shard suffixes, then a reducer whose prompt joins the
  context with a digest of every mapper's shard — the reducer re-demands
  the context *after* the map wave has churned the pool, the promotion
  path's best case.

Workload generation is fully seeded: one :class:`numpy.random.SeedSequence`
drives arrivals, lengths, prompt contents, priorities, *and* each
request's private sampling seed, so a scenario expands to the identical
request list on every run — which is what lets the benchmark compare
normalizer variants (or prefix-caching on vs off) under literally the same
traffic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.macro.traffic import get_arrival_process
from repro.serve.request import Request


@dataclass(frozen=True)
class Scenario:
    """A named traffic mix.

    ``prompt_len`` / ``max_new`` are inclusive integer ranges sampled
    uniformly per request.  ``rate`` is the arrival process's mean rate in
    requests per *virtual* second (the engine's clock advances by measured
    compute time), so meaningful rates sit near the model's serving
    capacity; :func:`generate_workload` exposes ``rate_scale`` to push a
    scenario into or out of saturation without editing the mix.

    ``structure`` selects the request-list shape: ``"independent"`` draws
    every request separately (the classic mixes); ``"multiturn"`` builds
    conversations of ``num_turns`` requests over a shared system prompt of
    ``shared_prefix_len`` tokens, each turn's prompt extending the last by
    a ``prompt_len`` user message; ``"fanout"`` builds groups of
    ``fanout`` requests sharing one ``shared_prefix_len`` context plus a
    private ``prompt_len`` suffix; ``"copy"`` builds prompts whose
    ``copy_rate`` fraction is a ``shared_prefix_len``-long motif tiled
    repeatedly after a fresh ``prompt_len`` head (the copy-heavy shape of
    summarization); ``"agent-tree"`` builds call
    trees of depth ``num_turns`` and branching ``fanout`` under one
    workload-wide ``shared_prefix_len`` system prompt, every node
    extending its parent's full prompt with a private ``prompt_len``
    suffix; ``"map-reduce"`` builds groups of ``fanout`` mappers sharing
    the system prompt plus a per-group job header, closed by a reducer
    whose prompt fans the mappers' shards back in.
    ``priority_mix`` assigns each request a priority class drawn from
    the given ``(priority, weight)`` pairs.
    """

    name: str
    arrival: str
    rate: float
    prompt_len: tuple[int, int]
    max_new: tuple[int, int]
    temperature: float
    top_k: int | None
    description: str
    structure: str = "independent"
    shared_prefix_len: tuple[int, int] = (0, 0)
    num_turns: int = 1
    fanout: int = 1
    copy_rate: float = 0.0
    priority_mix: tuple[tuple[int, float], ...] = ((0, 1.0),)

    def __post_init__(self) -> None:
        for lo, hi in (self.prompt_len, self.max_new):
            if lo < 1 or hi < lo:
                raise ValueError(f"bad range ({lo}, {hi}) in scenario {self.name!r}")
        known = ("independent", "multiturn", "fanout", "copy", "agent-tree", "map-reduce")
        if self.structure not in known:
            raise ValueError(f"unknown structure {self.structure!r}")
        lo, hi = self.shared_prefix_len
        if lo < 0 or hi < lo:
            raise ValueError(f"bad shared_prefix_len ({lo}, {hi})")
        if self.num_turns < 1 or self.fanout < 1:
            raise ValueError("num_turns and fanout must be >= 1")
        if not 0.0 <= self.copy_rate < 1.0:
            raise ValueError(f"copy_rate must be in [0, 1), got {self.copy_rate}")
        if not self.priority_mix or any(w <= 0 for _, w in self.priority_mix):
            raise ValueError("priority_mix weights must be positive")


#: The benchmark scenario mixes.  The classic four (kept byte-identical to
#: their pre-prefix-caching definitions) plus the structured scenarios.
SCENARIOS: dict[str, Scenario] = {
    "steady": Scenario(
        name="steady",
        arrival="steady",
        rate=250.0,
        prompt_len=(4, 12),
        max_new=(8, 16),
        temperature=0.0,
        top_k=None,
        description="evenly spaced greedy requests of moderate size",
    ),
    "bursty": Scenario(
        name="bursty",
        arrival="bursty",
        rate=200.0,
        prompt_len=(4, 12),
        max_new=(8, 16),
        temperature=0.8,
        top_k=20,
        description="Markov-modulated Poisson bursts over a quiet floor",
    ),
    "chat": Scenario(
        name="chat",
        arrival="poisson",
        rate=120.0,
        prompt_len=(18, 28),
        max_new=(4, 8),
        temperature=0.7,
        top_k=20,
        description="chat-style: long prompt, short decode",
    ),
    "codegen": Scenario(
        name="codegen",
        arrival="poisson",
        rate=100.0,
        prompt_len=(3, 8),
        max_new=(24, 40),
        temperature=0.9,
        top_k=30,
        description="codegen-style: short prompt, long decode",
    ),
    "chat-multiturn": Scenario(
        name="chat-multiturn",
        arrival="session",
        rate=140.0,
        prompt_len=(3, 6),  # per-turn user message
        max_new=(3, 6),
        temperature=0.0,
        top_k=None,
        description="multi-turn chat over a shared system prompt",
        structure="multiturn",
        shared_prefix_len=(8, 12),
        num_turns=3,
    ),
    "agent-fanout": Scenario(
        name="agent-fanout",
        arrival="bursty",
        rate=220.0,
        prompt_len=(2, 4),  # per-agent private suffix
        max_new=(3, 6),
        temperature=0.0,
        top_k=None,
        description="N agents sharing one long context, bursting together",
        structure="fanout",
        shared_prefix_len=(16, 22),
        fanout=6,
    ),
    "priority-burst": Scenario(
        name="priority-burst",
        arrival="bursty",
        rate=200.0,
        prompt_len=(4, 10),
        max_new=(6, 12),
        temperature=0.8,
        top_k=20,
        description="mixed interactive/standard/batch burst",
        priority_mix=((2, 0.2), (1, 0.3), (0, 0.5)),
    ),
    "summarize-copy": Scenario(
        name="summarize-copy",
        arrival="poisson",
        rate=100.0,
        prompt_len=(3, 5),  # fresh head before the tiled motif
        max_new=(14, 22),
        temperature=0.0,
        top_k=None,
        description="copy-heavy greedy requests over a tiled prompt motif",
        structure="copy",
        shared_prefix_len=(2, 4),  # motif length
        copy_rate=0.6,
    ),
    "agent-tree": Scenario(
        name="agent-tree",
        arrival="wave",
        rate=200.0,
        prompt_len=(2, 4),  # per-call private suffix
        max_new=(3, 6),
        temperature=0.0,
        top_k=None,
        description="agent call trees over a shared system prompt, per-tree waves",
        structure="agent-tree",
        shared_prefix_len=(8, 10),
        num_turns=3,  # tree depth
        fanout=2,  # branching factor
    ),
    "map-reduce": Scenario(
        name="map-reduce",
        arrival="wave",
        rate=180.0,
        prompt_len=(3, 5),  # per-group job header and per-mapper shard
        max_new=(3, 6),
        temperature=0.0,
        top_k=None,
        description="map waves over a shared context, joined by a fan-in reducer",
        structure="map-reduce",
        shared_prefix_len=(13, 15),
        fanout=4,
    ),
}


def group_size(scenario: Scenario) -> int:
    """Requests per session / group / tree under the scenario's structure.

    This is the unit both ``sessions`` sizing and the ``wave`` arrival
    process count in: a ``"multiturn"`` conversation has ``num_turns``
    requests, a ``"fanout"`` group ``fanout``, an ``"agent-tree"`` tree
    the full node count of a depth-``num_turns`` ``fanout``-ary tree,
    and a ``"map-reduce"`` group its mappers plus the reducer.
    """
    if scenario.structure == "multiturn":
        return scenario.num_turns
    if scenario.structure == "fanout":
        return scenario.fanout
    if scenario.structure == "agent-tree":
        branch, depth = scenario.fanout, scenario.num_turns
        return depth if branch == 1 else (branch**depth - 1) // (branch - 1)
    if scenario.structure == "map-reduce":
        return scenario.fanout + 1
    return 1


def get_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}")
    return SCENARIOS[name]


def parse_priority_mix(spec: str) -> tuple[tuple[int, float], ...]:
    """Parse a ``"priority:weight,..."`` CLI string (e.g. ``"0:0.5,2:0.5"``)."""
    pairs: list[tuple[int, float]] = []
    for item in spec.split(","):
        priority, _, weight = item.partition(":")
        pairs.append((int(priority.strip()), float(weight or 1.0)))
    if not pairs:
        raise ValueError(f"empty priority mix {spec!r}")
    return tuple(pairs)


def _wave_kwargs(scenario: Scenario, num_requests: int) -> dict:
    """Arrival-wave sizing for ``wave`` scenarios: one wave per DAG stage.

    The DAG structures emit requests stage-major (see their prompt
    builders), so the waves are sized to the stages — all the trees'
    level-``s`` calls together, all the mappers then all the reducers —
    rather than to a fixed per-group count.
    """
    size = group_size(scenario)
    groups = -(-num_requests // size)  # ceil division
    if scenario.structure == "agent-tree":
        return {
            "wave_sizes": tuple(
                groups * scenario.fanout**level for level in range(scenario.num_turns)
            )
        }
    if scenario.structure == "map-reduce":
        return {"wave_sizes": (groups * scenario.fanout, groups)}
    return {"wave_size": size}


def _draw_priority(scenario: Scenario, rng: np.random.Generator) -> int:
    """Sample a priority class; skips the RNG entirely for the default mix.

    Skipping keeps the classic scenarios' random streams — and therefore
    their whole workloads — byte-identical to pre-priority versions.
    """
    if scenario.priority_mix == ((0, 1.0),):
        return 0
    priorities = np.asarray([p for p, _ in scenario.priority_mix])
    weights = np.asarray([w for _, w in scenario.priority_mix], dtype=np.float64)
    return int(rng.choice(priorities, p=weights / weights.sum()))


def _draw_prompt(
    rng: np.random.Generator, length: int, vocab_size: int, eos: int
) -> np.ndarray:
    prompt = rng.integers(1, vocab_size, size=length)
    prompt[prompt == eos] = 1  # keep EOS out of prompts
    return prompt


def generate_workload(
    scenario: Scenario | str,
    num_requests: int | None = None,
    vocab_size: int = 0,
    seed: int = 0,
    rate_scale: float = 1.0,
    eos_token_id: int | None = None,
    priority_mix: tuple[tuple[int, float], ...] | str | None = None,
    sessions: int | None = None,
) -> list[Request]:
    """Expand a scenario into a concrete, fully seeded request list.

    Parameters
    ----------
    scenario:
        A :class:`Scenario` or a name from :data:`SCENARIOS`.
    num_requests:
        Number of requests to generate (for structured scenarios this is
        the total across conversations / fan-out groups).  Alternatively
        pass ``sessions`` to size the workload in whole sessions.
    vocab_size:
        Model vocabulary size; prompt tokens are drawn from
        ``[1, vocab_size)`` excluding the EOS id.
    seed:
        Master seed; everything (arrivals, lengths, prompts, priorities,
        per-request sampling seeds) derives from it.
    rate_scale:
        Multiplies the scenario's arrival rate (``> 1`` compresses
        arrivals, loading the queue harder).
    eos_token_id:
        Stop token given to every request (default ``vocab_size - 1``).
    priority_mix:
        Override the scenario's priority mix — ``(priority, weight)``
        pairs or a ``"0:0.5,2:0.5"`` CLI string (the ``--priority-mix``
        flag lands here).
    sessions:
        Size the workload in *sessions* instead of raw requests: a
        ``"multiturn"`` scenario expands to ``sessions × num_turns``
        requests, a ``"fanout"`` one to ``sessions × fanout``, anything
        else to ``sessions`` independent requests.  Session arrivals draw
        per-session gaps from spawned generators, so a tens-of-thousands-
        of-sessions workload scales without entangling any
        session's timing with the total count.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if sessions is not None:
        if num_requests is not None:
            raise ValueError("pass num_requests or sessions, not both")
        if sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {sessions}")
        num_requests = sessions * group_size(scenario)
    if num_requests is None:
        raise ValueError("one of num_requests or sessions is required")
    if priority_mix is not None:
        if isinstance(priority_mix, str):
            priority_mix = parse_priority_mix(priority_mix)
        scenario = Scenario(
            **{
                **scenario.__dict__,
                "priority_mix": tuple((int(p), float(w)) for p, w in priority_mix),
            }
        )
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if vocab_size < 4:
        raise ValueError(f"vocab_size must be >= 4, got {vocab_size}")
    if rate_scale <= 0:
        raise ValueError(f"rate_scale must be positive, got {rate_scale}")
    eos = vocab_size - 1 if eos_token_id is None else int(eos_token_id)

    # crc32, not hash(): str hashing is salted per process and would break
    # run-to-run workload determinism.
    root = np.random.SeedSequence(entropy=(seed, zlib.crc32(scenario.name.encode())))
    traffic_seq, request_seq = root.spawn(2)
    rng = np.random.default_rng(traffic_seq)
    arrival_kwargs = {}
    if scenario.arrival == "session":
        arrival_kwargs["session_length"] = scenario.num_turns
    elif scenario.arrival == "wave":
        arrival_kwargs.update(_wave_kwargs(scenario, num_requests))
    process = get_arrival_process(
        scenario.arrival, rate=scenario.rate * rate_scale, **arrival_kwargs
    )
    arrivals = process.arrival_times(num_requests, rng)
    request_seeds = request_seq.generate_state(num_requests)

    if scenario.structure == "multiturn":
        prompts = _multiturn_prompts(scenario, num_requests, vocab_size, eos, rng)
    elif scenario.structure == "fanout":
        prompts = _fanout_prompts(scenario, num_requests, vocab_size, eos, rng)
    elif scenario.structure == "copy":
        prompts = _copy_prompts(scenario, num_requests, vocab_size, eos, rng)
    elif scenario.structure == "agent-tree":
        prompts = _agent_tree_prompts(scenario, num_requests, vocab_size, eos, rng)
    elif scenario.structure == "map-reduce":
        prompts = _map_reduce_prompts(scenario, num_requests, vocab_size, eos, rng)
    else:
        prompts = None  # drawn inline below, preserving the classic stream

    requests: list[Request] = []
    for i in range(num_requests):
        session_id = None
        if prompts is None:
            prompt_len = int(
                rng.integers(scenario.prompt_len[0], scenario.prompt_len[1] + 1)
            )
            max_new = int(rng.integers(scenario.max_new[0], scenario.max_new[1] + 1))
            prompt = _draw_prompt(rng, prompt_len, vocab_size, eos)
            request_id = f"{scenario.name}-{i:04d}"
        else:
            request_id, prompt, session_id = prompts[i]
            max_new = int(rng.integers(scenario.max_new[0], scenario.max_new[1] + 1))
        requests.append(
            Request(
                request_id=request_id,
                prompt_ids=prompt,
                max_new_tokens=max_new,
                temperature=scenario.temperature,
                top_k=scenario.top_k,
                stop_tokens=(eos,),
                seed=int(request_seeds[i]),
                arrival_time=float(arrivals[i]),
                priority=_draw_priority(scenario, rng),
                session_id=session_id,
            )
        )
    return requests


def _multiturn_prompts(
    scenario: Scenario,
    num_requests: int,
    vocab_size: int,
    eos: int,
    rng: np.random.Generator,
) -> list[tuple[str, np.ndarray, str | None]]:
    """Conversations: turn ``t``'s prompt extends turn ``t-1``'s prompt.

    Every conversation opens with its own system prompt; each turn appends
    a fresh user message.  Consecutive turns therefore share a strictly
    growing token prefix — the pattern the prefix cache converts into
    adopted blocks.  All turns of one conversation carry the same
    ``session_id``.
    """
    out: list[tuple[str, np.ndarray, str | None]] = []
    conversation = -1
    history: np.ndarray | None = None
    for i in range(num_requests):
        turn = i % scenario.num_turns
        if turn == 0:
            conversation += 1
            system_len = int(
                rng.integers(
                    scenario.shared_prefix_len[0], scenario.shared_prefix_len[1] + 1
                )
            )
            history = _draw_prompt(rng, system_len, vocab_size, eos)
        user_len = int(rng.integers(scenario.prompt_len[0], scenario.prompt_len[1] + 1))
        user = _draw_prompt(rng, user_len, vocab_size, eos)
        history = np.concatenate([history, user])
        session = f"{scenario.name}-c{conversation:03d}"
        out.append((f"{session}t{turn}", history.copy(), session))
    return out


def _copy_prompts(
    scenario: Scenario,
    num_requests: int,
    vocab_size: int,
    eos: int,
    rng: np.random.Generator,
) -> list[tuple[str, np.ndarray, str | None]]:
    """Copy-heavy prompts: a fresh head followed by a tiled motif.

    A ``copy_rate`` fraction of each prompt is the same short motif
    repeated back to back, so the prompt's trailing tokens recur earlier
    in the prompt with a known continuation.
    """
    out: list[tuple[str, np.ndarray]] = []
    rate = scenario.copy_rate
    for i in range(num_requests):
        head_len = int(
            rng.integers(scenario.prompt_len[0], scenario.prompt_len[1] + 1)
        )
        head = _draw_prompt(rng, head_len, vocab_size, eos)
        parts = [head]
        if rate > 0:
            motif_len = max(
                int(
                    rng.integers(
                        scenario.shared_prefix_len[0], scenario.shared_prefix_len[1] + 1
                    )
                ),
                1,
            )
            motif = _draw_prompt(rng, motif_len, vocab_size, eos)
            # copied/(head+copied) == copy_rate, at motif granularity.
            copied_len = int(round(head_len * rate / (1.0 - rate)))
            repeats = max(-(-copied_len // motif_len), 2)  # >= 2 full motifs
            parts.append(np.tile(motif, repeats))
        out.append((f"{scenario.name}-{i:04d}", np.concatenate(parts), None))
    return out


def _fanout_prompts(
    scenario: Scenario,
    num_requests: int,
    vocab_size: int,
    eos: int,
    rng: np.random.Generator,
) -> list[tuple[str, np.ndarray, str | None]]:
    """Fan-out groups: ``fanout`` requests share one context + private tails.

    Group members share a ``session_id`` (the group handle); unlike chat
    turns they arrive together.
    """
    out: list[tuple[str, np.ndarray, str | None]] = []
    group = -1
    context: np.ndarray | None = None
    for i in range(num_requests):
        member = i % scenario.fanout
        if member == 0:
            group += 1
            context_len = int(
                rng.integers(
                    scenario.shared_prefix_len[0], scenario.shared_prefix_len[1] + 1
                )
            )
            context = _draw_prompt(rng, context_len, vocab_size, eos)
        suffix_len = int(
            rng.integers(scenario.prompt_len[0], scenario.prompt_len[1] + 1)
        )
        suffix = _draw_prompt(rng, suffix_len, vocab_size, eos)
        session = f"{scenario.name}-g{group:03d}"
        out.append(
            (f"{session}r{member}", np.concatenate([context, suffix]), session)
        )
    return out


def _agent_tree_prompts(
    scenario: Scenario,
    num_requests: int,
    vocab_size: int,
    eos: int,
    rng: np.random.Generator,
) -> list[tuple[str, np.ndarray, str | None]]:
    """Agent call trees: every node extends its parent's *full* prompt.

    One ``shared_prefix_len`` system prompt is drawn for the *whole
    workload* — every tree of agent calls runs under it, the way a real
    agent harness reuses one system prompt across tasks.  Each tree's
    root extends it with a private task statement, and a ``fanout``-ary
    tree of depth ``num_turns`` grows below it (node ``k``'s parent is
    ``(k - 1) // fanout``), each node extending its parent's full prompt
    with a private suffix — so siblings share their parent's entire
    context and the prefix trie grows one deep chain per root-to-leaf
    path.

    Requests are emitted *stage-major*: every tree's roots first, then
    every tree's second level, and so on — a batch agent harness
    running one DAG stage across all tasks as one dispatch wave (the
    ``wave`` arrival sizes its waves to exactly these stages).  That
    ordering is the tiered pool's designed stress: a parent's span is
    demanded at stage ``s``, sits idle through every *other* tree's
    stage-``s`` churn — going cold under a tight pool — and is
    re-demanded at stage ``s + 1`` when its children fan out, which is
    the demand-promotion path.
    """
    size = group_size(scenario)
    branch, depth = scenario.fanout, scenario.num_turns
    trees = -(-num_requests // size)  # ceil division
    system_len = int(
        rng.integers(scenario.shared_prefix_len[0], scenario.shared_prefix_len[1] + 1)
    )
    system = _draw_prompt(rng, system_len, vocab_size, eos)
    per_tree: list[list[np.ndarray]] = []
    for _ in range(trees):
        node_prompts: list[np.ndarray] = []
        for node in range(size):
            suffix_len = int(
                rng.integers(scenario.prompt_len[0], scenario.prompt_len[1] + 1)
            )
            suffix = _draw_prompt(rng, suffix_len, vocab_size, eos)
            # The root's suffix is the tree's task statement.
            parent = system if node == 0 else node_prompts[(node - 1) // branch]
            node_prompts.append(np.concatenate([parent, suffix]))
        per_tree.append(node_prompts)
    out: list[tuple[str, np.ndarray, str | None]] = []
    start = 0
    for level in range(depth):
        level_size = branch**level
        for tree, node_prompts in enumerate(per_tree):
            session = f"{scenario.name}-t{tree:03d}"
            for node in range(start, start + level_size):
                out.append((f"{session}n{node:02d}", node_prompts[node].copy(), session))
        start += level_size
    return out[:num_requests]


def _map_reduce_prompts(
    scenario: Scenario,
    num_requests: int,
    vocab_size: int,
    eos: int,
    rng: np.random.Generator,
) -> list[tuple[str, np.ndarray, str | None]]:
    """Map waves with a fan-in reducer sharing the mappers' context.

    One ``shared_prefix_len`` system prompt is drawn for the whole
    workload; each group extends it with a private job header to form
    the group's context.  ``fanout`` mappers extend the context with
    private shard suffixes, and the group's reducer prompt is the
    context joined with a digest (the leading third) of every mapper's
    shard — the fan-in join.

    Requests are emitted *stage-major*: every group's mappers form the
    map wave, then every group's reducers form the reduce wave (the
    ``wave`` arrival sizes its waves to exactly these stages) — the
    barrier of a real map-reduce run, where no reducer is dispatched
    until the map phase drains.  A group's context therefore sits idle
    through every other group's map churn — going cold under a tight
    pool — and is re-demanded by its reducer in the second wave, which
    is the demand-promotion path.
    """
    groups = -(-num_requests // group_size(scenario))  # ceil division
    system_len = int(
        rng.integers(scenario.shared_prefix_len[0], scenario.shared_prefix_len[1] + 1)
    )
    system = _draw_prompt(rng, system_len, vocab_size, eos)
    mappers: list[tuple[str, np.ndarray, str | None]] = []
    reducers: list[tuple[str, np.ndarray, str | None]] = []
    for group in range(groups):
        job_len = int(
            rng.integers(scenario.prompt_len[0], scenario.prompt_len[1] + 1)
        )
        job = _draw_prompt(rng, job_len, vocab_size, eos)
        context = np.concatenate([system, job])
        session = f"{scenario.name}-g{group:03d}"
        digests: list[np.ndarray] = []
        for member in range(scenario.fanout):
            shard_len = int(
                rng.integers(scenario.prompt_len[0], scenario.prompt_len[1] + 1)
            )
            shard = _draw_prompt(rng, shard_len, vocab_size, eos)
            digests.append(shard[: max(1, shard.size // 3)])
            mappers.append(
                (f"{session}m{member}", np.concatenate([context, shard]), session)
            )
        reducers.append((f"{session}reduce", np.concatenate([context, *digests]), session))
    return (mappers + reducers)[:num_requests]
