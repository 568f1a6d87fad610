"""Request/response types and per-request runtime state for the server.

A :class:`Request` is what a client submits: a prompt, decode limits,
sampling parameters, and an explicit ``seed``.  Each request gets its own
:class:`numpy.random.Generator` built from that seed, so its sampled
tokens are a pure function of (model, prompt, parameters, seed) — never of
which other requests happened to share a batch, or of admission timing.
Decoding the same request through :func:`repro.nn.generation.generate`
with ``rng=np.random.default_rng(seed)`` reproduces the served tokens
exactly (bit-exactly under greedy decoding; the test suite asserts both).

The same purity is what makes **preemption** legal: a preempted request's
state is simply discarded and the request re-queued — re-running it from
the prompt with a fresh generator reproduces the identical token stream,
so the client observes only added latency, never a changed answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Request:
    """One inference request.

    Attributes
    ----------
    request_id:
        Client-chosen identifier (unique within a workload).
    prompt_ids:
        1-D token-id array; must be non-empty.
    max_new_tokens:
        Decode budget (>= 1); the request finishes with reason ``"length"``
        when it is exhausted.
    temperature / top_k:
        Sampling parameters, with the same semantics as
        :func:`repro.nn.generation.generate`.
    stop_tokens:
        Token ids that finish the request early (reason ``"stop"``); the
        stop token is kept in the output.
    seed:
        Seed of the request's private sampling generator.
    arrival_time:
        Seconds (from the workload epoch) at which the request reaches the
        server queue.
    session_id:
        Optional conversation/session handle shared by related requests
        (the turns of one chat, the members of one fan-out group).  The
        serving engine ignores it; it records which requests belong to
        one session.
    """

    request_id: str
    prompt_ids: np.ndarray
    max_new_tokens: int = 16
    temperature: float = 0.0
    top_k: int | None = None
    stop_tokens: tuple[int, ...] = ()
    seed: int = 0
    arrival_time: float = 0.0
    session_id: str | None = None

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt_ids, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "prompt_ids", prompt)
        if prompt.size == 0:
            raise ValueError("prompt_ids must contain at least one token")
        if self.max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        if self.temperature < 0:
            raise ValueError(f"temperature must be non-negative, got {self.temperature}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.arrival_time < 0:
            raise ValueError(f"arrival_time must be >= 0, got {self.arrival_time}")
        object.__setattr__(self, "stop_tokens", tuple(int(t) for t in self.stop_tokens))


@dataclass
class RequestState:
    """Mutable runtime state of an admitted request (engine-internal).

    ``prompt_window`` is the trailing ``max_position`` slice of the prompt
    — the tokens actually prefilled; ``prefill_pos`` counts how many of
    them are already in the KV cache (cached-prefix adoption plus computed
    chunks), so chunked prefill resumes where the last chunk stopped.
    ``queue_seq`` is the request's original admission-queue sequence
    number: a preempted request re-enters the queue *in front of* later
    arrivals because it keeps this number.
    """

    request: Request
    rng: np.random.Generator
    kv: object  # SequenceKV while cached; released once the window slides
    prompt_window: np.ndarray
    tokens: list[int] = field(default_factory=list)
    produced: int = 0
    prefill_pos: int = 0
    adopted_tokens: int = 0  # prompt positions adopted from the prefix cache
    slid: bool = False  # context exceeded max_position: per-row full forwards
    finish_reason: str | None = None
    admitted_time: float = 0.0
    queue_seq: int = 0
    token_times: list[float] = field(default_factory=list)

    @property
    def needs_prefill(self) -> bool:
        """True while prompt-window positions remain to prefill."""
        return self.prefill_pos < len(self.prompt_window)

    @property
    def stop_set(self) -> frozenset[int]:
        return frozenset(self.request.stop_tokens)

    def record_token(self, token: int, now: float) -> None:
        """Append a sampled token and its (virtual-clock) timestamp."""
        self.tokens.append(int(token))
        self.token_times.append(float(now))
        self.produced += 1


@dataclass(frozen=True)
class CompletedRequest:
    """A finished request with its output tokens and latency timestamps.

    All times are in the engine's virtual-clock seconds (compute time, with
    idle gaps skipped), measured at the end of the step that produced the
    event.
    """

    request_id: str
    tokens: np.ndarray  # prompt followed by the generated tokens
    prompt_len: int
    generated: int
    finish_reason: str  # "stop" or "length"
    arrival_time: float
    admitted_time: float
    first_token_time: float
    finish_time: float
    prefix_tokens_reused: int = 0  # prompt positions adopted from the prefix cache
    preemptions: int = 0  # times this request was preempted and re-run

    @property
    def new_tokens(self) -> np.ndarray:
        """Only the generated tokens (without the prompt)."""
        return self.tokens[self.prompt_len :]

    @property
    def ttft(self) -> float:
        """Time to first token, from arrival (queueing included)."""
        return self.first_token_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        """Time spent queued before a decode slot freed up."""
        return self.admitted_time - self.arrival_time
