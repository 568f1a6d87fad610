"""Bounded pools and the per-request footprint ``submit`` checks.

``ServeEngine.submit`` refuses a request whose worst-case KV footprint
exceeds ``max_blocks``, so an admitted request can always be served once
every other one is preempted.  These tests pin both halves: a request at
its footprint is served to completion alone, and on the tightest pool
that accepts a whole workload — prefix sharing, copy-on-write forks and
preemption included — every request completes with ``generate()``'s
tokens and the pool's bookkeeping holds after every step.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve import Request, ServeEngine, generate_workload


def make_model(policy=None, seed=5):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(seed), policy=policy
    )
    model.eval()
    return model


def reference(model, request):
    return generate(
        model,
        request.prompt_ids,
        max_new_tokens=request.max_new_tokens,
        temperature=request.temperature,
        top_k=request.top_k,
        rng=np.random.default_rng(request.seed),
        stop_tokens=request.stop_tokens,
    )


MODEL = make_model()
MAX_POS = MODEL.config.max_position


@pytest.mark.parametrize("block_size", [1, 2, 4])
@pytest.mark.parametrize("prefix_caching", [False, True], ids=["plain", "prefix"])
@pytest.mark.parametrize(
    "prompt_len, max_new",
    [(1, 1), (1, 6), (5, 1), (5, 4), (8, 9), (MAX_POS - 2, 3), (MAX_POS + 7, 5)],
)
def test_request_at_its_footprint_is_served_alone(
    block_size, prefix_caching, prompt_len, max_new, serve_checked, fixed_timer
):
    """On a pool of exactly the footprint the request is accepted and
    served; one block fewer and ``submit`` refuses it."""
    probe = ServeEngine(MODEL, block_size=block_size, prefix_caching=prefix_caching)
    request = Request(
        "r", np.arange(prompt_len) % (MODEL.config.vocab_size - 2) + 1,
        max_new_tokens=max_new,
    )
    footprint = probe._footprint_blocks(request)
    engine = ServeEngine(
        MODEL, block_size=block_size, max_blocks=footprint,
        prefix_caching=prefix_caching, timer=fixed_timer,
    )
    report = serve_checked(engine, [request])
    np.testing.assert_array_equal(report.by_id("r").tokens, reference(MODEL, request))
    if footprint > 1:
        tighter = ServeEngine(
            MODEL, block_size=block_size, max_blocks=footprint - 1,
            prefix_caching=prefix_caching,
        )
        with pytest.raises(ValueError, match="'r'"):
            tighter.submit(request)


SHARING = ("chat-multiturn", "agent-fanout", "agent-tree", "map-reduce")


@pytest.mark.parametrize("seed", range(12), ids=lambda s: f"seed{s:02d}")
def test_tightest_accepting_pool_serves_every_request(seed, serve_checked, fixed_timer):
    """``max_blocks`` equal to the largest footprint in the workload: the
    scheduler must preempt its way through without ever running dry."""
    rng = np.random.default_rng([77, seed])
    policy = ("fp64-ref", "bf16-fp8kv")[seed % 2]
    model = make_model(policy, seed=seed)
    workload = generate_workload(
        SHARING[int(rng.integers(len(SHARING)))],
        num_requests=6,
        vocab_size=model.config.vocab_size,
        seed=seed,
    )
    kwargs = dict(
        max_batch_size=int(rng.integers(2, 5)),
        block_size=(2, 4)[int(rng.integers(2))],
        prefix_caching=bool(rng.integers(2)),
        prefill_budget=(None, 3)[int(rng.integers(2))],
        backend=("reference", "compiled")[int(rng.integers(2))],
    )
    probe = ServeEngine(model, **kwargs)
    tightest = max(probe._footprint_blocks(r) for r in workload)
    engine = ServeEngine(model, max_blocks=tightest, timer=fixed_timer, **kwargs)
    report = serve_checked(engine, workload)
    assert len(report.completed) == len(workload), kwargs
    for request in workload:
        np.testing.assert_array_equal(
            report.by_id(request.request_id).tokens,
            reference(model, request),
            err_msg=f"{request.request_id} under {kwargs}, max_blocks={tightest}",
        )
