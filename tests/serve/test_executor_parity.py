"""Golden-token parity: the compiled executor is byte-identical to reference.

The tentpole guarantee of the execution-backend layer: under every
precision preset (fp64-ref through bf16-fp8kv) and on every serving path
— the classic four scenarios, prefix caching, chunked prefill,
preempt-then-rerun, and prompt-lookup speculation — an engine on the
``compiled`` backend serves **exactly** the token streams the
``reference`` backend serves.  The compiled plan pre-resolves each
layer's op sequence, batches the quantize-on-write KV path, and reuses
mask/context/logit buffers; none of that may move a single bit.
"""

import types

import numpy as np
import pytest

import repro.nn.executor as executor_module

from repro.nn.config import get_config
from repro.nn.executor import (
    EXECUTORS,
    CompiledExecutor,
    ReferenceExecutor,
    resolve_executor,
)
from repro.nn.generation import generate, generate_batch
from repro.nn.kv_cache import KVCache
from repro.nn.model import OPTLanguageModel
from repro.serve import Request, ServeEngine, generate_workload

#: Every registered precision preset, weakest to strongest quantization.
POLICIES = ("fp64-ref", "fp32", "fp16", "bf16", "bf16-fp8kv")
CLASSIC_FOUR = ("steady", "bursty", "chat", "codegen")
#: Backends that run the compiled executor's block body.
FAST_BACKENDS = ("compiled", "sharded:2:sim", "sharded:4:sim")


def close_executor(executor):
    close = getattr(executor, "close", None)
    if close is not None:
        close()


def make_model(policy=None, seed=11):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(seed), policy=policy
    )
    model.eval()
    return model


def workload(scenario, count=4, seed=0):
    return generate_workload(scenario, num_requests=count, vocab_size=64, seed=seed)


def served_tokens(model, requests, backend, **engine_kwargs):
    engine = ServeEngine(model, backend=backend, **engine_kwargs)
    report = engine.serve(requests)
    assert len(report.completed) == len(requests)
    return report, {
        r.request_id: report.by_id(r.request_id).tokens for r in requests
    }


def assert_backend_parity(model, requests, **engine_kwargs):
    """Serve twice — reference then compiled — and demand identical bytes."""
    ref_report, ref = served_tokens(model, requests, "reference", **engine_kwargs)
    comp_report, comp = served_tokens(model, requests, "compiled", **engine_kwargs)
    for rid, tokens in ref.items():
        np.testing.assert_array_equal(
            comp[rid], tokens, err_msg=f"request {rid} diverged across backends"
        )
    return ref_report, comp_report


class TestClassicScenarios:
    """ISSUE acceptance: parity on the classic four, every preset."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scenario", CLASSIC_FOUR)
    def test_compiled_matches_reference(self, scenario, policy, fixed_timer):
        model = make_model(policy)
        assert_backend_parity(
            model, workload(scenario), max_batch_size=4, timer=fixed_timer
        )


class TestSpeculationParity:
    """summarize-copy with prompt-lookup speculation, every preset."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_speculative_parity_and_generate_agreement(self, policy, fixed_timer):
        model = make_model(policy)
        requests = workload("summarize-copy", count=6)
        _, comp_report = assert_backend_parity(
            model,
            requests,
            max_batch_size=4,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )
        # Speculation actually engaged on the compiled backend, and the
        # served stream still equals the offline generate() reference.
        assert comp_report.metrics["draft_accepted"] > 0
        for request in requests:
            expected = generate(
                model,
                request.prompt_ids,
                max_new_tokens=request.max_new_tokens,
                temperature=request.temperature,
                top_k=request.top_k,
                rng=np.random.default_rng(request.seed),
                stop_tokens=request.stop_tokens,
            )
            np.testing.assert_array_equal(
                comp_report.by_id(request.request_id).tokens, expected
            )


class TestSchedulingPaths:
    """Prefix caching, chunked prefill, preemption — the KV-heavy paths."""

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_prefix_caching_parity(self, policy, fixed_timer):
        model = make_model(policy)
        prompt = np.array([1, 2, 3, 1, 2, 3, 1, 2])
        requests = [
            Request("writer", prompt, max_new_tokens=8, arrival_time=0.0),
            Request("twin", prompt.copy(), max_new_tokens=8, arrival_time=0.05),
        ]
        _, comp_report = assert_backend_parity(
            model,
            requests,
            max_batch_size=2,
            block_size=4,
            prefix_caching=True,
            timer=fixed_timer,
        )
        assert comp_report.pool_stats["blocks_adopted"] > 0

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_chunked_prefill_parity(self, policy, fixed_timer):
        model = make_model(policy)
        assert_backend_parity(
            model,
            workload("chat"),
            max_batch_size=4,
            prefill_budget=3,
            timer=fixed_timer,
        )

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_preempt_then_rerun_parity(self, policy, fixed_timer):
        model = make_model(policy)
        victim = Request(
            "victim", np.array([9, 10, 11, 9, 10, 11]), max_new_tokens=8, priority=0
        )
        hogs = [
            Request(f"hog{i}", np.arange(1 + i, 6 + i), max_new_tokens=10, priority=1)
            for i in range(2)
        ]
        _, comp_report = assert_backend_parity(
            model,
            hogs + [victim],
            max_batch_size=3,
            block_size=2,
            initial_blocks=4,
            max_blocks=8,
            timer=fixed_timer,
        )
        assert comp_report.metrics["preempted_count"] >= 1


class TestGeneratePath:
    """The offline generate()/generate_batch() entry points honor backend=."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_generate_backend_parity(self, policy):
        model = make_model(policy)
        prompt = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        ref = generate(model, prompt, max_new_tokens=10, temperature=0.0)
        comp = generate(
            model, prompt, max_new_tokens=10, temperature=0.0, backend="compiled"
        )
        np.testing.assert_array_equal(comp, ref)

    def test_generate_sampled_backend_parity(self):
        """Sampled decoding: identical RNG seeds walk identical streams."""
        model = make_model("bf16")
        prompt = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        ref = generate(
            model, prompt, max_new_tokens=10, temperature=0.8,
            rng=np.random.default_rng(99),
        )
        comp = generate(
            model, prompt, max_new_tokens=10, temperature=0.8,
            rng=np.random.default_rng(99), backend="compiled",
        )
        np.testing.assert_array_equal(comp, ref)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_generate_batch_backend_parity(self, policy, backend):
        """generate() and generate_batch() (batch > 1 through the cached
        attention core) on every backend built on the compiled block."""
        model = make_model(policy)
        executor = resolve_executor(backend, model)
        try:
            prompt = np.array([3, 1, 4, 1, 5, 9, 2, 6])
            np.testing.assert_array_equal(
                generate(
                    model, prompt, max_new_tokens=10, temperature=0.0,
                    backend=executor,
                ),
                generate(model, prompt, max_new_tokens=10, temperature=0.0),
            )
            prompts = [np.array([1, 2, 3, 1, 2, 3]), np.array([4, 5, 6, 7, 4, 5])]
            ref = generate_batch(model, prompts, max_new_tokens=8, temperature=0.0)
            got = generate_batch(
                model, prompts, max_new_tokens=8, temperature=0.0,
                backend=executor,
            )
            for row, expected in zip(got, ref):
                np.testing.assert_array_equal(row, expected)
        finally:
            close_executor(executor)


class TestMalformedInputs:
    """Every backend rejects bad forward inputs with ``ValueError`` — never
    an ``IndexError``, an unpacking error, or silently wrong logits."""

    @staticmethod
    def cases(model):
        vocab = model.config.vocab_size
        ids = np.array([[1, 2, 3]])
        full = model.new_kv_cache
        return [
            ("short cache, cached", lambda ex: ex.forward_with_cache(ids, KVCache(1))),
            ("short cache, ragged", lambda ex: ex.forward_ragged(ids, [KVCache(1)], [3])),
            ("1-D ids, cached", lambda ex: ex.forward_with_cache(ids[0], full())),
            ("1-D ids, ragged", lambda ex: ex.forward_ragged(ids[0], [full()], [3])),
            (
                "out-of-vocab id, cached",
                lambda ex: ex.forward_with_cache(np.array([[1, vocab]]), full()),
            ),
            (
                "out-of-vocab id, ragged",
                lambda ex: ex.forward_ragged(np.array([[1, vocab]]), [full()], [2]),
            ),
            ("new_lens 0", lambda ex: ex.forward_ragged(ids, [full()], [0])),
            ("new_lens > max_new", lambda ex: ex.forward_ragged(ids, [full()], [4])),
            ("last_k 0", lambda ex: ex.forward_ragged(ids, [full()], [3], last_k=0)),
            (
                "last_k > max_new",
                lambda ex: ex.forward_ragged(ids, [full()], [3], last_k=4),
            ),
        ]

    @pytest.mark.parametrize("backend", ("reference",) + FAST_BACKENDS)
    def test_malformed_inputs_raise_value_error(self, backend):
        model = make_model()
        executor = resolve_executor(backend, model)
        try:
            for label, call in self.cases(model):
                with pytest.raises(ValueError):
                    call(executor)
                    pytest.fail(f"{label}: no error on {backend}")
        finally:
            close_executor(executor)


class TestDegenerateRaggedShapes:
    """Edge shapes of ``forward_ragged``: every backend does what the
    reference does, not whatever NumPy raises on an empty reduction."""

    @pytest.mark.parametrize("backend", ("reference",) + FAST_BACKENDS)
    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_empty_batch_returns_empty_logits(self, policy, backend):
        model = make_model(policy)
        executor = resolve_executor(backend, model)
        try:
            logits = executor.forward_ragged(np.zeros((0, 1)), [], [])
            assert logits.shape == (0, 1, model.config.vocab_size)
        finally:
            close_executor(executor)

    @pytest.mark.parametrize("backend", ("reference",) + FAST_BACKENDS)
    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_zero_width_ids_name_new_lens(self, policy, backend):
        model = make_model(policy)
        executor = resolve_executor(backend, model)
        try:
            with pytest.raises(ValueError, match=r"new_lens must be in \[1, 0\]"):
                executor.forward_ragged(
                    np.zeros((1, 0), dtype=np.int64), [model.new_kv_cache()], [1]
                )
        finally:
            close_executor(executor)


class TestExecutorContract:
    def test_registry_and_resolution(self):
        model = make_model()
        assert set(EXECUTORS) == {"reference", "compiled"}
        assert isinstance(resolve_executor(None, model), ReferenceExecutor)
        assert isinstance(resolve_executor("compiled", model), CompiledExecutor)
        inst = CompiledExecutor(model)
        assert resolve_executor(inst, model) is inst
        with pytest.raises(KeyError, match="unknown execution backend"):
            resolve_executor("nonsense", model)

    def test_engine_reports_backend_name(self):
        assert ServeEngine(make_model()).backend == "reference"
        assert ServeEngine(make_model(), backend="compiled").backend == "compiled"

    def test_compiled_rejects_training_mode(self):
        model = make_model()
        model.train()
        executor = CompiledExecutor(model)
        with pytest.raises(RuntimeError, match="eval"):
            executor.forward_with_cache(np.array([[1, 2, 3]]), model.new_kv_cache())

    def test_plan_invalidated_on_policy_change(self):
        """set_policy after a compiled forward must rebuild the plan: the
        next forward matches a fresh reference under the *new* policy."""
        model = make_model("fp64-ref")
        executor = CompiledExecutor(model)
        prompt = np.array([[1, 2, 3, 4]])
        np.testing.assert_array_equal(executor.forward(prompt), model(prompt))
        model.set_policy("bf16-fp8kv")
        np.testing.assert_array_equal(executor.forward(prompt), model(prompt))

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_ragged_pad_lanes_never_see_uninitialized_memory(self, policy, monkeypatch):
        """Pad lanes of the context workspace are never written; they must
        start at zero, as the reference's, not as whatever memory held."""
        garbage = types.ModuleType("numpy")
        garbage.__dict__.update(np.__dict__)
        garbage.empty = lambda shape, dtype=np.float64: np.full(
            shape, np.inf if np.dtype(dtype).kind == "f" else 0, dtype
        )
        monkeypatch.setattr(executor_module, "np", garbage)
        model = make_model(policy)
        executor = CompiledExecutor(model)
        caches = [model.new_kv_cache() for _ in range(2)]
        with np.errstate(invalid="raise"):
            executor.forward_ragged(np.array([[0, 0, 0, 5], [1, 2, 3, 4]]), caches, [1, 4])

