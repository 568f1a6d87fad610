"""The externally-driven engine interface.

``begin`` / ``submit`` / ``step_at`` / ``report`` decompose the serve
loop so a caller that owns the clock and the arrival stream can drive the
engine; this file pins that the decomposition is faithful (stepping by
hand reproduces ``serve()`` exactly), that ``submit`` rejects bad
requests without enqueuing them, and that ``serve()`` refuses a workload
holding one before its first step.
"""

import numpy as np
import pytest

from repro.nn.generation import generate
from repro.serve import Request, ServeEngine, generate_workload


class _Timer:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.001
        return self.t


def requests(n=5):
    return [
        Request(f"r{i}", np.array([1 + i, 2, 3]), max_new_tokens=4,
                arrival_time=0.001 * i)
        for i in range(n)
    ]


class TestStepwiseFaithfulness:
    def test_manual_stepping_reproduces_serve(self, model):
        """Driving the engine by hand is the serve() loop, verbatim."""
        served = ServeEngine(model, max_batch_size=2, timer=_Timer()).serve(requests())

        engine = ServeEngine(model, max_batch_size=2, timer=_Timer())
        pending = sorted(requests(), key=lambda r: r.arrival_time)
        engine.begin()
        now, cursor = 0.0, 0
        while cursor < len(pending) or engine.has_work:
            while cursor < len(pending) and pending[cursor].arrival_time <= now:
                engine.submit(pending[cursor])
                cursor += 1
            if not engine.has_work:
                now = pending[cursor].arrival_time
                continue
            now += engine.step_at(now)
        manual = engine.report()

        assert len(manual.completed) == len(served.completed)
        for c_served in served.completed:
            np.testing.assert_array_equal(
                manual.by_id(c_served.request_id).tokens, c_served.tokens
            )
        assert manual.metrics["makespan_s"] == pytest.approx(
            served.metrics["makespan_s"]
        )
        assert manual.metrics["steps"] == served.metrics["steps"]

    def test_step_before_begin_raises(self, model):
        engine = ServeEngine(model)
        with pytest.raises(RuntimeError, match="begin"):
            engine.step_at(0.0)
        with pytest.raises(RuntimeError, match="begin"):
            engine.report()

    def test_begin_resets_metrics(self, model):
        engine = ServeEngine(model, timer=_Timer())
        engine.serve(requests(2))
        assert engine.report().metrics["requests_completed"] == 2
        engine.begin()
        assert engine.report().metrics["requests_completed"] == 0

    def test_report_carries_raw_recorder(self, model):
        engine = ServeEngine(model, timer=_Timer())
        report = engine.serve(requests(2))
        assert report.recorder is not None
        assert len(report.recorder.completed) == 2


class TestSubmitValidation:
    @pytest.mark.parametrize("bad_id", [-1, "vocab"])
    def test_out_of_vocab_prompt_is_rejected_and_not_enqueued(self, model, bad_id):
        vocab = model.config.vocab_size
        bad_id = vocab if bad_id == "vocab" else bad_id
        engine = ServeEngine(model, timer=_Timer())
        engine.begin()
        with pytest.raises(ValueError, match="'bad-7'"):
            engine.submit(Request("bad-7", np.array([1, bad_id, 2])))
        assert engine.scheduler.queue_depth == 0
        assert not engine.has_work

    @pytest.mark.parametrize("bad_stop", [-1, "vocab"])
    def test_out_of_vocab_stop_token_is_rejected_and_not_enqueued(self, model, bad_stop):
        vocab = model.config.vocab_size
        bad_stop = vocab if bad_stop == "vocab" else bad_stop
        engine = ServeEngine(model, timer=_Timer())
        engine.begin()
        request = Request("stop-3", np.array([1, 2, 3]), stop_tokens=(5, bad_stop))
        with pytest.raises(ValueError, match=rf"'stop-3'.*\[{bad_stop}\]"):
            engine.submit(request)
        assert engine.scheduler.queue_depth == 0
        assert not engine.has_work

    def test_in_vocab_stop_tokens_are_accepted(self, model):
        vocab = model.config.vocab_size
        engine = ServeEngine(model, timer=_Timer())
        engine.begin()
        engine.submit(Request("ok", np.array([1, 2, 3]), stop_tokens=(0, vocab - 1)))
        assert engine.scheduler.queue_depth == 1

    def test_valid_neighbour_still_serves_generate_tokens(self, model):
        """A rejected submit leaves the batch it would have joined intact."""
        engine = ServeEngine(model, max_batch_size=4, timer=_Timer())
        engine.begin()
        good = Request("good", np.array([5, 9, 3, 7]), max_new_tokens=6)
        engine.submit(good)
        with pytest.raises(ValueError, match="'bad'"):
            engine.submit(Request("bad", np.array([2, model.config.vocab_size + 3])))
        now = 0.0
        while engine.has_work:
            now += engine.step_at(now)
        report = engine.report()
        assert [c.request_id for c in report.completed] == ["good"]
        expected = generate(
            model,
            good.prompt_ids,
            max_new_tokens=good.max_new_tokens,
            temperature=good.temperature,
            rng=np.random.default_rng(good.seed),
        )
        np.testing.assert_array_equal(report.by_id("good").tokens, expected)


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


def drain(engine, now=0.0):
    while engine.has_work:
        now += engine.step_at(now)
    return engine.report()


class TestPoolFootprint:
    """A request that cannot fit a bounded pool even alone is refused at
    ``submit``; admitted, its ``reserve`` raised ``PoolExhaustedError`` out
    of the step and every other request was lost with it."""

    @pytest.mark.parametrize("prefix_caching, max_blocks", [(False, 2), (True, 3)])
    def test_oversized_request_is_rejected_and_the_rest_serve(
        self, model, prefix_caching, max_blocks
    ):
        engine = ServeEngine(
            model, max_batch_size=2, block_size=4, max_blocks=max_blocks,
            prefix_caching=prefix_caching, timer=_Timer(),
        )
        engine.begin()
        small = Request("small", np.array([3, 1, 4]), max_new_tokens=4)
        big = Request("big", np.arange(1, 13), max_new_tokens=4)
        engine.submit(small)
        with pytest.raises(ValueError, match=rf"'big'.*max_blocks={max_blocks}"):
            engine.submit(big)
        assert engine.scheduler.queue_depth == 1
        report = drain(engine)
        assert [c.request_id for c in report.completed] == ["small"]
        np.testing.assert_array_equal(
            report.by_id("small").tokens, reference(model, small)
        )

    @pytest.mark.parametrize(
        "prefix_caching, max_blocks, max_new",
        [(False, 2, 4), (True, 3, 8)],
        ids=["plain", "prefix-caching"],
    )
    def test_request_exactly_at_the_bound_is_served(
        self, model, prefix_caching, max_blocks, max_new
    ):
        """The prompt plus every generated token but the last fill the
        pool; one more token is refused."""
        engine = ServeEngine(
            model, block_size=4, max_blocks=max_blocks,
            prefix_caching=prefix_caching, timer=_Timer(),
        )
        engine.begin()
        prompt = np.array([5, 9, 3, 7, 2])
        at_bound = Request("at-bound", prompt, max_new_tokens=max_new)
        with pytest.raises(ValueError, match="'one-over'"):
            engine.submit(Request("one-over", prompt, max_new_tokens=max_new + 1))
        engine.submit(at_bound)
        report = drain(engine)
        completed = report.by_id("at-bound")
        assert (completed.generated, completed.finish_reason) == (max_new, "length")
        np.testing.assert_array_equal(completed.tokens, reference(model, at_bound))
        engine.pool.check_invariants()

    def test_adopted_tail_fork_fits_at_the_bound(self, model):
        """An adopted partial block forks while prefill writes past it, so
        with prefix caching the prompt's blocks count one extra."""
        engine = ServeEngine(
            model, max_batch_size=1, block_size=2, max_blocks=4,
            prefix_caching=True, timer=_Timer(),
        )
        short = Request("short", np.array([1, 2, 3]), max_new_tokens=1)
        long = Request("long", np.array([1, 2, 3, 4, 5]), max_new_tokens=1,
                       arrival_time=1.0)
        report = engine.serve([short, long])
        assert report.by_id("long").prefix_tokens_reused == 3
        assert report.pool_stats["cow_forks"] == 1
        for request in (short, long):
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens, reference(model, request)
            )
        with pytest.raises(ValueError, match="'long'.*needs 4 KV blocks"):
            ServeEngine(
                model, block_size=2, max_blocks=3, prefix_caching=True
            ).submit(long)


class TestServeRefusesUpFront:
    """``serve()`` runs ``submit``'s checks over the whole workload first."""

    BAD = {
        "prompt": dict(prompt_ids=np.array([1, 2, 999])),
        "stop": dict(prompt_ids=np.array([1, 2, 3]), stop_tokens=(999,)),
        "footprint": dict(prompt_ids=np.arange(1, 13)),
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_late_refused_request_refuses_the_workload_before_any_step(
        self, model, kind
    ):
        timer = _Timer()
        engine = ServeEngine(model, block_size=4, max_blocks=2, timer=timer)
        good = Request("a", np.array([1, 2, 3]), max_new_tokens=2)
        bad = Request("b", max_new_tokens=2, arrival_time=0.5, **self.BAD[kind])
        with pytest.raises(ValueError, match="'b'"):
            engine.serve([good, bad])
        assert timer.t == 0.0  # no step ran
        assert not engine.has_work  # nothing was enqueued
        report = engine.serve([good])
        np.testing.assert_array_equal(report.by_id("a").tokens, reference(model, good))


class TestMeasuredClock:
    def test_engine_ignores_an_overlap_credit_method(self, model):
        """An executor offering overlap credit is still charged in full:
        with a 1 ms timer every step of a compiled engine reads 1 ms."""
        drained = []

        def consume_overlap_credit():
            drained.append(True)
            return 0.0005

        engine = ServeEngine(
            model, backend="compiled", max_batch_size=4, timer=_Timer()
        )
        engine.executor.consume_overlap_credit = consume_overlap_credit
        workload = generate_workload(
            "steady", num_requests=6, vocab_size=model.config.vocab_size, seed=0
        )
        report = engine.serve(workload)
        assert len(report.completed) == len(workload)
        steps = report.recorder._step_seconds
        assert steps
        assert steps == pytest.approx([1e-3] * len(steps), abs=1e-12)
        assert not drained
