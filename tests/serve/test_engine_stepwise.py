"""The externally-driven engine interface a cluster router steps.

``begin`` / ``submit`` / ``step_at`` / ``report`` decompose the serve
loop so a router can drive R engines on one shared clock; this file pins
that the decomposition is faithful (stepping by hand reproduces
``serve()`` exactly) and that ``load_snapshot`` reports what routing
policies need.
"""

import numpy as np
import pytest

from repro.nn.generation import generate
from repro.serve import Request, ServeEngine


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


class TestLoadSnapshot:
    KEYS = {
        "queue_depth", "active", "max_batch_size", "free_slots",
        "blocks_in_use", "prefill_backlog_tokens", "load",
    }

    def test_idle_engine(self, model):
        engine = ServeEngine(model, max_batch_size=4)
        snapshot = engine.load_snapshot()
        assert set(snapshot) == self.KEYS
        assert snapshot["load"] == 0
        assert snapshot["free_slots"] == 4
        assert snapshot["blocks_in_use"] == 0

    def test_queued_work_counts_into_load(self, model):
        engine = ServeEngine(model, max_batch_size=2, timer=_Timer())
        engine.begin()
        for request in requests(5):
            engine.submit(request)
        snapshot = engine.load_snapshot()
        assert snapshot["queue_depth"] == 5
        assert snapshot["active"] == 0
        assert snapshot["load"] == 5

    def test_active_and_backlog_after_admission(self, model):
        engine = ServeEngine(
            model, max_batch_size=2, prefill_budget=2, timer=_Timer()
        )
        engine.begin()
        long_prompt = Request("long", np.arange(1, 13), max_new_tokens=2)
        engine.submit(long_prompt)
        engine.step_at(0.0)  # admits and prefills the first 2-token chunk
        snapshot = engine.load_snapshot()
        assert snapshot["active"] == 1
        assert snapshot["free_slots"] == 1
        assert snapshot["blocks_in_use"] > 0
        # 12-token prompt, 2 prefilled: 10 positions still to compute.
        assert snapshot["prefill_backlog_tokens"] == 10
        assert snapshot["load"] == 1


class TestSubmitValidation:
    @pytest.mark.parametrize("bad_id", [-1, "vocab"])
    def test_out_of_vocab_prompt_is_rejected_and_not_enqueued(self, model, bad_id):
        vocab = model.config.vocab_size
        bad_id = vocab if bad_id == "vocab" else bad_id
        engine = ServeEngine(model, timer=_Timer())
        engine.begin()
        with pytest.raises(ValueError, match="'bad-7'"):
            engine.submit(Request("bad-7", np.array([1, bad_id, 2])))
        assert engine.load_snapshot()["queue_depth"] == 0
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
        assert engine.load_snapshot()["queue_depth"] == 0
        assert not engine.has_work

    def test_in_vocab_stop_tokens_are_accepted(self, model):
        vocab = model.config.vocab_size
        engine = ServeEngine(model, timer=_Timer())
        engine.begin()
        engine.submit(Request("ok", np.array([1, 2, 3]), stop_tokens=(0, vocab - 1)))
        assert engine.load_snapshot()["queue_depth"] == 1

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
