"""Worker-pool lifecycle, dead-worker robustness, and CPU pinning."""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.executor import resolve_executor
from repro.nn.model import OPTLanguageModel
from repro.shard import GLOBAL_POOL, ShardWorkerError, WorkerPool, model_fingerprint
from repro.shard.executor import assign_worker_cpus


def make_model(policy=None, seed=11):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(seed), policy=policy
    )
    model.eval()
    return model


class _FakeDriver:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestModelFingerprint:
    def test_identical_builds_share_a_fingerprint(self):
        assert model_fingerprint(make_model()) == model_fingerprint(make_model())

    def test_different_weights_differ(self):
        assert model_fingerprint(make_model(seed=1)) != model_fingerprint(
            make_model(seed=2)
        )

    def test_policy_changes_the_fingerprint(self):
        assert model_fingerprint(make_model()) != model_fingerprint(
            make_model("bf16-fp8kv")
        )

    def test_memoized_until_weights_change(self):
        model = make_model()
        first = model_fingerprint(model)
        assert model_fingerprint(model) == first
        assert model._shard_fingerprint[0] == model._plan_version


class TestWorkerPool:
    def test_attach_reuses_warm_entries(self):
        pool = WorkerPool()
        built = []

        def factory():
            built.append(1)
            return object(), _FakeDriver()

        entry1, reused1 = pool.attach("k", factory)
        entry2, reused2 = pool.attach("k", factory)
        assert (reused1, reused2) == (False, True)
        assert entry1 is entry2
        assert len(built) == 1
        assert entry1.refs == 2
        assert pool.stats() == {
            "entries": 1, "attach_total": 2, "attach_reused": 1, "forked": 1,
        }

    def test_release_keeps_bundle_warm(self):
        pool = WorkerPool()
        entry, _ = pool.attach("k", lambda: (object(), _FakeDriver()))
        pool.release("k")
        assert entry.refs == 0
        assert not entry.driver.closed
        _, reused = pool.attach("k", lambda: (object(), _FakeDriver()))
        assert reused is True

    def test_discard_closes_drivers(self):
        pool = WorkerPool()
        entry, _ = pool.attach("k", lambda: (object(), _FakeDriver()))
        driver = entry.driver
        pool.discard("k")
        assert driver.closed
        _, reused = pool.attach("k", lambda: (object(), _FakeDriver()))
        assert reused is False

    def test_lru_eviction_spares_referenced_bundles(self):
        pool = WorkerPool(capacity=1)
        held, _ = pool.attach("held", lambda: (object(), _FakeDriver()))
        idle, _ = pool.attach("idle", lambda: (object(), _FakeDriver()))
        pool.release("idle")
        # A third attach pushes past capacity: the idle bundle goes, the
        # referenced one stays.
        pool.attach("new", lambda: (object(), _FakeDriver()))
        assert idle.driver is None
        assert held.driver is not None and not held.driver.closed
        pool.clear()

    def test_clear_closes_everything(self):
        pool = WorkerPool()
        entry, _ = pool.attach("k", lambda: (object(), _FakeDriver()))
        driver = entry.driver
        pool.clear()
        assert driver.closed
        assert pool.stats()["entries"] == 0


class TestProcessPoolReuse:
    def test_second_executor_attaches_to_warm_workers(self):
        model_a = make_model(seed=7)
        model_b = make_model(seed=7)  # distinct object, identical content
        ex_a = resolve_executor("sharded:2:process", model_a)
        ex_b = resolve_executor("sharded:2:process", model_b)
        try:
            ex_a.prepare()
            forked = GLOBAL_POOL.stats()["forked"]
            ex_b.prepare()
            assert GLOBAL_POOL.stats()["forked"] == forked
            assert ex_b.runtime_stats()["pool_attach_reused"] is True
            # Both executors drive the same worker bundle.
            assert ex_a._driver is ex_b._driver
        finally:
            ex_a.close()
            ex_b.close()
            GLOBAL_POOL.clear()

    def test_different_topologies_do_not_collide(self):
        model = make_model(seed=7)
        ex_a = resolve_executor("sharded:2:process", model)
        ex_b = resolve_executor("sharded:4:process", model)
        forked_before = GLOBAL_POOL.stats()["forked"]
        try:
            ex_a.prepare()
            ex_b.prepare()
            assert GLOBAL_POOL.stats()["forked"] == forked_before + 2
        finally:
            ex_a.close()
            ex_b.close()
            GLOBAL_POOL.clear()


class TestDeadWorkerRobustness:
    def test_killed_worker_raises_instead_of_hanging(self, fixed_timer):
        """Regression: a worker dying mid-serve must surface as a
        ShardWorkerError naming the failed shard, not a blocked pipe."""
        from repro.serve import ServeEngine, generate_workload

        model = make_model()
        engine = ServeEngine(
            model, backend="sharded:2:process", max_batch_size=4,
            timer=fixed_timer,
        )
        try:
            engine.begin()
            driver = engine.executor._driver
            victim = driver.procs[1]
            victim.terminate()
            victim.join()
            requests = generate_workload(
                "steady", num_requests=2, vocab_size=64, seed=0
            )
            with pytest.raises(ShardWorkerError, match="shard 1"):
                engine.serve(requests)
        finally:
            engine.close()
            GLOBAL_POOL.clear()

    def test_poisoned_bundle_leaves_the_pool(self):
        model = make_model()
        executor = resolve_executor("sharded:2:process", model)
        try:
            executor.prepare()
            driver = executor._driver
            driver.procs[0].terminate()
            driver.procs[0].join()
            payload = np.zeros((1, 2, model.config.embed_dim))
            with pytest.raises(ShardWorkerError):
                executor._fanout("qkv", 0, [payload, payload])
            # The dead bundle must not be handed to the next executor.
            assert GLOBAL_POOL.stats()["entries"] == 0
        finally:
            executor.close()
            GLOBAL_POOL.clear()


class TestWorkerPinning:
    def test_assign_worker_cpus_round_robin(self):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no CPU affinity support")
        cpus = sorted(os.sched_getaffinity(0))
        assigned = assign_worker_cpus(len(cpus) + 1)
        assert assigned[0] == cpus[0]
        assert assigned[-1] == cpus[0]  # wraps round-robin

    def test_unsupported_platform_warns_and_unpins(self, monkeypatch):
        import repro.shard.executor as executor_mod

        monkeypatch.setattr(
            executor_mod.os, "sched_getaffinity", None, raising=False
        )
        with pytest.warns(RuntimeWarning, match="unpinned"):
            assert assign_worker_cpus(3) == [None, None, None]

    def test_pinned_executor_records_cpus(self):
        import os

        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("platform has no CPU affinity support")
        model = make_model()
        executor = resolve_executor("sharded:2:process:pin", model)
        try:
            executor.prepare()
            stats = executor.runtime_stats()
            assert stats["pin_workers"] is True
            assert len(stats["pinned_cpus"]) == 2
            assert executor.name == "sharded:2:process:pin"
        finally:
            executor.close()
            GLOBAL_POOL.clear()

    def test_sim_driver_warns_pin_is_noop(self):
        model = make_model()
        executor = resolve_executor("sharded:2:sim:pin", model)
        try:
            with pytest.warns(RuntimeWarning, match="sim"):
                executor.prepare()
        finally:
            executor.close()
