"""Arrival processes backing the serving workload generator."""

import numpy as np
import pytest

from repro.macro.traffic import (
    ARRIVAL_PROCESSES,
    BurstyArrivals,
    PoissonArrivals,
    SessionArrivals,
    SteadyArrivals,
    WaveArrivals,
    get_arrival_process,
)


class TestRegistry:
    def test_names(self):
        assert set(ARRIVAL_PROCESSES) == {
            "steady", "poisson", "bursty", "session", "wave",
        }

    def test_factory(self):
        process = get_arrival_process("poisson", rate=5.0)
        assert isinstance(process, PoissonArrivals)
        with pytest.raises(KeyError):
            get_arrival_process("nope", rate=1.0)


class TestSteady:
    def test_exact_spacing(self):
        times = SteadyArrivals(rate=4.0).arrival_times(8, np.random.default_rng(0))
        np.testing.assert_allclose(np.diff(times), 0.25)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            SteadyArrivals(rate=0.0)


class TestPoisson:
    def test_mean_interarrival_near_inverse_rate(self):
        rng = np.random.default_rng(7)
        gaps = PoissonArrivals(rate=10.0).interarrival_times(4000, rng)
        assert np.mean(gaps) == pytest.approx(0.1, rel=0.1)

    def test_seeded_determinism(self):
        a = PoissonArrivals(rate=3.0).arrival_times(50, np.random.default_rng(1))
        b = PoissonArrivals(rate=3.0).arrival_times(50, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)


class TestBursty:
    def test_higher_variance_than_poisson(self):
        """The point of the MMPP: same-ish mean, much burstier gaps."""
        rng = np.random.default_rng(0)
        bursty = BurstyArrivals(rate=10.0).interarrival_times(4000, rng)
        poisson = PoissonArrivals(rate=10.0).interarrival_times(
            4000, np.random.default_rng(0)
        )
        cv_bursty = np.std(bursty) / np.mean(bursty)
        cv_poisson = np.std(poisson) / np.mean(poisson)
        assert cv_bursty > cv_poisson

    def test_arrival_times_monotone(self):
        times = BurstyArrivals(rate=5.0).arrival_times(100, np.random.default_rng(2))
        assert np.all(np.diff(times) >= 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(rate=1.0, persistence=1.0)
        with pytest.raises(ValueError):
            BurstyArrivals(rate=1.0, burst_factor=0.0)


class TestSession:
    def test_turns_cluster_within_sessions(self):
        """Intra-session (think-time) gaps are much shorter than session gaps."""
        rng = np.random.default_rng(0)
        process = SessionArrivals(rate=10.0, session_length=4, think_scale=0.1)
        gaps = process.interarrival_times(4000, rng)
        session_gaps = gaps[::4]
        think_gaps = np.concatenate([gaps[1::4], gaps[2::4], gaps[3::4]])
        assert np.mean(think_gaps) < np.mean(session_gaps) / 5

    def test_factory_accepts_session_kwargs(self):
        process = get_arrival_process("session", rate=2.0, session_length=3)
        assert isinstance(process, SessionArrivals)
        assert process.session_length == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SessionArrivals(rate=1.0, session_length=0)
        with pytest.raises(ValueError):
            SessionArrivals(rate=1.0, think_scale=0.0)


class TestWave:
    def test_in_wave_gaps_much_shorter_than_wave_gaps(self):
        """A wave lands nearly together; the next wave is a long gap away."""
        rng = np.random.default_rng(0)
        process = WaveArrivals(rate=10.0, wave_size=4, spread=0.02)
        gaps = process.interarrival_times(4000, rng)
        wave_gaps = gaps[::4]
        in_wave = np.concatenate([gaps[1::4], gaps[2::4], gaps[3::4]])
        assert np.mean(in_wave) < np.mean(wave_gaps) / 10

    def test_wave_sizes_override_tiles_the_pattern(self):
        """Per-stage sizes repeat until the request count is covered."""
        rng = np.random.default_rng(3)
        process = WaveArrivals(rate=10.0, spread=0.001, wave_sizes=(3, 1))
        gaps = process.interarrival_times(8, rng)
        assert gaps.size == 8
        # Wave heads sit at offsets 0, 3, 4, 7 (sizes 3, 1, 3, 1); the
        # two requests following each size-3 head are in-wave stragglers.
        heads = gaps[[0, 3, 4, 7]]
        in_wave = gaps[[1, 2, 5, 6]]
        assert in_wave.max() < heads.min()

    def test_seeded_determinism_and_monotone_times(self):
        a = WaveArrivals(rate=5.0, wave_size=3).arrival_times(
            30, np.random.default_rng(1)
        )
        b = WaveArrivals(rate=5.0, wave_size=3).arrival_times(
            30, np.random.default_rng(1)
        )
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0)

    def test_factory_accepts_wave_kwargs(self):
        process = get_arrival_process("wave", rate=2.0, wave_sizes=(4, 2, 1))
        assert isinstance(process, WaveArrivals)
        assert process.wave_sizes == (4, 2, 1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WaveArrivals(rate=0.0)
        with pytest.raises(ValueError):
            WaveArrivals(rate=1.0, wave_size=0)
        with pytest.raises(ValueError):
            WaveArrivals(rate=1.0, spread=0.0)
        with pytest.raises(ValueError):
            WaveArrivals(rate=1.0, wave_sizes=(2, 0))


class TestSessionScaling:
    """Session scaling: per-session gaps from spawned RNGs."""

    def test_prefix_stable_under_session_count(self):
        """Scaling 5 sessions to 2000 leaves the first 5 bit-identical:
        session k's draws depend only on (seed, k), never on the total."""
        process = SessionArrivals(rate=10.0, session_length=4)
        small = process.interarrival_times(4 * 5, np.random.default_rng(42))
        large = process.interarrival_times(4 * 2000, np.random.default_rng(42))
        np.testing.assert_array_equal(small, large[: small.size])

    def test_parent_stream_untouched_by_spawning(self):
        """Drawing arrivals must not advance the caller's generator — the
        workload generator draws prompts from the same stream afterwards."""
        process = SessionArrivals(rate=10.0, session_length=4)
        used = np.random.default_rng(9)
        process.interarrival_times(12, used)
        fresh = np.random.default_rng(9)
        np.testing.assert_array_equal(used.normal(size=4), fresh.normal(size=4))

    def test_partial_trailing_session(self):
        """A request count that is not a session multiple still fills n."""
        process = SessionArrivals(rate=10.0, session_length=4)
        gaps = process.interarrival_times(10, np.random.default_rng(0))
        assert gaps.size == 10
        assert np.all(gaps >= 0)

    def test_tens_of_thousands_of_sessions(self):
        """10k sessions, instantly."""
        process = SessionArrivals(rate=100.0, session_length=3)
        gaps = process.interarrival_times(3 * 10_000, np.random.default_rng(1))
        assert gaps.size == 30_000
        times = np.cumsum(gaps)
        assert np.all(np.diff(times) >= 0)
        # Mean rate stays near the configured rate at scale.
        assert times[-1] / gaps.size == pytest.approx(1 / 100.0, rel=0.25)


class TestEdgeCases:
    def test_zero_requests(self):
        assert SteadyArrivals(rate=1.0).arrival_times(0, np.random.default_rng(0)).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SteadyArrivals(rate=1.0).arrival_times(-1, np.random.default_rng(0))
