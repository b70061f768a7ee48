"""Event-driven iteration simulator and Monte Carlo aggregation."""

import numpy as np
import pytest

from codedcomp import (
    LatencyModel,
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    hybrid_example,
    message_times,
    monte_carlo,
    simulate_iteration,
    trial_rng,
)

MODEL = LatencyModel(mu=10.0, alpha=0.01)


class _NoStraggleRng:
    """Stand-in generator whose exponential draws are all zero."""

    def exponential(self, scale, size=None):
        return np.zeros(size if size is not None else 1)


class TestMessageTimes:
    def test_computation_mode(self):
        asn = build_uc_mmc(4, 3)
        times = message_times(asn, np.full(4, 0.1))
        assert np.allclose(times[:, 0], [0.1, 0.2, 0.3])

    def test_communication_mode(self):
        asn = build_rcs(20, [1, 2, 3], offsets=[1, 4, 11, 15, 6, 18], mode="communication")
        times = message_times(asn, np.full(20, 0.1))
        assert np.allclose(times[:, 0], [0.1, 0.3, 0.6])

    def test_single_message_schemes(self):
        times = message_times(build_mcc(40, 14), np.full(40, 0.1))
        assert times.shape == (1, 40)
        assert np.allclose(times[0], 0.3)  # 3 tasks each
        times = message_times(build_gc(40, 6), np.full(40, 0.1))
        assert np.allclose(times[0], 0.6)

    def test_per_worker_scaling(self):
        asn = build_uc_mmc(3, 2)
        times = message_times(asn, np.array([0.1, 0.2, 0.4]))
        assert np.allclose(times[1], [0.2, 0.4, 0.8])


class TestSimulateIteration:
    def test_no_straggling_four_workers(self):
        out = simulate_iteration(hybrid_example(), 0.0, MODEL, _NoStraggleRng())
        assert out.completed
        assert out.completion_time == pytest.approx(MODEL.alpha)
        assert out.messages_received == 4
        assert out.recovered_count == 4

    def test_full_tolerance_instant(self):
        out = simulate_iteration(hybrid_example(), 1.0, MODEL, np.random.default_rng(0))
        assert out.completion_time == 0.0
        assert out.messages_received == 0
        assert out.recovered_count == 0
        assert out.completed

    def test_single_message_counts_exactly_threshold(self):
        for _ in range(20):
            out = simulate_iteration(build_mcc(40, 14), 0.0, MODEL, np.random.default_rng(_))
            assert out.messages_received == 14
            assert out.recovered_count == 40

    def test_gc_threshold_behaviour(self):
        for seed in range(10):
            out = simulate_iteration(build_gc(40, 6), 0.0, MODEL, np.random.default_rng(seed))
            assert out.messages_received == 35  # 40 - 6 + 1

    def test_gc_ignores_tolerance(self):
        for seed in range(10):
            a = simulate_iteration(build_gc(40, 6), 0.0, MODEL, np.random.default_rng(seed))
            b = simulate_iteration(build_gc(40, 6), 0.3, MODEL, np.random.default_rng(seed))
            assert a.completion_time == b.completion_time
            assert a.messages_received == b.messages_received

    def test_tolerance_waives_stragglers(self):
        # same latency draws: relaxing q can only speed things up
        asn = build_uc_mmc(40, 3)
        for seed in range(15):
            outs = [
                simulate_iteration(asn, q, MODEL, np.random.default_rng(seed))
                for q in (0.0, 0.15, 0.3)
            ]
            times = [o.completion_time for o in outs]
            msgs = [o.messages_received for o in outs]
            assert times == sorted(times, reverse=True)
            assert msgs == sorted(msgs, reverse=True)

    def test_recovered_mask_consistent(self):
        for seed in range(10):
            out = simulate_iteration(
                build_rcs(20, [1, 2, 3], np.random.default_rng(seed)),
                0.25,
                MODEL,
                np.random.default_rng(seed + 100),
            )
            assert out.recovered_count >= 15  # ceil(0.75 * 20)
            assert out.recovered_mask.shape == (20,)

    def test_threshold_unreachable_reported(self):
        # single worker computing only 1 of 2 blocks can never satisfy q=0
        from codedcomp.blocks import ComputationAssignment, Message

        asn = ComputationAssignment(
            n_workers=1,
            k_total=2,
            support=(np.array([[0]]),),
            coefficients=(np.array([[1.0]]),),
            messages=(Message(1, (0,)),),
        )
        out = simulate_iteration(asn, 0.0, MODEL, np.random.default_rng(0))
        assert not out.completed
        assert out.completion_time == np.inf
        assert out.messages_received == 1

    def test_ties_included_in_message_count(self):
        # without straggling all first-round messages arrive together
        out = simulate_iteration(build_uc_mmc(4, 2), 0.0, MODEL, _NoStraggleRng())
        assert out.completion_time == pytest.approx(MODEL.alpha)
        assert out.messages_received == 4


class TestMonteCarlo:
    def test_reproducible(self):
        a = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=7)
        b = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.messages, b.messages)

    def test_seed_changes_draws(self):
        a = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=7)
        b = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=8)
        assert not np.array_equal(a.times, b.times)

    def test_factory_redrawn_per_trial(self):
        drawn = []

        def factory(rng):
            asn = build_rcs(12, [1, 2], rng)
            drawn.append(asn.worker_tasks(0)[1].support)
            return asn

        monte_carlo(factory, 0.0, MODEL, 30, seed=3)
        assert len(set(drawn)) > 1

    def test_trial_streams_independent_of_count(self):
        # first 20 trials of a 50-trial run equal a 20-trial run
        a = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=11)
        b = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 20, seed=11)
        assert np.array_equal(a.times[:20], b.times)

    def test_summary_fields(self):
        res = monte_carlo(build_uc_mmc(8, 2), 0.25, MODEL, 40, seed=1)
        summary = res.summary()
        assert summary["trials"] == 40
        assert summary["completion_rate"] == 1.0
        assert summary["p50"] <= summary["p95"]
        assert res.mean_time > MODEL.alpha

    def test_trial_rng_deterministic(self):
        a = trial_rng(5, 3).standard_normal(4)
        b = trial_rng(5, 3).standard_normal(4)
        assert np.array_equal(a, b)
