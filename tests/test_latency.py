"""Shifted-exponential latency law: closed form vs sampling."""

import math

import numpy as np
import pytest

from codedcomp import LatencyModel
from codedcomp.enumeration import _type_probabilities
from codedcomp.latency import prob_at_least, prob_exactly
from oracles import scalar_type_probability


def empirical_scores(model, t, n, seed, task_cost=1.0, max_tasks=None):
    """Sample n workers and count tasks finished by time t."""
    rng = np.random.default_rng(seed)
    tau = model.sample_unit_times(rng, n)
    scores = np.floor(t / (tau * task_cost)).astype(int)
    scores = np.maximum(scores, 0)
    if max_tasks is not None:
        scores = np.minimum(scores, max_tasks)
    return scores


class TestModel:
    def test_parameters_positive(self):
        with pytest.raises(ValueError):
            LatencyModel(mu=-1, alpha=0.01)
        with pytest.raises(ValueError):
            LatencyModel(mu=10, alpha=0.0)

    @pytest.mark.parametrize(
        "mu, alpha", [(math.nan, 0.01), (math.inf, 0.01), (10, math.nan), (10, math.inf)]
    )
    def test_parameters_finite(self, mu, alpha):
        with pytest.raises(ValueError, match="finite"):
            LatencyModel(mu=mu, alpha=alpha)

    def test_samples_bounded_below_by_alpha(self):
        model = LatencyModel(mu=10, alpha=0.01)
        tau = model.sample_unit_times(np.random.default_rng(0), 1000)
        assert np.all(tau >= 0.01)

    def test_sample_mean(self):
        model = LatencyModel(mu=10, alpha=0.01)
        tau = model.sample_unit_times(np.random.default_rng(1), 200_000)
        assert np.mean(tau) == pytest.approx(0.01 + 0.1, rel=0.02)

    def test_single_worker_draw(self):
        model = LatencyModel(mu=10, alpha=0.01)
        draws = [model.sample_unit_times(np.random.default_rng(i), 1)[0] for i in range(500)]
        assert all(tau >= 0.01 for tau in draws)
        assert np.mean(draws) == pytest.approx(0.11, rel=0.15)
        # same stream, same draw
        assert model.sample_unit_times(np.random.default_rng(3), 1)[0] == (
            model.sample_unit_times(np.random.default_rng(3), 1)[0]
        )


class TestUnitTimes:
    """A trial draws standard exponentials and the model maps them; the
    values and the generator's end state are those of NumPy's exponential
    draw at scale 1 / mu."""

    PARAMS = [(10.0, 0.01), (1.0, 1.0), (3.0, 0.5), (0.7, 2.5), (1e6, 1e-9)]

    @pytest.mark.parametrize("mu, alpha", PARAMS)
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_unit_times_equal_scaled_exponential_draw(self, mu, alpha, n):
        model = LatencyModel(mu=mu, alpha=alpha)
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        got = model.unit_times(rng.standard_exponential(n))
        want = alpha + reference.exponential(1.0 / mu, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("mu, alpha", PARAMS)
    def test_buffered_batch_equals_per_trial_draws(self, mu, alpha):
        # _batches writes each trial's draws into a row of one array and
        # maps the batch at once.
        model = LatencyModel(mu=mu, alpha=alpha)
        exponentials = np.empty((5, 9))
        for t, row in enumerate(exponentials):
            np.random.default_rng(t).standard_exponential(out=row)
        want = [alpha + np.random.default_rng(t).exponential(1.0 / mu, 9) for t in range(5)]
        assert np.array_equal(model.unit_times(exponentials), want)

    @pytest.mark.parametrize("mu, alpha", PARAMS)
    @pytest.mark.parametrize("n", [1, 40])
    def test_sample_unit_times_keeps_its_draws(self, mu, alpha, n):
        model = LatencyModel(mu=mu, alpha=alpha)
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        assert np.array_equal(model.sample_unit_times(rng, n), alpha + reference.exponential(1.0 / mu, n))
        assert rng.bit_generator.state == reference.bit_generator.state


class TestClosedForm:
    MODEL = LatencyModel(mu=10.0, alpha=0.01)

    def test_nothing_done_before_setup(self):
        assert prob_at_least(1, 0.005, self.MODEL) == 0.0
        assert prob_exactly(0, 0.005, self.MODEL) == 1.0

    def test_at_least_one(self):
        # 1 - exp(-10*(0.11 - 0.01)) = 1 - e^-1
        assert prob_at_least(1, 0.11, self.MODEL) == pytest.approx(1 - math.exp(-1))

    def test_exactly_one(self):
        # exp(-10*(0.075-0.01)) - exp(-10*(0.15-0.01))
        expected = math.exp(-0.65) - math.exp(-1.4)
        assert prob_exactly(1, 0.15, self.MODEL) == pytest.approx(expected)
        assert expected == pytest.approx(0.27545, abs=1e-4)

    def test_empirical_at_least_one(self):
        scores = empirical_scores(self.MODEL, 0.11, 100_000, seed=5)
        assert np.mean(scores >= 1) == pytest.approx(1 - math.exp(-1), abs=0.01)

    def test_empirical_exactly_one(self):
        scores = empirical_scores(self.MODEL, 0.15, 100_000, seed=6)
        expected = math.exp(-0.65) - math.exp(-1.4)
        assert np.mean(scores == 1) == pytest.approx(expected, abs=0.01)

    def test_distribution_sums_to_one(self):
        for t in (0.005, 0.03, 0.11, 0.5, 2.0):
            total = sum(prob_exactly(s, t, self.MODEL) for s in range(400))
            total += prob_at_least(400, t, self.MODEL)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_truncation_accumulates_top(self):
        t = 0.5
        plain = sum(prob_exactly(s, t, self.MODEL) for s in range(3))
        assert prob_exactly(2, t, self.MODEL, max_tasks=2) == pytest.approx(
            prob_at_least(2, t, self.MODEL)
        )
        truncated = sum(prob_exactly(s, t, self.MODEL, max_tasks=2) for s in range(3))
        assert truncated == pytest.approx(1.0, abs=1e-12)
        assert plain < truncated

    def test_task_cost_rescales_time(self):
        # half-cost tasks by t behave like unit tasks by 2t
        assert prob_at_least(3, 0.2, self.MODEL, task_cost=0.5) == pytest.approx(
            prob_at_least(3, 0.4, self.MODEL, task_cost=1.0)
        )

    def test_sampling_matches_law_on_grid(self):
        n = 100_000
        rng = np.random.default_rng(42)
        tau = self.MODEL.sample_unit_times(rng, n)
        grid = [
            (s, t)
            for s in range(5)
            for t in (0.012, 0.035, 0.08, 0.18)
        ]
        for s, t in grid:
            scores = np.floor(t / tau).astype(int)
            p_hat = float(np.mean(scores == s))
            p = prob_exactly(s, t, self.MODEL)
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p_hat - p) <= 3 * se + 1e-9, (s, t, p_hat, p)


class TestTypeProbability:
    MODEL = LatencyModel(mu=10.0, alpha=0.01)

    def test_before_setup_only_all_idle(self):
        t = 0.5 * self.MODEL.alpha
        # the types (0, 0, 4), all idle, and (0, 1, 3), one worker busy
        idle, busy = _type_probabilities(np.array([[0, 0, 4], [0, 1, 3]]), [t], self.MODEL, 1.0)[:, 0]
        assert idle == 1.0
        assert busy == 0.0

    def test_product_structure(self):
        t = 0.2
        expected = (
            prob_exactly(2, t, self.MODEL, max_tasks=2)
            * prob_exactly(1, t, self.MODEL, max_tasks=2) ** 2
            * prob_exactly(0, t, self.MODEL, max_tasks=2)
        )
        prob = _type_probabilities(np.array([[1, 2, 1]]), [t], self.MODEL, 1.0)
        assert prob[0, 0] == pytest.approx(expected)

    def test_monte_carlo_cross_check(self):
        t = 0.2
        n = 100_000
        scores = empirical_scores(self.MODEL, t, n, seed=9, max_tasks=2)
        # the types of [2, 2, 2, 2], [2, 1, 0, 1] and [0, 0, 0, 0]
        types = np.array([(4, 0, 0), (1, 2, 1), (0, 0, 4)])
        singles = _type_probabilities(types, [t], self.MODEL, 1.0)[:, 0]
        for type_counts, p_single in zip(types, singles):
            # empirical probability that one worker hits each score, multiplied
            counts = {s: float(np.mean(scores == s)) for s in range(3)}
            p_emp = 1.0
            for s in range(3):
                p_emp *= counts[s] ** type_counts[2 - s]
            assert p_single == pytest.approx(p_emp, rel=0.08)

    @pytest.mark.parametrize("task_cost", [1.0, 0.5])
    @pytest.mark.parametrize("model", [MODEL, LatencyModel(mu=2.5, alpha=0.3)], ids=["fast", "slow"])
    def test_bits_of_the_scalar_loop(self, model, task_cost):
        from codedcomp import all_types

        times = [0.0, 1e-9, 0.005, *np.linspace(0.0, 2.0, 41).tolist(), math.inf]
        for workers, max_score in ((4, 2), (6, 3), (3, 5)):
            types = all_types(workers, max_score)
            counts = np.array([ctype.counts for ctype in types])
            # every type's counts in one call: each cell is computed alone
            for ctype, got in zip(types, _type_probabilities(counts, times, model, task_cost).tolist()):
                want = [scalar_type_probability(ctype, t, model, task_cost) for t in times]
                assert [type(p) for p in got] == [float] * len(times)
                assert [p.hex() for p in got] == [p.hex() for p in want]

    def test_types_with_vector_counts_sum_to_one(self):
        from codedcomp import all_types
        from codedcomp.enumeration import total_vectors

        t = 0.17
        types = all_types(4, 2)
        probs = _type_probabilities(np.array([ctype.counts for ctype in types]), [t], self.MODEL, 1.0)
        total = 0.0
        for ctype, p in zip(types, probs[:, 0].tolist()):
            total += total_vectors(ctype) * p
        assert total == pytest.approx(1.0, abs=1e-12)
