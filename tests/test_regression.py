"""Synthetic regression data, partial gradient steps, and training."""

import tracemalloc

import numpy as np
import pytest

from codedcomp import (
    Dataset,
    LatencyModel,
    build_gc,
    build_uc_mmc,
    centralized_gd,
    generate_dataset,
    gram,
    loss,
    monte_carlo,
    partial_gd_step,
    train,
)
from codedcomp import simulate
from codedcomp.schemes import CircularShiftSource

MODEL = LatencyModel(mu=10.0, alpha=0.01)


class TestDataset:
    def test_shapes(self):
        ds = generate_dataset(100, 8, np.random.default_rng(0))
        assert ds.x.shape == (100, 8)
        assert ds.y.shape == (100,)
        assert ds.theta_star.shape == (8,)
        assert np.all((0 <= ds.theta_star) & (ds.theta_star <= 1))

    def test_deterministic(self):
        a = generate_dataset(50, 4, np.random.default_rng(3))
        b = generate_dataset(50, 4, np.random.default_rng(3))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_mixture_is_centred(self):
        # components at +/- 1.5*theta*/dim cancel in expectation
        ds = generate_dataset(
            20000, 1, np.random.default_rng(8), theta_star=np.array([1.0])
        )
        sigma = np.sqrt(1.0 + 1.5**2)
        assert abs(float(np.mean(ds.x))) < 3 * sigma / np.sqrt(20000)

    def test_labels_follow_truth(self):
        ds = generate_dataset(
            500, 3, np.random.default_rng(11), theta_star=np.array([0.2, 0.5, 0.9]),
            noise_std=0.0,
        )
        assert np.allclose(ds.y, ds.x @ ds.theta_star)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_dataset(0, 4, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "theta_star", [None, [0.5, -1.25, 0.0, -0.0, 3.0, -0.0]], ids=["drawn", "given"]
    )
    def test_signed_mean_matches_product_formula(self, theta_star):
        # The mixture means are added or subtracted in place by sign; the
        # oracle adds the (samples, dim) product signs * mu, as the dataset
        # was first built, and must agree bit for bit.
        ds = generate_dataset(300, 6, np.random.default_rng(21), theta_star=theta_star)
        x, y, truth = _product_formula_dataset(300, 6, np.random.default_rng(21), theta_star)
        for got, want in [(ds.x, x), (ds.y, y), (ds.theta_star, truth)]:
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_the_sample_matrix(self):
        # No (samples, dim) temporary: the peak stays near x and y alone.
        tracemalloc.start()
        try:
            ds = generate_dataset(4000, 500, np.random.default_rng(23))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * ds.x.nbytes + ds.y.nbytes


def _product_formula_dataset(n_samples, dim, rng, theta_star=None, noise_std=0.01):
    """generate_dataset's draws with the mixture means added as the product
    signs * mu; returns (x, y, theta_star)."""
    x = np.empty((n_samples, dim))
    if theta_star is None:
        theta_star = rng.uniform(0.0, 1.0, dim)
    theta_star = np.asarray(theta_star, dtype=float)
    mu = (1.5 / dim) * theta_star
    signs = rng.integers(0, 2, n_samples) * 2 - 1
    rng.standard_normal(out=x)
    x += signs[:, None] * mu[None, :]
    return x, x @ theta_star + noise_std * rng.standard_normal(n_samples), theta_star


class TestGramAndLoss:
    def test_gram_identity(self):
        ds = generate_dataset(6, 6, np.random.default_rng(1))
        object.__setattr__(ds, "x", np.eye(6))
        w, c = gram(ds)
        assert np.allclose(w, np.eye(6))
        assert np.allclose(c, ds.y)

    def test_gram_symmetric_psd(self):
        ds = generate_dataset(40, 7, np.random.default_rng(5))
        w, _ = gram(ds)
        assert np.allclose(w, w.T)
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = rng.standard_normal(7)
            assert v @ w @ v >= -1e-9

    def test_loss_zero_at_truth_noiseless(self):
        ds = generate_dataset(80, 5, np.random.default_rng(2), noise_std=0.0)
        assert loss(ds, ds.theta_star) == pytest.approx(0.0, abs=1e-20)

    def test_loss_matches_direct_sum(self):
        ds = generate_dataset(30, 4, np.random.default_rng(9))
        theta = np.random.default_rng(10).standard_normal(4)
        direct = 0.5 * np.mean((ds.y - ds.x @ theta) ** 2)
        assert loss(ds, theta) == pytest.approx(direct)


class TestGramCache:
    def test_second_call_returns_same_arrays(self):
        ds = generate_dataset(40, 8, np.random.default_rng(12))
        w, c = gram(ds)
        again = gram(ds)
        assert again[0] is w and again[1] is c
        assert np.array_equal(w, ds.x.T @ ds.x)
        assert np.array_equal(c, ds.x.T @ ds.y)

    @pytest.mark.parametrize(
        "target",
        [lambda ds: ds.x, lambda ds: ds.y, lambda ds: ds.theta_star,
         lambda ds: gram(ds)[0], lambda ds: gram(ds)[1]],
        ids=["x", "y", "theta_star", "W", "c"],
    )
    def test_arrays_read_only(self, target):
        ds = generate_dataset(20, 4, np.random.default_rng(13))
        with pytest.raises(ValueError, match="read-only"):
            target(ds)[0] = 1.0

    def test_caller_arrays_viewed_not_copied(self):
        rng = np.random.default_rng(14)
        x, y, theta = rng.standard_normal((10, 3)), rng.standard_normal(10), np.ones(3)
        ds = Dataset(x=x, y=y, theta_star=theta)
        for given, stored in ((x, ds.x), (y, ds.y), (theta, ds.theta_star)):
            assert np.shares_memory(stored, given)
            assert given.flags.writeable
        x[0, 0] = 2.0  # the caller's own array is not frozen
        assert ds.x[0, 0] == 2.0

    def test_repeated_training_bit_identical(self):
        make = lambda: generate_dataset(120, 24, np.random.default_rng(15))  # noqa: E731
        kwargs = dict(q=0.25, model=MODEL, eta=0.1, iterations=20, seed=3)
        ds = make()
        runs = [train(ds, CircularShiftSource.of(6, [1, 2]), **kwargs) for _ in range(2)]
        runs.append(train(make(), CircularShiftSource.of(6, [1, 2]), **kwargs))
        for other in runs[1:]:
            assert np.array_equal(other.losses, runs[0].losses)
            assert np.array_equal(other.theta, runs[0].theta)

    def test_centralized_after_train_matches_zero_tolerance(self):
        ds = generate_dataset(120, 24, np.random.default_rng(16))
        result = train(
            ds, CircularShiftSource.of(6, [1, 2]), q=0.0, model=MODEL, eta=0.1,
            iterations=15, seed=8,
        )
        reference = centralized_gd(ds, eta=0.1, iterations=15)
        assert np.array_equal(result.losses, reference.losses)
        assert np.array_equal(result.theta, reference.theta)


class TestPartialStep:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.w = rng.standard_normal((8, 8))
        self.w = self.w @ self.w.T
        self.c = rng.standard_normal(8)
        self.theta = rng.standard_normal(8)

    def test_full_mask_is_plain_step(self):
        wt = self.w @ self.theta
        mask = np.ones(4, dtype=bool)
        blocks = {b: wt[2 * b : 2 * b + 2] for b in range(4)}
        got = partial_gd_step(self.theta, mask, blocks, self.c, 0.05)
        assert np.allclose(got, self.theta - 0.05 * (wt - self.c), atol=1e-14)

    def test_empty_mask_is_identity(self):
        got = partial_gd_step(self.theta, np.zeros(4, dtype=bool), {}, self.c, 0.05)
        assert np.array_equal(got, self.theta)

    def test_partial_mask_updates_only_recovered(self):
        wt = self.w @ self.theta
        mask = np.array([True, False, True, False])
        blocks = {0: wt[0:2], 2: wt[4:6]}
        got = partial_gd_step(self.theta, mask, blocks, self.c, 0.05)
        assert np.allclose(got[0:2], self.theta[0:2] - 0.05 * (wt[0:2] - self.c[0:2]))
        assert np.array_equal(got[2:4], self.theta[2:4])
        assert np.allclose(got[4:6], self.theta[4:6] - 0.05 * (wt[4:6] - self.c[4:6]))
        assert np.array_equal(got[6:8], self.theta[6:8])

    def test_mask_blocks_mismatch(self):
        with pytest.raises(ValueError, match="do not match"):
            partial_gd_step(
                self.theta, np.array([True, False, False, False]), {}, self.c, 0.05
            )

    def test_indivisible_dimension(self):
        with pytest.raises(ValueError, match="divisible"):
            partial_gd_step(self.theta, np.zeros(3, dtype=bool), {}, self.c, 0.05)


class TestTrain:
    def test_zero_tolerance_matches_centralized(self):
        ds = generate_dataset(200, 40, np.random.default_rng(31))
        result = train(
            ds,
            CircularShiftSource.of(8, [1, 2]),
            q=0.0,
            model=MODEL,
            eta=0.1,
            iterations=30,
            seed=5,
        )
        reference = centralized_gd(ds, eta=0.1, iterations=30)
        assert np.allclose(result.losses, reference.losses, rtol=1e-12, atol=1e-12)
        assert np.allclose(result.theta, reference.theta, atol=1e-12)

    def test_loss_decreases(self):
        ds = generate_dataset(300, 40, np.random.default_rng(33))
        result = train(
            ds,
            CircularShiftSource.of(8, [1, 2, 3]),
            q=0.25,
            model=MODEL,
            eta=0.1,
            iterations=40,
            seed=9,
        )
        assert result.losses[-1] < result.losses[0]

    def test_full_tolerance_never_updates(self):
        ds = generate_dataset(100, 16, np.random.default_rng(35))
        result = train(
            ds, build_uc_mmc(4, 2), q=1.0, model=MODEL, eta=0.1, iterations=5, seed=1
        )
        initial = loss(ds, np.zeros(16))
        assert np.allclose(result.losses, initial)
        assert np.array_equal(result.theta, np.zeros(16))
        assert np.all(result.recovered_fraction == 0.0)

    def test_reproducible(self):
        ds = generate_dataset(100, 16, np.random.default_rng(37))
        kwargs = dict(q=0.25, model=MODEL, eta=0.1, iterations=10, seed=4)
        a = train(ds, CircularShiftSource.of(4, [1, 2]), **kwargs)
        b = train(ds, CircularShiftSource.of(4, [1, 2]), **kwargs)
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.times, b.times)

    def test_exact_sum_scheme_rejected(self):
        ds = generate_dataset(50, 16, np.random.default_rng(39))
        with pytest.raises(ValueError, match="matrix-vector"):
            train(ds, build_gc(4, 2), q=0.0, model=MODEL, eta=0.1, iterations=3, seed=0)

    @pytest.mark.parametrize(
        "source, dim, message",
        [(build_gc(4, 2), 16, "matrix-vector"), (build_uc_mmc(4, 2), 10, "divisible")],
        ids=["exact-sum", "indivisible"],
    )
    def test_rejected_before_simulating(self, monkeypatch, source, dim, message):
        def unreachable(*args):
            raise AssertionError("an iteration was simulated before the checks")

        monkeypatch.setattr(simulate, "_trials", unreachable)
        ds = generate_dataset(50, dim, np.random.default_rng(39))
        with pytest.raises(ValueError, match=message):
            train(ds, source, q=0.0, model=MODEL, eta=0.1, iterations=3, seed=0)

    def test_dimension_must_split(self):
        ds = generate_dataset(50, 10, np.random.default_rng(41))
        with pytest.raises(ValueError, match="divisible"):
            train(
                ds, build_uc_mmc(4, 2), q=0.0, model=MODEL, eta=0.1, iterations=3, seed=0
            )

    def test_times_follow_simulation(self):
        ds = generate_dataset(100, 16, np.random.default_rng(43))
        result = train(
            ds, build_uc_mmc(4, 2), q=0.0, model=MODEL, eta=0.1, iterations=20, seed=2
        )
        assert np.all(result.times >= MODEL.alpha)
        assert result.total_time == pytest.approx(float(np.sum(result.times)))

    @pytest.mark.parametrize(
        "source",
        [CircularShiftSource.of(8, [1, 2, 3]), build_uc_mmc(8, 3)],
        ids=["factory", "fixed"],
    )
    def test_iterations_are_monte_carlo_trials(self, source):
        # 150 iterations span three batches of trials
        ds = generate_dataset(100, 16, np.random.default_rng(45))
        result = train(ds, source, q=0.25, model=MODEL, eta=0.1, iterations=150, seed=6)
        reference = monte_carlo(source, 0.25, MODEL, 150, seed=6)
        assert np.array_equal(result.times, reference.times)
        assert np.array_equal(result.messages, reference.messages)
        assert np.array_equal(result.recovered_fraction * 8, reference.recovered)
