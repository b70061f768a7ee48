"""Synthetic regression data, partial gradient steps, and training."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import codedcomp
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
from codedcomp import regression, simulate
from codedcomp.schemes import CircularShiftSource
from oracles import per_iteration_descend

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
        "n_samples, dim, name",
        [(2.5, 4, "n_samples"), (True, 4, "n_samples"), ("3", 4, "n_samples"), (3, 4.0, "dim"), (3, False, "dim")],
    )
    def test_non_integer_sizes_rejected(self, n_samples, dim, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            generate_dataset(n_samples, dim, np.random.default_rng(0))

    def test_numpy_integer_sizes_accepted(self):
        got = generate_dataset(np.int64(6), np.int32(3), np.random.default_rng(4))
        want = generate_dataset(6, 3, np.random.default_rng(4))
        assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()

    @pytest.mark.parametrize("noise_std", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
    def test_bad_noise_std_rejected(self, noise_std):
        with pytest.raises(ValueError, match="noise_std must be finite and >= 0"):
            generate_dataset(10, 4, np.random.default_rng(0), noise_std=noise_std)

    def test_zero_noise_gives_noiseless_labels(self):
        ds = generate_dataset(10, 4, np.random.default_rng(24), noise_std=0)
        assert np.all(np.isfinite(ds.y))
        assert ds.y.tobytes() == (ds.x @ ds.theta_star).tobytes()

    @pytest.mark.parametrize(
        "x, y, theta_star",
        [
            (np.ones((3, 2)), np.ones(5), np.ones(2)),
            (np.ones((3, 2)), np.ones(3), np.ones(3)),
            (np.ones((3, 2)), np.ones((3, 1)), np.ones(2)),
            (np.ones(3), np.ones(3), np.ones(1)),
            (np.ones((3, 2, 1)), np.ones(3), np.ones(2)),
        ],
        ids=["y-length", "theta-length", "y-2d", "x-1d", "x-3d"],
    )
    def test_dataset_shapes_checked(self, x, y, theta_star):
        with pytest.raises(ValueError, match="x must be 2-D, y of shape"):
            Dataset(x=x, y=y, theta_star=theta_star)

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


class TestArguments:
    RUNS = {
        "train": lambda ds, eta, iterations: train(
            ds, build_uc_mmc(4, 2), q=0.0, model=MODEL, eta=eta, iterations=iterations, seed=0
        ),
        "centralized_gd": centralized_gd,
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("iterations", [5.0, True, 0.5, "5"])
    def test_non_integer_iterations_rejected(self, run, iterations):
        ds = generate_dataset(20, 8, np.random.default_rng(51))
        with pytest.raises(TypeError, match="iterations must be an integer"):
            self.RUNS[run](ds, 0.1, iterations)

    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("iterations", [0, -3, np.int64(0)])
    def test_iterations_below_one_rejected(self, run, iterations):
        ds = generate_dataset(20, 8, np.random.default_rng(52))
        with pytest.raises(ValueError, match="iterations must be positive"):
            self.RUNS[run](ds, 0.1, iterations)

    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -0.1])
    def test_eta_must_be_finite_and_positive(self, run, eta):
        ds = generate_dataset(20, 8, np.random.default_rng(53))
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            self.RUNS[run](ds, eta, 5)

    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("iterations", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_iterations_accepted(self, run, iterations):
        ds = generate_dataset(20, 8, np.random.default_rng(54))
        got, want = self.RUNS[run](ds, 0.1, iterations), self.RUNS[run](ds, 0.1, 5)
        assert np.array_equal(got.losses, want.losses)
        assert np.array_equal(got.theta, want.theta)


class TestBufferedLosses:
    @pytest.mark.parametrize(
        "n_rows, size, blocks",
        [
            (1, 4, [(0, 1)]),
            (3, 4, [(0, 3)]),
            (5, 4, [(0, 5)]),
            (6, 4, [(0, 4), (4, 6)]),
            (16, 16, [(0, 16)]),
            (17, 16, [(0, 17)]),
            (35, 16, [(0, 16), (16, 32), (32, 35)]),
            (33, 16, [(0, 16), (16, 33)]),
        ],
    )
    def test_row_blocks_join_a_one_row_tail(self, n_rows, size, blocks):
        assert regression._row_spans(np.ones(n_rows, dtype=bool), size) == blocks

    @pytest.mark.parametrize(
        "n_rows, needed, size, spans",
        [
            (8, [], 8, []),
            (8, [5], 8, [(4, 8)]),
            (10, [3, 4], 12, [(0, 8)]),
            (10, [9], 12, [(8, 10)]),
            (9, [8], 12, [(4, 9)]),
            (9, [0, 8], 12, [(0, 9)]),
            (9, [0, 8], 4, [(0, 4), (4, 9)]),
            (13, [1, 12], 4, [(0, 4), (8, 13)]),
            (21, [0, 1, 2, 13, 14], 8, [(0, 4), (12, 16)]),
            (21, range(4, 21), 8, [(4, 12), (12, 21)]),
            (1, [0], 4, [(0, 1)]),
            (2, [1], 4, [(0, 2)]),
        ],
    )
    def test_row_spans_of_needed_rows(self, n_rows, needed, size, spans):
        need = np.zeros(n_rows, dtype=bool)
        need[list(needed)] = True
        assert regression._row_spans(need, size) == spans

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5, 9, 10, 11, 12, 45, 64, 65])
    @pytest.mark.parametrize("size", [4, 8, 12, 68])
    def test_row_spans_rules(self, n_rows, size):
        rng = np.random.default_rng(1000 * n_rows + size)
        for density in (0.1, 0.5, 0.9, 1.0):
            need = rng.random(n_rows) < density
            spans = regression._row_spans(need, size)
            covered = np.zeros(n_rows, dtype=bool)
            for (a, b), after in zip(spans, spans[1:] + [(n_rows + 1, None)]):
                assert a % 4 == 0 and a < b <= after[0]
                assert b == n_rows or (b - a) % 4 == 0
                assert b - a <= size or (b == n_rows and b - a == size + 1 and n_rows % 4 == 1)
                assert b - a > 1 or n_rows == 1
                covered[a:b] = True
            assert np.all(covered[need])

    # Blocks of 16 rows and a buffer of 3 thetas, so that each case's X
    # stays a few hundred elements (which OpenBLAS multiplies on one thread
    # whatever its setting) while samples fall one below, on and above the
    # block edges, in each residue mod 4, and the iterations flush a partial
    # buffer, one full one, two, and two and a partial one.
    @pytest.mark.parametrize("samples", [15, 16, 17, 18, 31, 33, 35])
    @pytest.mark.parametrize("iterations", [2, 3, 6, 7])
    def test_equal_per_iteration_losses(self, monkeypatch, samples, iterations):
        dim = 8
        monkeypatch.setattr(regression, "_LOSS_BLOCK_BYTES", 8 * dim * 16)
        monkeypatch.setattr(regression, "_LOSS_BUFFER_BYTES", 8 * (dim + samples) * 3)
        ds = generate_dataset(samples, dim, np.random.default_rng(samples))
        source = CircularShiftSource.of(4, [1, 2])
        result = train(ds, source, q=0.25, model=MODEL, eta=0.1, iterations=iterations, seed=iterations)
        batches = simulate._batches(source, 0.25, MODEL, iterations, iterations)
        masks = np.concatenate([batch[3] for batch in batches])
        _assert_same_descent(result, per_iteration_descend(ds, 0.1, masks))
        full = np.ones((iterations, 1), dtype=bool)
        _assert_same_descent(centralized_gd(ds, 0.1, iterations), per_iteration_descend(ds, 0.1, full))

    def test_default_budgets_equal_per_iteration_losses(self):
        # 60 thetas wait at 1,000 samples of dimension 80: one full buffer
        # and a partial one, over row blocks of 816 and 184 rows.
        ds = generate_dataset(1000, 80, np.random.default_rng(55))
        full = np.ones((70, 1), dtype=bool)
        _assert_same_descent(centralized_gd(ds, 0.1, 70), per_iteration_descend(ds, 0.1, full))

    def test_row_blocked_products_equal_the_whole_product(self):
        # The property _losses rests on.  It holds at one BLAS thread; with
        # several, OpenBLAS splits a product's rows by the thread count, so
        # the grid runs in a child process limited to one.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        src = str(Path(codedcomp.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).parent), src, env.get("PYTHONPATH")])
        )
        code = "from test_regression import row_block_mismatches\nprint(row_block_mismatches())\n"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"


class TestRecoveredSpans:
    # Seven blocks of 1 to 13 rows give every dimension residue mod 4, and
    # W (at most 91 x 91) and X (at most 91 x 40) stay small enough that
    # OpenBLAS multiplies them on one thread whatever its setting.
    @pytest.mark.parametrize("rows", range(1, 14))
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.6, 1.0])
    def test_train_equals_whole_product_steps(self, rows, q):
        ds = generate_dataset(40, 7 * rows, np.random.default_rng(rows))
        source = CircularShiftSource.of(7, [1, 2])
        result = train(ds, source, q=q, model=MODEL, eta=0.1, iterations=12, seed=rows)
        batches = simulate._batches(source, q, MODEL, 12, rows)
        masks = np.concatenate([batch[3] for batch in batches])
        assert masks.any() == (q < 1) and masks.all() == (q == 0)
        _assert_same_descent(result, per_iteration_descend(ds, 0.1, masks))
        if q == 0:
            full = per_iteration_descend(ds, 0.1, np.ones((12, 1), dtype=bool))
            _assert_same_descent(result, full)
            _assert_same_descent(centralized_gd(ds, 0.1, 12), full)

    @pytest.mark.parametrize("rows", range(1, 14))
    def test_runs_at_the_first_and_last_blocks(self, rows):
        ds = generate_dataset(40, 7 * rows, np.random.default_rng(100 + rows))
        masks = np.array(
            [
                [1, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1],
                [1, 0, 0, 0, 0, 0, 1],
                [1, 1, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 1, 1],
                [0, 1, 1, 1, 1, 1, 0],
                [0, 0, 0, 0, 0, 0, 0],
                [1, 0, 1, 0, 1, 0, 1],
                [0, 1, 0, 1, 0, 1, 0],
                [1, 1, 1, 1, 1, 1, 1],
                [0, 0, 0, 1, 0, 0, 0],
                [1, 1, 0, 0, 0, 1, 1],
            ],
            dtype=bool,
        )
        got, want = regression._descend(ds, 0.1, masks), per_iteration_descend(ds, 0.1, masks)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_nothing_recovered_takes_no_product(self, monkeypatch):
        ds = generate_dataset(40, 14, np.random.default_rng(7))
        spans, row_spans = [], regression._row_spans
        monkeypatch.setattr(
            regression, "_row_spans", lambda need, size: spans.append(row_spans(need, size)) or spans[-1]
        )
        result = train(ds, CircularShiftSource.of(7, [1, 2]), q=1.0, model=MODEL, eta=0.1, iterations=4, seed=0)
        assert spans == [[]] * 4 + [[(0, 40)]]
        assert np.array_equal(result.theta, np.zeros(14))
        assert np.array_equal(result.losses, np.full(4, loss(ds, np.zeros(14))))


def _assert_same_descent(result, oracle):
    losses, theta = oracle
    assert result.losses.tobytes() == losses.tobytes()
    assert result.theta.tobytes() == theta.tobytes()


def row_block_mismatches() -> list[tuple[int, int, str, int]]:
    """The (rows, columns, layout, block rows) at which a product of X with
    a vector taken over the row ranges of :func:`regression._row_spans`
    differs in any bit from the whole product.

    Blocks of 4, 8 and 12 rows cover 1 to 39 rows at 1 to 2,000 columns in
    C, Fortran, column-strided and sliced layouts; blocks of 64 rows at
    2,000 columns and of 260 at 500 (row blocks of ``_losses``) cover one
    below to three above 1, 2, 3, 15 and 64 blocks, up to 4,099 rows.
    Square C-ordered matrices shaped as W are cut by the spans of a step's
    recovered blocks (layout ``W`` and the pattern's number), at 1 to 13
    rows per block of 2, 3, 7 and 9 blocks and at 50 and 667 rows per block
    of 40 and 3 blocks (dimensions 2,000 and 2,001).
    """
    rng = np.random.default_rng(57)
    base = rng.standard_normal((4100, 2000))
    vector = rng.standard_normal(2001)
    square = rng.standard_normal((2001, 2001))

    def layouts(m, d, all_layouts):
        yield "C", np.ascontiguousarray(base[:m, :d])
        if all_layouts:
            yield "F", np.asfortranarray(base[:m, :d])
            if 2 * d <= base.shape[1]:
                yield "strided", base[:m, : 2 * d : 2]
            yield "sliced", base[1 : m + 1, base.shape[1] - d :]

    def differs(x, need, size):
        whole = x @ vector[: x.shape[1]]
        spans = regression._row_spans(need, size)
        for a, b in spans:
            if np.matmul(x[a:b], vector[: x.shape[1]]).tobytes() != whole[a:b].tobytes():
                return True
        return False

    def mismatches(m, d, sizes, all_layouts):
        for layout, x in layouts(m, d, all_layouts):
            for size in sizes:
                if differs(x, np.ones(m, dtype=bool), size):
                    yield m, d, layout, size

    def patterns(k):
        yield from np.eye(k, dtype=bool)
        yield np.ones(k, dtype=bool)
        yield np.arange(k) % 2 == 0
        yield np.arange(k) % 2 == 1
        yield (np.arange(k) == 0) | (np.arange(k) == k - 1)
        yield from rng.random((6, k)) < 0.7

    def step_mismatches(rows, k):
        d = rows * k
        w = np.ascontiguousarray(square[:d, :d])
        whole = -(-d // 4) * 4
        for number, mask in enumerate(patterns(k)):
            for size in (whole, 8) if d < 200 else (whole,):
                if differs(w, np.repeat(mask, rows), size):
                    yield d, d, f"W{number}", size

    found = []
    for d in (1, 2, 3, 5, 8, 17, 64, 255, 2000):
        for m in range(1, 40):
            found += mismatches(m, d, (4, 8, 12), True)
    for size, d in ((64, 2000), (260, 500)):
        for count in (1, 2, 3, 15, 64):
            for m in range(count * size - 1, count * size + 4):
                if m < base.shape[0]:
                    found += mismatches(m, d, (size,), m <= 1000)
    for rows in range(1, 14):
        for k in (2, 3, 7, 9):
            found += step_mismatches(rows, k)
    found += step_mismatches(50, 40)
    found += step_mismatches(667, 3)
    return found


class TestBlasLookup:
    def test_numpy_without_bundled_openblas_finds_none(self, monkeypatch, tmp_path):
        # No numpy.libs or .dylibs folder beside this NumPy.
        (tmp_path / "numpy").mkdir()
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert regression._openblas_threads.__wrapped__() is None

    def test_another_blas_sets_no_thread_count(self, monkeypatch):
        calls = []
        monkeypatch.setattr(regression, "_openblas_threads", lambda: calls.append("lookup"))
        with regression._one_blas_thread():
            calls.append("body")
        assert calls == ["lookup", "body"]
