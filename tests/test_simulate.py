"""Iteration simulator and Monte Carlo aggregation."""

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from codedcomp import (
    LatencyModel,
    PeelingDecoder,
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    hybrid_example,
    monte_carlo,
    recovery_threshold,
    success_table,
)
from codedcomp.blocks import DECODE_PEEL, ComputationAssignment, Message
from codedcomp import generate_dataset, gram, loss, partial_gd_step, train
from codedcomp import decoding, simulate
from codedcomp.enumeration import all_types, score_vectors_of_type
from codedcomp.schemes import CircularShiftSource
from codedcomp.simulate import (
    _CHUNK,
    _SEED_BLOCK,
    MonteCarloResult,
    _StreamWords,
    _arrival_ranks,
    _batches,
    _stream_states,
    _trials,
    make_decode_state,
    message_times,
    trial_rng,
)

from oracles import count_rule_mean

MODEL = LatencyModel(mu=10.0, alpha=0.01)


class _NoStraggleRng:
    """Stand-in generator whose exponential draws are all zero."""

    def standard_exponential(self, size=None):
        return np.zeros(size if size is not None else 1)


class _TiedModel:
    """Latency model whose workers all take the same unit time, so arrivals tie."""

    def unit_times(self, exponentials):
        return MODEL.unit_times(np.zeros_like(exponentials))


class _TwoSpeedModel:
    """Odd workers take twice as long, in a random order of worker ids (the
    rank of each worker's exponential draw), so a fast worker's later message
    ties with a slow worker's earlier one."""

    def unit_times(self, exponentials):
        ranks = exponentials.argsort(axis=-1).argsort(axis=-1)
        return MODEL.alpha * (1.0 + ranks % 2)


class _DrawnTiesModel:
    """Unit times of one, two or three alphas drawn from the trial stream
    (floor(3E) mod 3 of each exponential draw E), so arrivals of different
    workers tie often, within a message and across messages."""

    def unit_times(self, exponentials):
        return MODEL.alpha * (1.0 + np.floor(3.0 * exponentials) % 3)


class _SomeTrialsTiedModel:
    """``_DrawnTiesModel``'s unit times in a trial whose first exponential
    draw is below one, ``MODEL``'s (which never tie) in the others."""

    def unit_times(self, exponentials):
        tied = exponentials[..., :1] < 1.0
        return np.where(tied, _DrawnTiesModel().unit_times(exponentials), MODEL.unit_times(exponentials))


class _RecordingModel:
    """``MODEL``, keeping a copy of every batch's exponentials."""

    def __init__(self):
        self.exponentials = []

    def unit_times(self, exponentials):
        self.exponentials.append(exponentials.copy())
        return MODEL.unit_times(exponentials)


def _unit_times(model, rng, n):
    """One trial's unit times for n workers, drawn as ``_batches`` draws them."""
    return model.unit_times(rng.standard_exponential(n))


def _hand_built(n_workers, k_total, support, messages, decode="peel", kbar=None):
    support = tuple(np.array(ids) for ids in support)
    return ComputationAssignment(
        n_workers=n_workers,
        k_total=k_total,
        support=support,
        coefficients=tuple(np.ones(ids.shape) for ids in support),
        messages=messages,
        decode=decode,
        kbar=kbar,
    )


def _mds_two_messages():
    # kbar=3 of 4 workers; a worker counts from its first message
    return _hand_built(
        4, 4, ([[0, 1]] * 4, [[2, 3]] * 4), (Message(1, (0,)), Message(3, (1,))), "mds", 3
    )


def _two_orders_one_message():
    # workers 0 and 1 carry the same block twice in their one message
    return _hand_built(4, 4, ([[0], [1], [2], [3]], [[0], [1], [3], [2]]), (Message(2, (0, 1)),))


def _threshold_one_worker():
    # three orders on three workers: the first arrival alone decodes
    return _hand_built(
        3, 3, ([[0], [1], [2]], [[1], [2], [0]], [[2], [0], [1]]), (Message(3, (0, 1, 2)),),
        "threshold",
    )


def _uncovered_block():
    # block 3 is in no task: q=0 never finishes, q=0.25 does
    return _hand_built(
        3, 4, ([[0], [1], [2]], [[1], [2], [0]]), (Message(1, (0,)), Message(2, (1,)))
    )


ORACLE_CASES = {
    "mcc-8": (build_mcc(8, 3), (0.0, 0.5, 1.0)),
    "mcc-40": (build_mcc(40, 14), (0.0, 1.0)),
    "gc-8": (build_gc(8, 3), (0.0, 0.3, 1.0)),
    "gc-40": (build_gc(40, 6), (0.0, 1.0)),
    "uc-mmc-8": (build_uc_mmc(8, 2), (0.0, 0.25, 0.5, 1.0)),
    "uc-mmc-40": (build_uc_mmc(40, 3), (0.0, 0.15, 0.3, 1.0)),
    "mds-two-messages": (_mds_two_messages(), (0.0, 1.0)),
    "two-orders-one-message": (_two_orders_one_message(), (0.0, 0.25, 0.5, 1.0)),
    "uncovered-block": (_uncovered_block(), (0.0, 0.25, 1.0)),
    "threshold-one-worker": (_threshold_one_worker(), (0.0, 1.0)),
    "hybrid": (hybrid_example(), (0.0, 0.25, 1.0)),
}


class _PeelOracle:
    """Message-by-message peel state: each task of a message goes to
    ``PeelingDecoder.ingest`` as a CodedTask, independent of the simulator's
    release ranks."""

    def __init__(self, assignment):
        self._asn = assignment
        self._dec = PeelingDecoder(assignment.k_total)

    def ingest_message(self, worker, msg_index):
        for order in self._asn.messages[msg_index].orders:
            self._dec.ingest(self._asn.tasks[order][worker])

    @property
    def recovered_count(self):
        return self._dec.recovered_count

    @property
    def redundant(self):
        return self._dec.redundant_messages

    def mask(self):
        return self._dec.recovered_mask()


def _oracle_state(assignment):
    if assignment.decode == DECODE_PEEL:
        return _PeelOracle(assignment)
    return make_decode_state(assignment)


def _oracle(assignment, q, unit_times):
    """Event-loop replay of one trial: every arrival, in time order with ties
    broken by message then worker, into a fresh decoder until the threshold.

    Returns (completion time, messages, redundant, recovered mask, completed).
    """
    threshold = recovery_threshold(assignment.k_total, q)
    if threshold == 0:
        return 0.0, 0, 0, np.zeros(assignment.k_total, dtype=bool), True
    arrivals = message_times(assignment, unit_times)
    state = _oracle_state(assignment)
    stop, completed = np.inf, False
    for flat in np.argsort(arrivals, axis=None, kind="stable"):
        m, w = divmod(int(flat), assignment.n_workers)
        state.ingest_message(w, m)
        if state.recovered_count >= threshold:
            stop, completed = float(arrivals[m, w]), True
            break
    messages = int(np.count_nonzero(arrivals <= stop))
    return stop, messages, state.redundant, state.mask(), completed


def _decide(assignment, q, rng):
    """One trial as ``_trials`` decides it, on latencies drawn from rng.

    Returns (completion time, messages, redundant, recovered mask, completed).
    """
    unit_times = MODEL.sample_unit_times(rng, assignment.n_workers)
    threshold = recovery_threshold(assignment.k_total, q)
    return [arr[0] for arr in _trials(assignment, None, unit_times[None], threshold)]


def _run(source, q, model, trials, seed):
    """The per-trial arrays of every batch ``_batches`` yields, joined."""
    return [np.concatenate(arrs) for arrs in zip(*_batches(source, q, model, trials, seed))]


def _rebuilt_per_trial(build, q, model, trials, seed):
    """The per-trial arrays of a code built whole every trial, the reference
    for a redrawn source: trial t builds on ``trial_rng(seed, t)``, draws
    its latencies from the same stream, and ``_trials`` decides it alone."""
    rows = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        asn = build(rng)
        unit_times = model.sample_unit_times(rng, asn.n_workers)
        rows.append(_trials(asn, None, unit_times[None], recovery_threshold(asn.k_total, q)))
    return [np.concatenate(arrs) for arrs in zip(*rows)]


def _assert_outcome(out, expected):
    time, messages, redundant, mask, completed = out
    stop, n_messages, n_redundant, n_mask, n_completed = expected
    assert time == stop
    assert isinstance(time, float)
    assert messages == n_messages
    assert redundant == n_redundant
    assert np.array_equal(mask, n_mask)
    assert mask.dtype == bool
    assert np.count_nonzero(mask) == np.count_nonzero(n_mask)
    assert completed == n_completed


class TestClosedFormMatchesOracle:
    """Every trial's release-rank decision must equal the event loop."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    @pytest.mark.parametrize(
        "model, trials",
        [(MODEL, 300), (_TiedModel(), 3), (_TwoSpeedModel(), 40)],  # 300: more than one batch
        ids=["random", "tied", "two-speed"],
    )
    def test_monte_carlo_and_iteration(self, name, model, trials):
        asn, qs = ORACLE_CASES[name]
        for q in qs:
            res = monte_carlo(asn, q, model, trials, seed=17)
            batches = _run(asn, q, model, trials, 17)
            for t in range(trials):
                unit_times = _unit_times(model, trial_rng(17, t), asn.n_workers)
                expected = _oracle(asn, q, unit_times)
                stop, messages, redundant, mask, completed = expected
                assert res.times[t] == stop
                assert res.messages[t] == messages
                assert res.redundant[t] == redundant
                assert res.recovered[t] == np.count_nonzero(mask)
                assert res.completed[t] == completed
                _assert_outcome([arr[t] for arr in batches], expected)

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_no_straggling(self, name):
        asn, qs = ORACLE_CASES[name]
        unit_times = MODEL.sample_unit_times(_NoStraggleRng(), asn.n_workers)
        for q in qs:
            _assert_outcome(_decide(asn, q, _NoStraggleRng()), _oracle(asn, q, unit_times))

    def test_degree_one_code_runs_no_sweep(self, monkeypatch):
        # every uc-mmc task has degree 1, so each block's release rank is the
        # smallest rank of the tasks holding it, settled before any sweep
        asn, calls = build_uc_mmc(8, 2), []
        offers = decoding._offers
        monkeypatch.setattr(
            decoding, "_offers", lambda values, key: calls.append(1) or offers(values, key)
        )
        rng = np.random.default_rng(5)
        ranks = rng.random((6, len(asn.messages), asn.n_workers))
        ranks[rng.random(ranks.shape) < 0.3] = np.inf
        expected = np.full((6, asn.k_total), np.inf)
        for m, msg in enumerate(asn.messages):
            for j in msg.orders:
                for w, (block,) in enumerate(asn.support[j]):
                    expected[:, block] = np.minimum(expected[:, block], ranks[:, m, w])
        tables = decoding._block_tables(asn, len(ranks))
        assert np.array_equal(decoding._release_ranks(asn, tables, ranks), expected)
        assert calls == []

    def test_cases_reach_every_branch(self):
        # the hand-built cases do what their names say
        _, _, redundant, mask, completed = _decide(_uncovered_block(), 0.0, np.random.default_rng(0))
        assert not completed and mask.sum() == 3 and redundant == 3
        _, messages, redundant, _, _ = _decide(_two_orders_one_message(), 0.0, np.random.default_rng(0))
        assert messages == 4 and redundant == 4
        _, messages, redundant, _, _ = _decide(_threshold_one_worker(), 0.0, np.random.default_rng(0))
        assert messages == 1 and redundant == 0
        _, messages, _, mask, _ = _decide(_mds_two_messages(), 0.0, np.random.default_rng(0))
        # two workers' second messages beat the third worker's first one
        assert messages == 5 and mask.sum() == 4


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

    def test_leading_trial_axes(self):
        asn = build_rcs(20, [1, 2, 3], offsets=[1, 4, 11, 15, 6, 18], mode="communication")
        unit_times = np.random.default_rng(5).exponential(size=(3, 2, 20))
        times = message_times(asn, unit_times)
        assert times.shape == (3, 2, 3, 20)
        for t in np.ndindex(3, 2):
            assert np.array_equal(times[t], message_times(asn, unit_times[t]))


def _stable_ranks(flat):
    """Arrival ranks and rank-ordered times from the stable sort alone."""
    order = np.argsort(flat, axis=1, kind="stable")
    ranks = np.empty(flat.shape)
    ranks[np.arange(flat.shape[0])[:, None], order] = np.arange(flat.shape[1])
    return ranks, np.take_along_axis(flat, order, axis=1)


def _per_order_blocks(supports):
    """The block ids ``_trials`` takes for supports: None for a fixed code's
    (n_workers, d_j) supports, and the (d_j, trials, n_workers) layout of
    per-trial supports stacked (trials, n_workers, d_j)."""
    return None if supports[0].ndim == 2 else tuple(ids.transpose(2, 0, 1) for ids in supports)


def _ranked_trials(assignment, supports, unit_times, threshold):
    """A peel code's batch decided on arrival ranks alone: every row is
    ranked by the stable sort, the release keys are ranks, and the stop time
    is read back from the rank-ordered arrivals.  The reference the
    time-keyed ``_trials`` must equal; supports are a fixed code's or
    stacked per trial."""
    arrivals = message_times(assignment, unit_times)
    n_trials = len(arrivals)
    flat = arrivals.reshape(n_trials, -1)
    trial = np.arange(n_trials)
    ranks, ordered = _stable_ranks(flat)
    ranks = ranks.reshape(arrivals.shape)
    release = decoding._release_ranks(
        assignment, decoding._block_tables(assignment, n_trials, _per_order_blocks(supports)), ranks
    )
    stop = np.partition(release, threshold - 1, axis=1)[:, threshold - 1]
    completed = stop < np.inf
    stop_rank = np.where(completed, stop, flat.shape[1] - 1).astype(int)
    masks = release <= stop_rank[:, None]
    ingested = pending = 0
    for m, msg in enumerate(assignment.messages):
        for j in msg.orders:
            ids = supports[j].reshape((-1,) + supports[j].shape[-2:])
            arrived = ranks[:, m] <= stop_rank[:, None]
            ingested = ingested + arrived.sum(axis=1)
            if ids.shape[2] > 1:
                unknown = ids.shape[2] - masks[trial[:, None, None], ids].sum(axis=2)
                pending = pending + (arrived & (unknown >= 2)).sum(axis=1)
    redundant = ingested - pending - masks.sum(axis=1)
    times = np.where(completed, ordered[trial, stop_rank], np.inf)
    messages = (flat <= times[:, None]).sum(axis=1)
    return times, messages, redundant, masks, completed


def _sort_kinds(call):
    """call's result and the ``kind`` of every ``np.argsort`` it made."""
    with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
        result = call()
    return result, [c.kwargs.get("kind") for c in spy.call_args_list]


def _tied_at_stop(flat, times):
    """Which trials have another arrival at their completion time."""
    return np.count_nonzero(flat == times[:, None], axis=1) > 1


class TestArrivalRanks:
    """Peel-code trials are decided on arrival times; only a trial with
    another arrival at its stop time is ranked, by the stable sort."""

    @settings(max_examples=200, deadline=None)
    @given(
        flat=arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 12)),
            elements=st.sampled_from([0.01, 0.02, 0.03]),
        )
    )
    def test_tied_rows_match_stable_sort(self, flat):
        ranks, kinds = _sort_kinds(lambda: _arrival_ranks(flat))
        for row, row_ranks in zip(flat.tolist(), ranks):
            order = sorted(range(len(row)), key=lambda c: (row[c], c))
            assert row_ranks[order].tolist() == list(range(len(row)))
        assert kinds == ["stable"]

    @pytest.mark.parametrize(
        "source, q",
        [(CircularShiftSource.of(40, [1, 2, 4]), 0.15), (build_uc_mmc(40, 3), 0.15)],
        ids=["rcs", "uc-mmc"],
    )
    def test_tie_free_trials_sort_nothing(self, source, q):
        trials, seed = 2 * _CHUNK + 5, 1729
        result, kinds = _sort_kinds(lambda: monte_carlo(source, q, MODEL, trials, seed))
        layout = simulate._source_layout(source)
        for t in range(trials):
            rng = trial_rng(seed, t)
            if isinstance(source, CircularShiftSource):
                source.draw(rng, source.pools(1)[0])
            flat = message_times(layout, _unit_times(MODEL, rng, layout.n_workers)).ravel()
            assert not _tied_at_stop(flat[None], result.times[t : t + 1])[0]
        assert kinds == []

    def test_only_trials_tied_at_the_stop_are_ranked(self, monkeypatch):
        asn, trials, seed, ranked = build_uc_mmc(8, 2), 200, 5, []
        rank = simulate._arrival_ranks
        monkeypatch.setattr(simulate, "_arrival_ranks", lambda flat: ranked.append(flat) or rank(flat))
        result = monte_carlo(asn, 0.25, _SomeTrialsTiedModel(), trials, seed)
        flat = np.array([
            message_times(asn, _unit_times(_SomeTrialsTiedModel(), trial_rng(seed, t), 8)).ravel()
            for t in range(trials)
        ])
        tied = _tied_at_stop(flat, result.times)
        assert 0 < tied.sum() < trials
        assert np.array_equal(np.concatenate(ranked), flat[tied])

    @pytest.mark.parametrize(
        "source", [CircularShiftSource.of(8, [1, 2, 3]), build_uc_mmc(8, 2)], ids=["rcs", "uc-mmc"]
    )
    def test_a_tied_batch_builds_its_tables_once(self, source, monkeypatch):
        # Ranked trials are swept again on the batch's own tables.
        built, ranked = [], []
        block_tables, rank = simulate._block_tables, simulate._arrival_ranks
        monkeypatch.setattr(simulate, "_block_tables", lambda *args: built.append(args) or block_tables(*args))
        monkeypatch.setattr(simulate, "_arrival_ranks", lambda flat: ranked.append(flat) or rank(flat))
        monte_carlo(source, 0.25, _SomeTrialsTiedModel(), 2 * _CHUNK + 5, seed=5)
        assert len(built) == len(ranked) == 3

    @pytest.mark.parametrize("model", [_TiedModel(), _TwoSpeedModel()], ids=["tied", "two-speed"])
    def test_tied_models_reach_the_fallback(self, model):
        _, kinds = _sort_kinds(lambda: monte_carlo(build_uc_mmc(8, 2), 0.0, model, 40, seed=17))
        assert "stable" in kinds


class TestSimulateIteration:
    """One simulated iteration: a trial of monte_carlo, or one row of _trials."""

    def test_no_straggling_four_workers(self):
        time, messages, _, mask, completed = _decide(hybrid_example(), 0.0, _NoStraggleRng())
        assert completed
        assert time == pytest.approx(MODEL.alpha)
        assert messages == 4
        assert mask.sum() == 4

    def test_full_tolerance_instant(self):
        time, messages, _, mask, completed = _decide(hybrid_example(), 1.0, np.random.default_rng(0))
        assert time == 0.0
        assert messages == 0
        assert mask.sum() == 0
        assert completed

    def test_single_message_counts_exactly_threshold(self):
        res = monte_carlo(build_mcc(40, 14), 0.0, MODEL, 20, seed=0)
        assert np.all(res.messages == 14)
        assert np.all(res.recovered == 40)

    def test_gc_threshold_behaviour(self):
        res = monte_carlo(build_gc(40, 6), 0.0, MODEL, 10, seed=0)
        assert np.all(res.messages == 35)  # 40 - 6 + 1

    def test_gc_ignores_tolerance(self):
        a = monte_carlo(build_gc(40, 6), 0.0, MODEL, 10, seed=0)
        b = monte_carlo(build_gc(40, 6), 0.3, MODEL, 10, seed=0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.messages, b.messages)

    def test_tolerance_waives_stragglers(self):
        # same latency draws: relaxing q can only speed things up
        asn = build_uc_mmc(40, 3)
        runs = [monte_carlo(asn, q, MODEL, 15, seed=0) for q in (0.0, 0.15, 0.3)]
        for t in range(15):
            times = [res.times[t] for res in runs]
            msgs = [res.messages[t] for res in runs]
            assert times == sorted(times, reverse=True)
            assert msgs == sorted(msgs, reverse=True)

    def test_recovered_mask_consistent(self):
        for seed in range(10):
            asn = build_rcs(20, [1, 2, 3], np.random.default_rng(seed))
            mask = _decide(asn, 0.25, np.random.default_rng(seed + 100))[3]
            assert mask.sum() >= 15  # ceil(0.75 * 20)
            assert mask.shape == (20,)

    def test_threshold_unreachable_reported(self):
        # single worker computing only 1 of 2 blocks can never satisfy q=0
        asn = ComputationAssignment(
            n_workers=1,
            k_total=2,
            support=(np.array([[0]]),),
            coefficients=(np.array([[1.0]]),),
            messages=(Message(1, (0,)),),
        )
        time, messages, _, _, completed = _decide(asn, 0.0, np.random.default_rng(0))
        assert not completed
        assert time == np.inf
        assert messages == 1

    def test_ties_included_in_message_count(self):
        # without straggling all first-round messages arrive together
        time, messages, _, _, _ = _decide(build_uc_mmc(4, 2), 0.0, _NoStraggleRng())
        assert time == pytest.approx(MODEL.alpha)
        assert messages == 4


class TestMonteCarlo:
    @pytest.mark.parametrize("seed", [101, 202])
    @pytest.mark.parametrize("name", ["mcc", "gc"])
    def test_count_rule_mean_matches_exact_law(self, name, seed):
        # The settings of acceptance criteria 3 and 4, at both their seeds.
        asn = build_mcc(40, 14) if name == "mcc" else build_gc(40, 6)
        res = monte_carlo(asn, 0.0, MODEL, 10_000, seed)
        exact = count_rule_mean(asn, MODEL)
        assert exact == pytest.approx(0.157237 if name == "mcc" else 1.257126, abs=5e-7)
        se = float(np.std(res.times, ddof=1)) / math.sqrt(len(res.times))
        assert abs(res.mean_time - exact) <= 4 * se, (res.mean_time, exact, se)

    def test_reproducible(self):
        a = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=7)
        b = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.messages, b.messages)

    def test_seed_changes_draws(self):
        a = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=7)
        b = monte_carlo(build_uc_mmc(10, 2), 0.2, MODEL, 50, seed=8)
        assert not np.array_equal(a.times, b.times)

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

    def test_incomplete_summary_is_strict_json(self):
        res = monte_carlo(_uncovered_block(), 0.0, MODEL, 20, seed=1)
        summary = res.summary()
        assert not res.completed.any()
        assert summary["mean_time"] is None
        assert summary["p50"] is None
        assert summary["completion_rate"] == 0.0
        assert summary["mean_recovered"] == 3.0
        assert set(summary) == set(monte_carlo(build_uc_mmc(8, 2), 0.25, MODEL, 5, seed=1).summary())
        json.dumps(summary, allow_nan=False)

    def test_trial_rng_deterministic(self):
        a = trial_rng(5, 3).standard_normal(4)
        b = trial_rng(5, 3).standard_normal(4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "source", [None, lambda rng: build_uc_mmc(8, 2)], ids=["none", "function"]
    )
    def test_other_sources_rejected(self, source):
        accepted = "ComputationAssignment or a CircularShiftSource"
        with pytest.raises(TypeError, match=accepted):
            monte_carlo(source, 0.25, MODEL, 5, seed=1)
        ds = generate_dataset(50, 16, np.random.default_rng(0))
        with pytest.raises(TypeError, match=accepted):
            train(ds, source, q=0.25, model=MODEL, eta=0.1, iterations=5, seed=1)

    def test_percentiles_among_incomplete_trials_are_infinite(self):
        times = np.array([1.0, 2.0, 3.0, np.inf, np.inf])
        zeros = np.zeros(5, dtype=int)
        res = MonteCarloResult(5, 0, times, zeros, zeros, zeros, np.isfinite(times))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            percentiles = res.time_percentiles((5, 40, 50, 60, 75, 100))
            summary = res.summary()
        assert percentiles["p5"] == pytest.approx(1.2)
        assert percentiles["p40"] == pytest.approx(2.6)
        assert percentiles["p50"] == 3.0
        assert percentiles["p60"] == percentiles["p75"] == percentiles["p100"] == np.inf
        assert summary["p50"] == 3.0 and summary["p75"] is None and summary["p95"] is None
        json.dumps(summary, allow_nan=False)


@pytest.mark.parametrize("qs", [(-10,), (150,), (math.nan,), (5, 50, 100.5)], ids=["below", "above", "nan", "one-of-three"])
def test_percentiles_outside_the_range_raise(qs):
    times = np.arange(1.0, 6.0)
    zeros = np.zeros(5, dtype=int)
    res = MonteCarloResult(5, 0, times, zeros, zeros, zeros, np.isfinite(times))
    message = r"Percentiles must be in the range \[0, 100\]"
    with pytest.raises(ValueError, match=message):
        np.percentile(times, qs)
    with pytest.raises(ValueError, match=message):
        res.time_percentiles(qs)


def _numpy_percentiles(times, qs):
    """time_percentiles through np.percentile itself, the reference: the
    higher element decides infinity, the linear method interpolates the
    capped times."""
    capped = np.minimum(times, np.finfo(float).max)
    return {
        f"p{p}": math.inf
        if np.isinf(np.percentile(times, p, method="higher"))
        else float(np.percentile(capped, p))
        for p in qs
    }


@pytest.mark.parametrize(
    "qs", [(5, 25, 50, 75, 95), (5, 40, 50, 60, 75, 100), (0, 2.5, 33.3, 99.9, 100)],
    ids=["default", "incomplete-test", "fractional"],
)
def test_percentiles_are_numpy_linear_percentiles(qs):
    rng = np.random.default_rng(23)
    cases = [np.array([2.5]), np.array([np.inf]), np.full(7, 0.3), np.array([1.0, 2.0, 3.0, np.inf, np.inf])]
    for scale in (1e-300, 1e-9, 1.0, 1e6, 1e300):
        for n in (1, 2, 3, 10, 101, 1000):
            times = rng.exponential(scale, n)
            repeated = rng.choice(times[: max(1, n // 4)], n)
            incomplete = np.where(rng.random(n) < 0.2, np.inf, times)
            cases += [times, repeated, incomplete]
    for times in cases:
        zeros = np.zeros(len(times), dtype=int)
        got = MonteCarloResult(len(times), 0, times, zeros, zeros, zeros, np.isfinite(times)).time_percentiles(qs)
        want = _numpy_percentiles(times, qs)
        assert list(got) == list(want)
        assert [type(v) for v in got.values()] == [float] * len(qs)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


class TestTrialStreams:
    """monte_carlo's batched seeding re-derives NumPy's SeedSequence hash and
    lets NumPy seed PCG64 from the hashed words, so both are checked against
    NumPy's own construction."""

    TRIALS = list(range(300)) + [2**31, 2**32 - 1]

    @pytest.mark.parametrize("seed", [0, 1, 1729, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7])
    def test_states_match_seed_sequence(self, seed):
        words = _stream_states(seed, np.array(self.TRIALS))
        expected = [np.random.SeedSequence((seed, t)).generate_state(4, np.uint64) for t in self.TRIALS]
        assert words.dtype == np.uint64
        assert np.array_equal(words, np.array(expected))
        for t, w in zip(self.TRIALS, words):
            rng, reference = np.random.default_rng(_StreamWords(w)), trial_rng(seed, t)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(rng.exponential(0.5, 40), reference.exponential(0.5, 40))
            assert np.array_equal(rng.permutation(40), reference.permutation(40))
            assert np.array_equal(rng.standard_normal(3), reference.standard_normal(3))

    def test_stream_words_serve_only_pcg64_seeding(self):
        words = _StreamWords(_stream_states(1729, [0])[0])
        expected = np.random.SeedSequence((1729, 0)).generate_state(4, np.uint64)
        assert np.array_equal(words.generate_state(4, np.uint64), expected)
        for n_words, dtype in [(4, np.uint32), (8, np.uint64), (2, np.uint64), (8, "u4"), (4, float)]:
            with pytest.raises(ValueError, match="4 uint64 words"):
                words.generate_state(n_words, dtype)
        # PCG64 reads the words' memory, so a strided view must be copied.
        strided = np.repeat(expected, 2)[::2]
        rng = np.random.default_rng(_StreamWords(strided))
        assert rng.bit_generator.state == trial_rng(1729, 0).bit_generator.state

    def test_trials_beyond_the_streams_rejected_before_drawing(self, monkeypatch):
        # Trial indices hash as one 32-bit word; a longer run is refused
        # before any stream is hashed or any trial drawn.
        monkeypatch.setattr(simulate, "_stream_states", lambda *args: pytest.fail("hashed a stream"))
        with pytest.raises(ValueError, match="trials must lie in \\[1, 4294967296\\]"):
            monte_carlo(build_uc_mmc(8, 2), 0.25, MODEL, 2**32 + 1, seed=1)
        with pytest.raises(ValueError, match="trials must lie in"):
            monte_carlo(CircularShiftSource.of(8, [1, 2]), 0.25, MODEL, 2**32 + 1, seed=1)
        ds = generate_dataset(50, 16, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials must lie in"):
            train(ds, build_uc_mmc(8, 2), q=0.25, model=MODEL, eta=0.1, iterations=2**32 + 1, seed=1)

    def test_negative_seed_or_trial_rejected(self):
        with pytest.raises(ValueError):
            _stream_states(-1, [0])
        with pytest.raises(ValueError):
            monte_carlo(build_uc_mmc(8, 2), 0.25, MODEL, 5, seed=-1)
        for t in (-1, 2**32):
            with pytest.raises(ValueError):
                _stream_states(0, [t])

    @pytest.mark.parametrize("trials, seed, message", [
        (5, 1.7, "seed must be an integer, got 1.7"),
        (5, True, "seed must be an integer, got True"),
        (True, 1, "trials must be an integer, got True"),
        (5.0, 1, "trials must be an integer, got 5.0"),
    ], ids=["float-seed", "bool-seed", "bool-trials", "float-trials"])
    def test_non_integer_trials_or_seed_rejected(self, trials, seed, message):
        # A float must not be truncated to a seed, nor a bool taken as one
        # trial; train names its trial count iterations.
        with pytest.raises(TypeError, match=f"^{message}$"):
            monte_carlo(build_mcc(8, 3), 0.0, MODEL, trials, seed)
        ds = generate_dataset(50, 16, np.random.default_rng(0))
        with pytest.raises(TypeError, match=f"^{message.replace('trials', 'iterations')}$"):
            train(ds, build_uc_mmc(8, 2), q=0.25, model=MODEL, eta=0.1, iterations=trials, seed=seed)

    def test_numpy_integer_trials_and_seed_accepted(self):
        got = monte_carlo(build_mcc(8, 3), 0.0, MODEL, np.int64(70), np.uint32(3))
        want = monte_carlo(build_mcc(8, 3), 0.0, MODEL, 70, 3)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.messages, want.messages)
        assert np.array_equal(got.recovered, want.recovered)

    def test_factory_sees_each_trial_stream(self, monkeypatch):
        """Every trial starts from the state trial_rng gives it, across
        batches and seed blocks, so the draw order per trial is pinned."""
        seen, draw = [], CircularShiftSource.draw

        def recording(source, rng, pools):
            seen.append(rng.bit_generator.state)
            return draw(source, rng, pools)

        monkeypatch.setattr(CircularShiftSource, "draw", recording)
        trials = _SEED_BLOCK + 2 * _CHUNK + 3
        monte_carlo(CircularShiftSource.of(8, [1, 2]), 0.25, MODEL, trials, seed=1729)
        assert len(seen) == trials
        for t, state in enumerate(seen):
            assert state == trial_rng(1729, t).bit_generator.state

    @pytest.mark.parametrize("redrawn", [False, True], ids=["fixed", "redrawn"])
    def test_every_trial_draws_its_own_stream(self, redrawn):
        """Each batch's exponentials, row by row, are what trial_rng draws:
        the shift permutation first for a redrawn code, then one exponential
        per worker.  The run crosses batches and a seed block."""
        source = CircularShiftSource.of(8, [1, 2]) if redrawn else build_uc_mmc(8, 2)
        n = simulate._source_layout(source).n_workers
        model, trials = _RecordingModel(), _SEED_BLOCK + 2 * _CHUNK + 3
        monte_carlo(source, 0.25, model, trials, seed=1729)
        rows = np.concatenate(model.exponentials)
        assert rows.shape == (trials, n)
        for t, row in enumerate(rows):
            reference = trial_rng(1729, t)
            if redrawn:
                reference.permutation(n)
            assert np.array_equal(row, reference.standard_exponential(n))

    def test_word_source_serves_rows_in_order(self):
        words = _stream_states(7, range(5))
        stream = _StreamWords(words)
        for t in range(5):
            rng = np.random.Generator(np.random.PCG64(stream))
            assert rng.bit_generator.state == trial_rng(7, t).bit_generator.state
        # Past its last row the source refuses to seed, as a ValueError.
        with pytest.raises(ValueError, match="every row"):
            stream.generate_state(4, np.uint64)
        with pytest.raises(ValueError, match="every row"):
            np.random.PCG64(stream)


GROUPED_Z = (1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2)
# name: (k, degrees, build_rcs keywords); the last is the criterion-5 code
SHIFT_CODES = {
    "rcs-124": (40, [1, 2, 4], {}),
    "rcs-124-communication": (40, [1, 2, 4], {"mode": "communication"}),
    "grouped": (40, [1, 1, 4, 8], {"groups": 2, "z": GROUPED_Z}),
}


@pytest.mark.parametrize("name", sorted(SHIFT_CODES))
class TestCircularShiftSource:
    """The draw object draws only the shifts and builds each batch's supports
    in one array pass; every draw must equal ``build_rcs`` on the same stream."""

    TRIALS = 150  # three batches, the last one partial

    def build(self, name, rng):
        k, degrees, kwargs = SHIFT_CODES[name]
        return build_rcs(k, degrees, rng, **kwargs)

    def source(self, name):
        k, degrees, kwargs = SHIFT_CODES[name]
        return CircularShiftSource.of(k, degrees, **kwargs)

    def test_batched_supports_are_build_rcs_draws(self, name, monkeypatch):
        # A batch's blocks are laid out (d_j, trials, k): trial t's support
        # is column t, transposed.
        seen = []

        def recording(assignment, blocks, unit_times, threshold):
            seen.append(blocks)
            return _trials(assignment, blocks, unit_times, threshold)

        monkeypatch.setattr(simulate, "_trials", recording)
        monte_carlo(self.source(name), 0.15, MODEL, self.TRIALS, seed=1729)
        assert [blocks[0].shape[1] for blocks in seen] == [_CHUNK, _CHUNK, self.TRIALS - 2 * _CHUNK]
        batched = [np.concatenate(ids, axis=1) for ids in zip(*seen)]
        for t in range(self.TRIALS):
            expected = self.build(name, trial_rng(1729, t)).support
            assert all(np.array_equal(ids[:, t].T, want) for ids, want in zip(batched, expected))

    def test_batch_tables_are_build_rcs_tables(self, name, monkeypatch):
        # Trial i of a batch owns columns i * k .. (i + 1) * k - 1 of every
        # order's table, offset by i * k_total; less that offset, they are
        # the tables of the trial's own build_rcs code.
        seen, block_tables, k = [], simulate._block_tables, SHIFT_CODES[name][0]
        monkeypatch.setattr(
            simulate, "_block_tables",
            lambda asn, n, blocks=None: seen.append(block_tables(asn, n, blocks)) or seen[-1],
        )
        monte_carlo(self.source(name), 0.15, MODEL, self.TRIALS, seed=1729)
        sizes = [_CHUNK, _CHUNK, self.TRIALS - 2 * _CHUNK]
        assert [tables[0][1].shape[1] // k for tables in seen] == sizes
        for start, size, tables in zip(np.cumsum([0] + sizes), sizes, seen):
            for i in range(size):
                asn = self.build(name, trial_rng(1729, start + i))
                for (m, table), (want_m, want) in zip(tables, decoding._block_tables(asn, 1)):
                    got = table.reshape(len(table), size, k)[:, i] - i * asn.k_total
                    assert m == want_m and got.dtype == want.dtype and np.array_equal(got, want)

    def test_draw_is_numpy_permutation(self, name):
        # A buffered draw shuffles arange(k) in place per group, which is
        # what Generator.permutation(k) does: same values, same end state.
        source = self.source(name)
        k = source.layout.n_workers
        pools = source.pools(3)
        assert pools.shape == (3, source.groups, k)
        for t, pool in enumerate(pools):
            rng, reference = trial_rng(5, t), trial_rng(5, t)
            drawn = source.draw(rng, pool)
            expected = [reference.permutation(k) for _ in range(source.groups)]
            assert drawn is pool
            assert drawn.dtype == expected[0].dtype and np.array_equal(drawn, expected)
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_callable_form_keeps_its_draws(self, name):
        # source(rng) takes row i's shift from its group's permutation.
        source = self.source(name)
        k = source.layout.n_workers
        for t in (0, 1, 99):
            rng, reference = trial_rng(5, t), trial_rng(5, t)
            permutations = np.array([reference.permutation(k) for _ in range(source.groups)])
            expected = source.at(permutations[source.rows, source.place] + 1)
            got = source(rng)
            assert all(np.array_equal(a, b) for a, b in zip(got.support, expected.support))
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_callable_form_is_build_rcs(self, name):
        source = self.source(name)
        for t in (0, 1, 99):
            got, want = source(trial_rng(5, t)), self.build(name, trial_rng(5, t))
            for ids, want_ids in zip(got.support + got.coefficients, want.support + want.coefficients):
                assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
            assert got.n_orders == want.n_orders
            assert (got.n_workers, got.k_total, got.messages) == (want.n_workers, want.k_total, want.messages)
            assert (got.mode, got.task_cost, got.decode) == (want.mode, want.task_cost, want.decode)

    def test_monte_carlo_equals_factory(self, name):
        for q in (0.0, 0.3):
            got = monte_carlo(self.source(name), q, MODEL, self.TRIALS, seed=1729)
            times, messages, redundant, masks, completed = _rebuilt_per_trial(
                lambda rng: self.build(name, rng), q, MODEL, self.TRIALS, seed=1729
            )
            want = dict(
                times=times, messages=messages, redundant=redundant,
                recovered=masks.sum(axis=1), completed=completed,
            )
            for field, value in want.items():
                assert np.array_equal(getattr(got, field), value), field


@pytest.mark.parametrize("name", ["rcs-124", "grouped"])
def test_train_on_circular_shift_source_equals_factory(name):
    k, degrees, kwargs = SHIFT_CODES[name]
    ds = generate_dataset(100, 80, np.random.default_rng(47))
    trials, eta = TestCircularShiftSource.TRIALS, 0.1
    got = train(ds, CircularShiftSource.of(k, degrees, **kwargs), 0.15, MODEL, eta, trials, seed=6)
    times, messages, _, masks, _ = _rebuilt_per_trial(
        lambda rng: build_rcs(k, degrees, rng, **kwargs), 0.15, MODEL, trials, seed=6
    )
    # The reference steps: each iteration updates exactly its recovered blocks.
    w_full, c = gram(ds)
    rows, theta, losses = ds.dim // masks.shape[1], np.zeros(ds.dim), []
    for mask in masks:
        w_theta = w_full @ theta
        blocks = {b: w_theta[b * rows : (b + 1) * rows] for b in np.flatnonzero(mask).tolist()}
        theta = partial_gd_step(theta, mask, blocks, c, eta / ds.n_samples)
        losses.append(loss(ds, theta))
    assert np.array_equal(got.times, times)
    assert np.array_equal(got.messages, messages)
    assert np.array_equal(got.recovered_fraction, masks.sum(axis=1) / masks.shape[1])
    assert np.array_equal(got.losses, losses)
    assert np.array_equal(got.theta, theta)


def test_circular_shift_source_checks_the_rules():
    with pytest.raises(ValueError, match="criterion \\(i\\)"):
        CircularShiftSource.of(10, [2, 3])
    with pytest.raises(ValueError, match="z: group 1 used 5 times"):
        CircularShiftSource.of(4, [1, 1, 3], groups=2, z=(1, 1, 1, 1, 1))


@st.composite
def _small_peel_codes(draw):
    """Two peel codes of one layout: K <= 8 blocks, up to 4 workers, 1-4
    orders of degree <= 3 spread over messages that carry one or several
    orders.  Random supports leave blocks uncovered and form stopping sets."""
    k = draw(st.integers(1, 8))
    workers = draw(st.integers(1, 4))
    degrees = draw(st.lists(st.integers(1, min(3, k)), min_size=1, max_size=4))
    orders = draw(st.permutations(range(len(degrees))))
    cuts = draw(st.lists(st.booleans(), min_size=len(degrees) - 1, max_size=len(degrees) - 1))
    groups = [[orders[0]]]
    for order, cut in zip(orders[1:], cuts):
        if cut:
            groups.append([])
        groups[-1].append(order)
    messages = tuple(Message(i + 1, tuple(g)) for i, g in enumerate(groups))

    def code():
        support = [
            [draw(st.permutations(range(k)))[:d] for _ in range(workers)] for d in degrees
        ]
        return _hand_built(workers, k, support, messages)

    return code(), code()


def _oracle_success(asn, scores, q):
    state = _PeelOracle(asn)
    for w, score in enumerate(scores):
        for m in [m for m, msg in enumerate(asn.messages) if msg.tasks_done <= score]:
            state.ingest_message(w, m)
    return state.recovered_count >= recovery_threshold(asn.k_total, q)


@settings(max_examples=60, deadline=None)
@given(codes=_small_peel_codes(), seed=st.integers(0, 2**16))
def test_small_peel_codes_match_oracle(codes, seed):
    """monte_carlo and the batches it joins (one fixed code), _trials on
    per-trial supports (each trial draws one of the two codes), and
    success_table equal the message-by-message PeelingDecoder replay."""
    model, trials, layout = _DrawnTiesModel(), 8, codes[0]

    for q in (0.0, 0.2, 0.5, 0.75, 1.0):
        res = monte_carlo(layout, q, model, trials, seed)
        batches = _run(layout, q, model, trials, seed)
        drawn, unit_times = [], []
        for t in range(trials):
            rng = trial_rng(seed, t)
            drawn.append(codes[int(rng.integers(2))])
            unit_times.append(_unit_times(model, rng, layout.n_workers))
        supports = tuple(map(np.stack, zip(*(asn.support for asn in drawn))))
        stacked = _trials(
            layout, _per_order_blocks(supports), np.array(unit_times), recovery_threshold(layout.k_total, q)
        )
        for t in range(trials):
            rng = trial_rng(seed, t)
            expected = _oracle(layout, q, _unit_times(model, rng, layout.n_workers))
            stop, messages, redundant, mask, completed = expected
            assert res.times[t] == stop
            assert res.messages[t] == messages
            assert res.redundant[t] == redundant
            assert res.recovered[t] == np.count_nonzero(mask)
            assert res.completed[t] == completed
            _assert_outcome([arr[t] for arr in batches], expected)
            _assert_outcome([arr[t] for arr in stacked], _oracle(drawn[t], q, unit_times[t]))
        for asn in codes:
            expected = [
                (ctype, sum(_oracle_success(asn, s, q) for s in score_vectors_of_type(ctype)))
                for ctype in all_types(asn.n_workers, asn.max_score)
            ]
            assert [(ctype, good) for ctype, good, _ in success_table(asn, q)] == expected


def _assert_same_trials(got, want):
    for field, a, b in zip(("times", "messages", "redundant", "masks", "completed"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@settings(max_examples=60, deadline=None)
@given(codes=_small_peel_codes(), seed=st.integers(0, 2**16), q=st.sampled_from([0.0, 0.2, 0.5, 0.75]))
def test_time_keys_match_ranked_oracle(codes, seed, q):
    """_trials on arrival times equals the decision on stable ranks of every
    row, for a fixed code and for per-trial supports, with ties drawn often:
    within a message, across messages and at the stop."""
    model, trials, layout = _DrawnTiesModel(), 16, codes[0]
    rng = np.random.default_rng(seed)
    unit_times = model.unit_times(rng.standard_exponential((trials, layout.n_workers)))
    drawn = [codes[i] for i in rng.integers(2, size=trials)]
    supports = tuple(map(np.stack, zip(*(asn.support for asn in drawn))))
    threshold = recovery_threshold(layout.k_total, q)
    for support in (layout.support, supports):
        _assert_same_trials(
            _trials(layout, _per_order_blocks(support), unit_times, threshold),
            _ranked_trials(layout, support, unit_times, threshold),
        )


@pytest.mark.parametrize(
    "source, q, finishes",
    [
        (CircularShiftSource.of(8, [1, 2, 3]), 0.0, True),
        (hybrid_example(), 0.25, True),
        (CircularShiftSource.of(6, [1, 1, 2], groups=2, z=(1, 1, 2, 2)), 0.25, False),
        (_uncovered_block(), 0.0, False),
    ],
    ids=["rcs", "hybrid", "unfinishable-grouped", "uncovered-block"],
)
def test_time_keys_reach_ties_at_the_stop_and_incomplete_trials(source, q, finishes):
    """The cases the time keys treat apart occur and equal the ranked
    oracle: trials with another arrival at their stop time, and trials that
    never finish (the grouped code's second group is only in its degree-2
    order, block 3 of the uncovered-block code in no task)."""
    trials, seed, model = 3 * _CHUNK, 11, _DrawnTiesModel()
    layout = simulate._source_layout(source)
    threshold = recovery_threshold(layout.k_total, q)
    supports, unit_times = [], []
    for t in range(trials):
        rng = trial_rng(seed, t)
        supports.append((source(rng) if isinstance(source, CircularShiftSource) else source).support)
        unit_times.append(_unit_times(model, rng, layout.n_workers))
    supports, unit_times = tuple(map(np.stack, zip(*supports))), np.array(unit_times)
    got = _trials(layout, _per_order_blocks(supports), unit_times, threshold)
    _assert_same_trials(got, _ranked_trials(layout, supports, unit_times, threshold))
    _assert_same_trials(got, _run(source, q, model, trials, seed))
    times, completed = got[0], got[4]
    if finishes:
        assert completed.all()
        assert _tied_at_stop(message_times(layout, unit_times).reshape(trials, -1), times).any()
    else:
        assert not completed.any()


def test_shift_supports_equal_the_modular_formula():
    """Every shift 0..k-1 in every grid row, gathered for a batch of k codes
    (blocks, rows first) and for one code at a time (at, whose offsets
    outside [1, k] wrap as the formula wraps them)."""
    for k, degrees, z in [(1, [1], None), (5, [1, 2], [1, 2, 1]), (40, [1, 2, 4], None)]:
        source = CircularShiftSource.of(k, degrees, groups=max(z or [1]), z=z)
        shifts = (np.arange(k)[:, None] + np.arange(len(source.rows))) % k  # (k codes, L)
        grid = source.rows[:, None] * k + (np.arange(k) + shifts[..., None]) % k  # (k, L, k)
        ends = np.cumsum(degrees)
        for ids, end, d in zip(source.blocks(shifts), ends, degrees):
            assert ids.shape == (d, k, k)
            assert np.array_equal(ids, grid[:, end - d : end].transpose(1, 0, 2))
        for t in range(k):
            for offsets in (shifts[t] + 1, shifts[t][::-1] - k):
                want = (np.arange(k) + offsets[:, None] - 1) % k + source.rows[:, None] * k
                got = source.at(offsets).support
                for ids, end, d in zip(got, ends, degrees):
                    assert ids.shape == (k, d) and np.array_equal(ids, want[end - d : end].T)
