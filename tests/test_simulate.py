"""Iteration simulator and Monte Carlo aggregation."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcomp import (
    LatencyModel,
    PeelingDecoder,
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    hybrid_example,
    message_times,
    monte_carlo,
    recovery_threshold,
    simulate_iteration,
    success_table,
    trial_rng,
)
from codedcomp.blocks import DECODE_PEEL, ComputationAssignment, Message
from codedcomp.enumeration import all_types, messages_for_score, score_vectors_of_type
from codedcomp.simulate import MonteCarloResult, make_decode_state

MODEL = LatencyModel(mu=10.0, alpha=0.01)


class _NoStraggleRng:
    """Stand-in generator whose exponential draws are all zero."""

    def exponential(self, scale, size=None):
        return np.zeros(size if size is not None else 1)


class _TiedModel:
    """Latency model whose workers all take the same unit time, so arrivals tie."""

    def sample_unit_times(self, rng, n):
        return MODEL.sample_unit_times(_NoStraggleRng(), n)


class _TwoSpeedModel:
    """Odd workers take twice as long, in a random order of worker ids, so
    a fast worker's later message ties with a slow worker's earlier one."""

    def sample_unit_times(self, rng, n):
        return MODEL.alpha * (1.0 + rng.permutation(n) % 2)


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


def _threshold_below_one():
    # three orders on two workers: the first arrival alone decodes
    return _hand_built(
        2, 3, ([[0], [1]], [[1], [2]], [[2], [0]]), (Message(3, (0, 1, 2)),), "threshold"
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
    "threshold-below-one": (_threshold_below_one(), (0.0, 1.0)),
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


def _assert_outcome(out, expected):
    stop, messages, redundant, mask, completed = expected
    assert out.completion_time == stop
    assert type(out.completion_time) is float
    assert out.messages_received == messages
    assert out.redundant_messages == redundant
    assert np.array_equal(out.recovered_mask, mask)
    assert out.recovered_mask.dtype == bool
    assert out.recovered_count == np.count_nonzero(mask)
    assert out.completed is completed


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
            for t in range(trials):
                unit_times = model.sample_unit_times(trial_rng(17, t), asn.n_workers)
                expected = _oracle(asn, q, unit_times)
                stop, messages, redundant, mask, completed = expected
                assert res.times[t] == stop
                assert res.messages[t] == messages
                assert res.redundant[t] == redundant
                assert res.recovered[t] == np.count_nonzero(mask)
                assert res.completed[t] == completed
                _assert_outcome(simulate_iteration(asn, q, model, trial_rng(17, t)), expected)

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_no_straggling(self, name):
        asn, qs = ORACLE_CASES[name]
        unit_times = MODEL.sample_unit_times(_NoStraggleRng(), asn.n_workers)
        for q in qs:
            out = simulate_iteration(asn, q, MODEL, _NoStraggleRng())
            _assert_outcome(out, _oracle(asn, q, unit_times))

    def test_cases_reach_every_branch(self):
        # the hand-built cases do what their names say
        out = simulate_iteration(_uncovered_block(), 0.0, MODEL, np.random.default_rng(0))
        assert not out.completed and out.recovered_count == 3 and out.redundant_messages == 3
        out = simulate_iteration(_two_orders_one_message(), 0.0, MODEL, np.random.default_rng(0))
        assert out.messages_received == 4 and out.redundant_messages == 4
        out = simulate_iteration(_threshold_below_one(), 0.0, MODEL, np.random.default_rng(0))
        assert out.messages_received == 1 and out.redundant_messages == 1
        out = simulate_iteration(_mds_two_messages(), 0.0, MODEL, np.random.default_rng(0))
        # two workers' second messages beat the third worker's first one
        assert out.messages_received == 5 and out.recovered_count == 4


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

    def test_factory_must_keep_its_layout(self):
        sizes = iter([4] + [5] * 30)

        def factory(rng):
            return build_uc_mmc(next(sizes), 2)

        with pytest.raises(ValueError, match="factory changed"):
            monte_carlo(factory, 0.0, MODEL, 20, seed=1)

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


class _DrawnTiesModel:
    """Unit times of one, two or three alphas drawn from the trial stream, so
    arrivals of different workers tie often, within a message and across
    messages."""

    def sample_unit_times(self, rng, n):
        return MODEL.alpha * (1.0 + rng.integers(0, 3, n))


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
        for m in messages_for_score(asn, score):
            state.ingest_message(w, m)
    return state.recovered_count >= recovery_threshold(asn.k_total, q)


@settings(max_examples=60, deadline=None)
@given(codes=_small_peel_codes(), seed=st.integers(0, 2**16))
def test_small_peel_codes_match_oracle(codes, seed):
    """monte_carlo (fixed code and redrawn codes), simulate_iteration and
    success_table equal the message-by-message PeelingDecoder replay."""
    model, trials = _DrawnTiesModel(), 8

    def factory(rng):
        return codes[int(rng.integers(2))]

    for q in (0.0, 0.2, 0.5, 0.75, 1.0):
        for source in (codes[0], factory):
            res = monte_carlo(source, q, model, trials, seed)
            for t in range(trials):
                rng = trial_rng(seed, t)
                asn = source(rng) if callable(source) else source
                expected = _oracle(asn, q, model.sample_unit_times(rng, asn.n_workers))
                stop, messages, redundant, mask, completed = expected
                assert res.times[t] == stop
                assert res.messages[t] == messages
                assert res.redundant[t] == redundant
                assert res.recovered[t] == np.count_nonzero(mask)
                assert res.completed[t] == completed
                rng = trial_rng(seed, t)
                asn = source(rng) if callable(source) else source
                _assert_outcome(simulate_iteration(asn, q, model, rng), expected)
        for asn in codes:
            expected = [
                (ctype, sum(_oracle_success(asn, s, q) for s in score_vectors_of_type(ctype)))
                for ctype in all_types(asn.n_workers, asn.max_score)
            ]
            assert [(ctype, good) for ctype, good, _ in success_table(asn, q)] == expected
