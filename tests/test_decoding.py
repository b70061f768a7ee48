"""Peeling decoder, tolerance rule, exact-elimination oracle, numeric recovery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcomp import (
    CodedTask,
    PeelingDecoder,
    build_gc,
    build_mcc,
    build_uc_mmc,
    mcc_decode_values,
    recovery_threshold,
    rref_recoverable,
)
from codedcomp.simulate import make_decode_state


def random_instance(rng, max_blocks=8, max_tasks=12):
    """Random binary task list over a small block universe."""
    k = int(rng.integers(2, max_blocks + 1))
    n = int(rng.integers(1, max_tasks + 1))
    tasks = []
    for _ in range(n):
        degree = int(rng.integers(1, k + 1))
        support = rng.choice(k, size=degree, replace=False)
        tasks.append(CodedTask.of_blocks(sorted(int(b) for b in support)))
    return k, tasks


def peel_all(tasks, k):
    dec = PeelingDecoder(k)
    for t in tasks:
        dec.ingest(t)
    return dec.recovered


class TestThreshold:
    def test_quarter_tolerance(self):
        assert recovery_threshold(4, 0.25) == 3

    def test_zero_tolerance_needs_all(self):
        assert recovery_threshold(7, 0.0) == 7

    def test_full_tolerance_needs_none(self):
        assert recovery_threshold(7, 1.0) == 0

    def test_float_products_do_not_overshoot(self):
        # 0.85 * 40 = 33.999999999999996 must still give 34, not 35
        assert recovery_threshold(40, 0.15) == 34
        assert recovery_threshold(40, 0.3) == 28
        assert recovery_threshold(80, 0.15) == 68
        assert recovery_threshold(3, 1 / 3) == 2

    def test_fractional_rounds_up(self):
        assert recovery_threshold(10, 0.25) == 8
        assert recovery_threshold(10, 0.11) == 9

    def test_range_check(self):
        with pytest.raises(ValueError):
            recovery_threshold(4, 1.5)

    def test_monotone_in_q(self):
        for k in (1, 4, 13, 40, 80):
            prev = k
            for q in np.linspace(0, 1, 101):
                cur = recovery_threshold(k, float(q))
                assert cur <= prev
                prev = cur


class TestPeeling:
    def test_uncoded_recovers_directly(self):
        dec = PeelingDecoder(4)
        assert dec.ingest(CodedTask.of_blocks([0])) == {0}
        assert dec.recovered == {0}

    def test_coded_waits_for_partner(self):
        dec = PeelingDecoder(4)
        assert dec.ingest(CodedTask.of_blocks([2, 3])) == set()
        assert dec.pending_count == 1
        assert dec.ingest(CodedTask.of_blocks([2])) == {2, 3}
        assert dec.recovered == {2, 3}
        assert dec.pending_count == 0

    def test_four_worker_cascade(self):
        # arrivals from score vector [2,1,0,1] on the hand benchmark:
        # block 1, combo 3+4, block 2, block 4 (1-based)
        dec = PeelingDecoder(4)
        dec.ingest(CodedTask.of_blocks([0]))
        dec.ingest(CodedTask.of_blocks([2, 3]))
        dec.ingest(CodedTask.of_blocks([1]))
        newly = dec.ingest(CodedTask.of_blocks([3]))
        assert newly == {3, 2}
        assert dec.recovered == {0, 1, 2, 3}

    def test_chain_cascade(self):
        dec = PeelingDecoder(5)
        dec.ingest(CodedTask.of_blocks([3, 4]))
        dec.ingest(CodedTask.of_blocks([2, 3]))
        dec.ingest(CodedTask.of_blocks([1, 2]))
        dec.ingest(CodedTask.of_blocks([0, 1]))
        assert dec.recovered == set()
        newly = dec.ingest(CodedTask.of_blocks([4]))
        assert newly == {0, 1, 2, 3, 4}

    def test_duplicate_is_redundant_not_error(self):
        dec = PeelingDecoder(4)
        dec.ingest(CodedTask.of_blocks([1]))
        before = dec.recovered_count
        assert dec.ingest(CodedTask.of_blocks([1])) == set()
        assert dec.recovered_count == before
        assert dec.redundant_messages == 1

    def test_implied_combo_is_redundant(self):
        dec = PeelingDecoder(4)
        dec.ingest(CodedTask.of_blocks([0]))
        dec.ingest(CodedTask.of_blocks([1]))
        assert dec.ingest(CodedTask.of_blocks([0, 1])) == set()
        assert dec.redundant_messages == 1

    def test_state_stays_reduced(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k, tasks = random_instance(rng)
            dec = PeelingDecoder(k)
            for t in tasks:
                dec.ingest(t)
                pending = [rid for rid, left in enumerate(dec._unknown) if left >= 2]
                assert dec.pending_count == len(pending)
                for rid in pending:
                    blocks = {b for b in range(k) if rid in dec._by_block[b]}
                    unknown = blocks - dec.recovered
                    assert len(unknown) == dec._unknown[rid]
                    assert sum(unknown) == dec._id_sum[rid]

    def test_support_range_checked(self):
        dec = PeelingDecoder(3)
        with pytest.raises(ValueError, match="outside"):
            dec.ingest(CodedTask.of_blocks([5]))

    def test_meets_tolerance(self):
        dec = PeelingDecoder(4)
        for b in (0, 1, 2):
            dec.ingest(CodedTask.of_blocks([b]))
        assert dec.meets_tolerance(0.25)
        assert not dec.meets_tolerance(0.0)
        empty = PeelingDecoder(4)
        assert empty.meets_tolerance(1.0)

    def test_mask(self):
        dec = PeelingDecoder(5)
        dec.ingest(CodedTask.of_blocks([1]))
        dec.ingest(CodedTask.of_blocks([4]))
        assert np.array_equal(dec.recovered_mask(), [False, True, False, False, True])

    def test_arrival_order_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k, tasks = random_instance(rng)
            base = peel_all(tasks, k)
            for _ in range(20):
                perm = rng.permutation(len(tasks))
                assert peel_all([tasks[i] for i in perm], k) == base

    def test_real_coefficients(self):
        dec = PeelingDecoder(3)
        dec.ingest(CodedTask((0, 1), (1.0, 2.0)), payload=np.array([5.0]))
        dec.ingest(CodedTask((1,), (4.0,)), payload=np.array([8.0]))
        values = dec.decode_values()
        assert values[1] == pytest.approx(2.0)
        assert values[0] == pytest.approx(1.0)  # 5 - 2*2


@st.composite
def binary_instances(draw):
    """(k, tasks): up to 12 binary tasks over k <= 8 blocks."""
    k = draw(st.integers(1, 8))
    supports = st.sets(st.integers(0, k - 1), min_size=1).map(sorted)
    tasks = draw(st.lists(supports, min_size=1, max_size=12))
    return k, [CodedTask.of_blocks(t) for t in tasks]


def _peel(tasks, k, payloads=None):
    dec = PeelingDecoder(k)
    for i, t in enumerate(tasks):
        dec.ingest(t, None if payloads is None else payloads[i])
    return dec


class TestPeelingProperties:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(binary_instances())
    def test_subset_of_elimination(self, case):
        k, tasks = case
        assert _peel(tasks, k).recovered <= rref_recoverable(tasks, k)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(binary_instances(), st.randoms(use_true_random=False))
    def test_order_invariant(self, case, random):
        k, tasks = case
        shuffled = random.sample(tasks, len(tasks))
        a, b = _peel(tasks, k), _peel(shuffled, k)
        assert a.recovered == b.recovered
        assert a.recovered_count == b.recovered_count
        assert a.redundant_messages == b.redundant_messages

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(binary_instances())
    def test_message_accounting(self, case):
        k, tasks = case
        dec = _peel(tasks, k)
        known = dec.recovered
        assert dec.messages_ingested == len(tasks)
        assert dec.redundant_messages == (
            dec.messages_ingested - dec.pending_count - dec.recovered_count
        )
        # Peeling stops with no task one block short of known: a task is
        # pending iff two or more of its blocks stay unknown, and every other
        # task either released one recovered block or was redundant.
        unknown = [len(set(t.support) - known) for t in tasks]
        assert 1 not in unknown
        assert dec.pending_count == sum(u >= 2 for u in unknown)
        assert dec.redundant_messages == unknown.count(0) - dec.recovered_count

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(binary_instances(), st.integers(0, 2**32 - 1))
    def test_payload_values(self, case, seed):
        k, tasks = case
        blocks = np.random.default_rng(seed).standard_normal((k, 3))
        payloads = [blocks[list(t.support)].sum(axis=0) for t in tasks]
        dec = _peel(tasks, k, payloads)
        values = dec.decode_values()
        assert set(values) == dec.recovered
        for b, v in values.items():
            assert np.allclose(v, blocks[b], rtol=0, atol=1e-9)


class TestRref:
    def test_simple_chain(self):
        tasks = [CodedTask.of_blocks([0]), CodedTask.of_blocks([0, 1])]
        assert rref_recoverable(tasks, 4) == {0, 1}

    def test_lone_combo_recovers_nothing(self):
        assert rref_recoverable([CodedTask.of_blocks([2, 3])], 4) == set()

    def test_dense_triangle_beats_peeling(self):
        # {1+2, 2+3, 1+3} has full rank over the rationals, so elimination
        # recovers everything while peeling recovers nothing
        tasks = [
            CodedTask.of_blocks([0, 1]),
            CodedTask.of_blocks([1, 2]),
            CodedTask.of_blocks([0, 2]),
        ]
        assert rref_recoverable(tasks, 3) == {0, 1, 2}
        assert peel_all(tasks, 3) == set()

    def test_partial_rank(self):
        tasks = [
            CodedTask.of_blocks([0]),
            CodedTask.of_blocks([1, 2]),
            CodedTask.of_blocks([1, 2, 3]),
        ]
        # block 0 free; 1,2 entangled; 3 = row3 - row2
        assert rref_recoverable(tasks, 4) == {0, 3}

    def test_peeling_never_beats_elimination(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            k, tasks = random_instance(rng)
            assert peel_all(tasks, k) <= rref_recoverable(tasks, k)

    def test_redundant_rows_ignored(self):
        tasks = [CodedTask.of_blocks([0, 1])] * 3
        assert rref_recoverable(tasks, 2) == set()


def gc_aggregate(received_workers, k, load):
    """Whether the exact-sum decode rule recovers everything from these
    complete workers."""
    state = make_decode_state(build_gc(k, load))
    for w in received_workers:
        state.ingest_message(w, 0)
    return state.recovered_count == k


def test_decode_state_is_for_count_rules_only():
    with pytest.raises(ValueError, match="PeelingDecoder"):
        make_decode_state(build_uc_mmc(4, 2))


class TestGcThreshold:
    def test_four_workers_load_two(self):
        assert not gc_aggregate({0, 1}, 4, 2)
        assert gc_aggregate({0, 1, 3}, 4, 2)

    def test_full_load(self):
        assert gc_aggregate({2}, 6, 6)

    def test_duplicates_not_counted(self):
        assert not gc_aggregate([1, 1, 1], 4, 2)

    def test_forty_workers(self):
        assert gc_aggregate(set(range(35)), 40, 6)
        assert not gc_aggregate(set(range(34)), 40, 6)


class TestNumericRecovery:
    def test_peeling_values_exact(self):
        rng = np.random.default_rng(19)
        blocks = [rng.standard_normal(3) for _ in range(6)]
        tasks = [
            CodedTask.of_blocks([0]),
            CodedTask.of_blocks([0, 3]),
            CodedTask.of_blocks([3, 4, 5]),
            CodedTask.of_blocks([4]),
            CodedTask.of_blocks([1, 2]),
            CodedTask.of_blocks([2]),
        ]
        dec = PeelingDecoder(6)
        for t in tasks:
            payload = sum(blocks[b] for b in t.support)
            dec.ingest(t, payload)
        values = dec.decode_values()
        assert set(values) == set(range(6))
        for b, v in values.items():
            assert np.allclose(v, blocks[b], atol=1e-12)

    def test_missing_payload_reported(self):
        dec = PeelingDecoder(2)
        dec.ingest(CodedTask.of_blocks([0]))
        with pytest.raises(ValueError, match="payload"):
            dec.decode_values()

    def test_mds_group_solve(self):
        rng = np.random.default_rng(29)
        blocks = [rng.standard_normal(2) for _ in range(4)]
        asn = build_mcc(4, 2, [1, 2, 4, 8])
        payloads = {}
        for w in (0, 1):
            payloads[w] = [
                sum(c * blocks[b] for b, c in zip(t.support, t.coefficients))
                for t in asn.worker_tasks(w)
            ]
        values = mcc_decode_values(asn, payloads)
        assert set(values) == {0, 1, 2, 3}
        for b, v in values.items():
            assert np.allclose(v, blocks[b], atol=1e-9)

    def test_mds_any_worker_subset(self):
        rng = np.random.default_rng(31)
        blocks = [rng.standard_normal(1) for _ in range(6)]
        asn = build_mcc(6, 3)
        for subset in itertools.combinations(range(6), 3):
            payloads = {
                w: [
                    sum(c * blocks[b] for b, c in zip(t.support, t.coefficients))
                    for t in asn.worker_tasks(w)
                ]
                for w in subset
            }
            values = mcc_decode_values(asn, payloads)
            for b, v in values.items():
                assert np.allclose(v, blocks[b], atol=1e-6)

    def test_mds_not_enough_workers(self):
        asn = build_mcc(4, 2)
        with pytest.raises(ValueError, match="complete workers"):
            mcc_decode_values(asn, {0: [np.zeros(1), np.zeros(1)]})

    def test_mds_ill_conditioned_workers_raise(self):
        # 14 of 40 workers with the default points 1, 2, 4, ...: the solve
        # returns blocks off by ~1e127 unless the decoder refuses it
        rng = np.random.default_rng(37)
        blocks = [rng.standard_normal(1) for _ in range(40)]
        asn = build_mcc(40, 14)
        workers = rng.choice(40, 14, replace=False)
        with pytest.raises(ValueError, match="condition number"):
            mcc_decode_values(asn, _mds_payloads(asn, blocks, workers))

    def test_mds_condition_check_not_residual(self):
        # nearly equal points: the solve leaves a residual of ~1e-15, yet
        # the blocks are off by ~1e-4, so only the condition number tells
        points = [1.0, 1.0 + 1e-6, 1.0 + 2e-6, 2.0]
        asn = build_mcc(4, 3, points)
        vander = np.vander(np.array(points[:3]), 3, increasing=True)
        x = np.random.default_rng(3).standard_normal((3, 1))
        sol = np.linalg.solve(vander, vander @ x)
        assert np.linalg.norm(vander @ sol - vander @ x) <= 1e-12 * np.linalg.norm(vander @ x)
        assert np.abs(sol - x).max() > 1e-6
        blocks = [np.array([v]) for v in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(ValueError, match="condition number"):
            mcc_decode_values(asn, _mds_payloads(asn, blocks, [0, 1, 2]))


def _mds_payloads(asn, blocks, workers):
    return {
        int(w): [
            sum(c * blocks[b] for b, c in zip(t.support, t.coefficients))
            for t in asn.worker_tasks(int(w))
        ]
        for w in workers
    }
