"""Peeling decoder, tolerance rule, exact-elimination oracle, block values."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from codedcomp import (
    CodedTask,
    ComputationAssignment,
    LatencyModel,
    Message,
    PeelingDecoder,
    assignment_source,
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    concrete_assignment,
    decode_blocks,
    hybrid_example,
    monte_carlo,
    parse_config,
    recovery_threshold,
    rref_recoverable,
)
from codedcomp import decoding, simulate
from codedcomp.decoding import _block_tables, _offers, _release_ranks
from codedcomp.simulate import _arrival_ranks, make_decode_state, message_times


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


def one_worker_code(k, tasks):
    """The tasks as a one-worker assignment, each its own order and message."""
    return ComputationAssignment(
        n_workers=1,
        k_total=k,
        support=tuple(np.array([t.support]) for t in tasks),
        coefficients=tuple(np.array([t.coefficients]) for t in tasks),
        messages=tuple(Message(i + 1, (i,)) for i in range(len(tasks))),
    )


def task_payloads(asn, blocks):
    """Every task's result, one (n_workers, ...) array per order."""
    blocks = np.asarray(blocks, dtype=float)
    return [
        np.einsum("wd,wd...->w...", c, blocks[ids]) for ids, c in zip(asn.support, asn.coefficients)
    ]


def all_arrived(asn):
    return np.ones((len(asn.messages), asn.n_workers), dtype=bool)


def assert_blocks(values, blocks, rel=1e-9):
    for b, v in values.items():
        assert np.linalg.norm(v - blocks[b]) <= rel * np.linalg.norm(blocks[b]), b


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
            stored = []  # the task behind each residual
            for t in tasks:
                dec.ingest(t)
                stored += [t] * (len(dec._residuals) - len(stored))
                sizes = [len(res) for res in dec._residuals]
                assert 1 not in sizes
                assert dec.pending_count == sum(size >= 2 for size in sizes)
                for task, res in zip(stored, dec._residuals):
                    assert res == set(task.support) - dec.recovered

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
        asn = one_worker_code(3, [CodedTask((0, 1), (1.0, 2.0)), CodedTask((1,), (4.0,))])
        values = decode_blocks(asn, all_arrived(asn), [np.array([[5.0]]), np.array([[8.0]])])
        assert set(values) == {0, 1}
        assert values[1] == pytest.approx([2.0])
        assert values[0] == pytest.approx([1.0])  # 5 - 2*2


@st.composite
def binary_instances(draw):
    """(k, tasks): up to 12 binary tasks over k <= 8 blocks."""
    k = draw(st.integers(1, 8))
    supports = st.sets(st.integers(0, k - 1), min_size=1).map(sorted)
    tasks = draw(st.lists(supports, min_size=1, max_size=12))
    return k, [CodedTask.of_blocks(t) for t in tasks]


def _peel(tasks, k):
    dec = PeelingDecoder(k)
    for t in tasks:
        dec.ingest(t)
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
        asn = one_worker_code(k, tasks)
        values = decode_blocks(asn, all_arrived(asn), task_payloads(asn, blocks))
        assert set(values) == peel_all(tasks, k)
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


_KEYS = st.sampled_from([0.0, 0.5, 1.0, 3.0, np.inf])


@settings(deadline=None, max_examples=300)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 6)), elements=_KEYS), data=st.data())
def test_offers_are_the_key_against_the_other_rows(values, data):
    # Few distinct keys, infinity among them, so rows tie with each other
    # and with the key.
    key = data.draw(arrays(np.float64, values.shape[1], elements=_KEYS))
    given_values, given_key = values.copy(), key.copy()
    got = decoding._offers(values, key)
    assert got.shape == values.shape and got.flags.c_contiguous
    for i in range(len(values)):
        others = np.delete(values, i, axis=0)
        want = np.maximum(key, others.max(axis=0)) if len(others) else key
        assert np.array_equal(got[i], want)
    assert np.array_equal(values, given_values) and np.array_equal(key, given_key)


def copy_and_compare_release(assignment, tables, keys):
    """The release keys by sweeps over every task that each copy the keys
    and stop once a sweep leaves them equal: the fixed point
    ``_release_ranks`` reaches.  Every block starts at infinity, or at an
    integer dtype's largest value, in the keys' dtype."""
    top = np.inf if keys.dtype.kind == "f" else np.iinfo(keys.dtype).max
    release = np.full(keys.shape[0] * assignment.k_total, top, dtype=keys.dtype)
    coded = []
    for m, table in tables:
        if len(table) == 1:
            np.minimum.at(release, table[0], keys[:, m].ravel())
        else:
            coded.append((table, keys[:, m].ravel()))
    while coded:
        before = release.copy()
        for table, key in coded:
            np.minimum.at(release, table.ravel(), decoding._offers(release[table], key).ravel())
        if np.array_equal(release, before):
            break
    return release.reshape(keys.shape[0], assignment.k_total)


@st.composite
def peel_codes(draw):
    """Peel codes of one to three workers over one to six blocks, with one to
    four orders of any degree, grouped into messages at random."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    degrees = draw(st.lists(st.integers(1, k), min_size=1, max_size=4))
    support = tuple(
        np.array([draw(st.permutations(range(k)))[:d] for _ in range(n)]) for d in degrees
    )
    carrier = draw(st.lists(st.integers(0, len(degrees) - 1), min_size=len(degrees), max_size=len(degrees)))
    groups = [tuple(j for j in range(len(degrees)) if carrier[j] == m) for m in sorted(set(carrier))]
    return ComputationAssignment(
        n_workers=n,
        k_total=k,
        support=support,
        coefficients=tuple(np.ones(ids.shape) for ids in support),
        messages=tuple(Message(i + 1, orders) for i, orders in enumerate(groups)),
    )


@settings(deadline=None, derandomize=True, max_examples=300)
@given(peel_codes(), st.integers(1, 4), st.booleans(), st.data())
def test_release_keys_equal_the_copy_and_compare_loop(asn, trials, sent_only, data):
    # Arrival times with ties and infinity, or 0 for sent and infinity for
    # unsent as enumeration keys them.
    elements = st.sampled_from([0.0, np.inf] if sent_only else [0.0, 0.5, 1.0, 2.5, np.inf])
    keys = data.draw(arrays(np.float64, (trials, len(asn.messages), asn.n_workers), elements=elements))
    tables = _block_tables(asn, trials)
    assert np.array_equal(_release_ranks(asn, tables, keys), copy_and_compare_release(asn, tables, keys))


class _MinimumSpy:
    """np.minimum.at, each scatter's size recorded, and ``_offers``, the
    keys each sweep gathers and the task keys beside them recorded."""

    def __init__(self):
        self.scatters = []
        self.gathers = []

    def at(self, target, index, values):
        self.scatters.append(len(np.ravel(index)))
        np.minimum.at(target, index, values)

    def offers(self, values, key):
        self.gathers.append((values.tolist(), key.tolist()))
        return _offers(values, key)


@pytest.mark.parametrize("coded_key, scatters, release", [(5.0, [1, 1], [0.0, 2.0]), (1.0, [1, 1, 2], [0.0, 1.0])])
def test_orders_that_cannot_improve_issue_no_scatter(coded_key, scatters, release, monkeypatch):
    # Blocks 0 and 1 arrive alone at keys 0 and 2, each settling before the
    # sweeps with one scatter.  The task {0, 1} offers max(its key, the
    # other block's key) to each block: at key 5, at or above both blocks,
    # no offer can improve, so no sweep gathers it; at key 1 the first sweep
    # gathers it and lowers block 1 to 1, which leaves the task at or above
    # both blocks, so the next sweep gathers nothing and ends the loop
    # without a scatter.
    asn = one_worker_code(2, [CodedTask.of_blocks([0]), CodedTask.of_blocks([1]), CodedTask.of_blocks([0, 1])])
    spy = _MinimumSpy()

    class SpiedNumpy:
        minimum = spy

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(decoding, "np", SpiedNumpy())
    monkeypatch.setattr(decoding, "_offers", spy.offers)
    keys = np.array([[[0.0], [2.0], [coded_key]]])
    got = _release_ranks(asn, _block_tables(asn, 1), keys)
    assert spy.scatters == scatters
    # Only the first sweep gathers the task, and only while it is keyed
    # below block 1's key 2.
    assert spy.gathers == ([([[0.0], [2.0]], [coded_key])] if coded_key < 2 else [])
    assert got.tolist() == [release]


CRITERION_5_Z = (1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2)

# name: the code whose sent sets are decided on byte keys and on float keys
BYTE_KEY_CODES = {
    "rcs-9": lambda rng: build_rcs(9, [1, 2], offsets=[1, 3, 5]),
    "rcs-general-8": lambda rng: build_rcs(8, [1, 1, 2], rng, groups=2, z=[1, 2, 1, 2]),
    "rcs-40": lambda rng: build_rcs(40, [1, 2, 4], rng),
    "rcs-general-40": lambda rng: build_rcs(40, [1, 1, 4, 8], rng, groups=2, z=CRITERION_5_Z),
    "uc-mmc-40": lambda rng: build_uc_mmc(40, 3),
    "hybrid": lambda rng: hybrid_example(),
    "mcc-8": lambda rng: build_mcc(8, 3),
    "mcc-40": lambda rng: build_mcc(40, 14),
    "gc-40": lambda rng: build_gc(40, 6),
}


@pytest.mark.parametrize("name", sorted(BYTE_KEY_CODES))
def test_byte_keys_equal_the_float_closure(name):
    # Random sent sets at densities from sparse to nearly full, plus the
    # all-sent and none-sent sets.  The uint8 keys (0 sent, 1 not) start
    # every block at 255 and must reach the float fixed point from infinity.
    rng = np.random.default_rng(33)
    asn = BYTE_KEY_CODES[name](rng)
    shape = (len(asn.messages), asn.n_workers)
    density = np.linspace(0.05, 0.95, 62)[:, None, None]
    sent = np.concatenate([rng.random((62,) + shape) < density, np.ones((2,) + shape, bool)])
    sent[-1] = False
    tables = _block_tables(asn, len(sent))
    floats = _release_ranks(asn, tables, np.where(sent, 0.0, np.inf))
    got = decoding._recovered(asn, sent)
    assert got.dtype == bool and np.array_equal(got, floats < np.inf)
    # A byte key is 0 where the sent messages recover the block, 1 where
    # every message does, and the start 255 where none recover it.
    every = _release_ranks(asn, tables, np.zeros(sent.shape)) < np.inf
    release = _release_ranks(asn, tables, np.logical_not(sent).view(np.uint8))
    assert release.dtype == np.uint8
    assert np.array_equal(release, np.where(got, 0, np.where(every, 1, 255)))
    assert got[-2].all() and not got[-1].any()


# name: a drawn code at the paper's scale, K = 40
PAPER_SCALE = {
    "rcs-40": {"scheme": "rcs", "workers": 40, "degrees": [1, 2, 4], "q": 0.15},
    "rcs-general-40": {
        "scheme": "rcs-general", "workers": 40, "degrees": [1, 1, 4, 8], "groups": 2, "z": CRITERION_5_Z,
        "q": 0.15,
    },
}


@pytest.mark.parametrize("name", sorted(PAPER_SCALE))
def test_simulated_batches_release_as_the_unpruned_sweeps(name, monkeypatch):
    # Two 64-trial batches as monte_carlo draws them.  Dropping dead tasks
    # from the sweeps must leave the fixed point of every key kind unchanged:
    # the arrival times, their stable-sort ranks (the tie path) and one-byte
    # sent keys for arrival prefixes from 5% of the messages to all of them.
    cfg = parse_config(PAPER_SCALE[name])
    batches = []
    with monkeypatch.context() as patch:
        patch.setattr(
            simulate, "_release_ranks",
            lambda asn, tables, keys: batches.append((asn, tables, keys)) or _release_ranks(asn, tables, keys),
        )
        monte_carlo(assignment_source(cfg), cfg.q, cfg.model(), 128, 35)
    assert len(batches) >= 2
    for asn, tables, times in batches:
        assert times.shape == (64, len(asn.messages), 40)
        ranks = _arrival_ranks(times.reshape(64, -1)).reshape(times.shape)
        sent = ranks < np.linspace(0.05, 1.0, 64)[:, None, None] * ranks[0].size
        for keys in (times, ranks, np.logical_not(sent).view(np.uint8)):
            got = _release_ranks(asn, tables, keys)
            assert got.dtype == keys.dtype
            assert np.array_equal(got, copy_and_compare_release(asn, tables, keys))


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


def check_arrival_prefixes(asn, blocks, seed, every=1):
    """Feed asn's messages in arrival order (ties by message, then worker).

    After each arrival the peeling decoder must hold the blocks the release
    ranks name; after every ``every``-th arrival and the last one,
    ``decode_blocks`` must return exactly those blocks, each within a
    relative error of 1e-9.  Returns the decoder."""
    unit_times = LatencyModel().sample_unit_times(np.random.default_rng(seed), asn.n_workers)
    arrivals = message_times(asn, unit_times)
    order = np.argsort(arrivals, axis=None, kind="stable")
    ranks = np.empty(order.size)
    ranks[order] = np.arange(order.size)
    ranks = ranks.reshape(arrivals.shape)
    release = _release_ranks(asn, _block_tables(asn, 1), ranks[None])[0]
    payloads = task_payloads(asn, blocks)
    dec = PeelingDecoder(asn.k_total)
    for r, flat in enumerate(order):
        m, w = divmod(int(flat), asn.n_workers)
        for j in asn.messages[m].orders:
            dec.ingest(asn.tasks[j][w])
        assert np.array_equal(dec.recovered_mask(), release <= r)
        if r % every == 0 or r == order.size - 1:
            values = decode_blocks(asn, ranks <= r, payloads)
            assert set(values) == dec.recovered
            assert_blocks(values, blocks)
    return dec


def mcc_arrived(asn, workers):
    arrived = np.zeros((1, asn.n_workers), dtype=bool)
    arrived[0, list(workers)] = True
    return arrived


class TestNumericRecovery:
    def test_peeling_values_exact(self):
        rng = np.random.default_rng(19)
        blocks = rng.standard_normal((6, 3))
        tasks = [
            CodedTask.of_blocks([0]),
            CodedTask.of_blocks([0, 3]),
            CodedTask.of_blocks([3, 4, 5]),
            CodedTask.of_blocks([4]),
            CodedTask.of_blocks([1, 2]),
            CodedTask.of_blocks([2]),
        ]
        asn = one_worker_code(6, tasks)
        values = decode_blocks(asn, all_arrived(asn), task_payloads(asn, blocks))
        assert set(values) == set(range(6))
        for b, v in values.items():
            assert np.allclose(v, blocks[b], atol=1e-12)

    def test_payload_peeling_at_forty_workers(self):
        """Every message of an rcs [1, 2, 4] code at K=40, checked after
        each arrival; at the end every block has its value."""
        rng = np.random.default_rng(40)
        asn = build_rcs(40, [1, 2, 4], rng)
        blocks = rng.standard_normal((asn.k_total, 3))
        for seed in range(5):
            dec = check_arrival_prefixes(asn, blocks, seed)
            assert dec.recovered == set(range(asn.k_total))

    @pytest.mark.parametrize("name", ["rcs-general", "uc-mmc"])
    def test_partial_arrivals_at_forty_workers(self, name):
        # the criterion-5 grouped plan (80 blocks) and a degree-1 code
        rng = np.random.default_rng(41)
        if name == "rcs-general":
            z = (1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2)
            asn = build_rcs(40, [1, 1, 4, 8], rng, groups=2, z=z)
        else:
            asn = build_uc_mmc(40, 3)
        blocks = rng.standard_normal((asn.k_total, 2))
        for seed in range(3):
            check_arrival_prefixes(asn, blocks, seed, every=7)

    def test_missing_payload_reported(self):
        asn = one_worker_code(2, [CodedTask.of_blocks([0]), CodedTask.of_blocks([0, 1])])
        with pytest.raises(ValueError, match="payloads: expected 2 arrays, one per order, got 1"):
            decode_blocks(asn, all_arrived(asn), [np.zeros((1, 3))])

    def test_threshold_code_rejected(self):
        asn = build_gc(4, 2)
        with pytest.raises(ValueError, match="threshold"):
            decode_blocks(asn, all_arrived(asn), task_payloads(asn, np.ones(4)))

    def test_rank_below_recovered_count_raises(self, monkeypatch):
        # a mask that claims more blocks than the arrived tasks determine:
        # one pair sum for two blocks is well conditioned but has rank 1
        asn = one_worker_code(2, [CodedTask.of_blocks([0, 1])])
        monkeypatch.setattr(decoding, "_release_ranks", lambda a, tables, keys: np.zeros((1, 2)))
        with pytest.raises(ValueError, match="rank 1"):
            decode_blocks(asn, all_arrived(asn), task_payloads(asn, np.ones(2)))

    def test_mds_group_solve(self):
        rng = np.random.default_rng(29)
        blocks = rng.standard_normal((4, 2))
        asn = build_mcc(4, 2, [1, 2, 4, 8])
        values = decode_blocks(asn, mcc_arrived(asn, [0, 1]), task_payloads(asn, blocks))
        assert set(values) == {0, 1, 2, 3}
        for b, v in values.items():
            assert np.allclose(v, blocks[b], atol=1e-9)

    def test_mds_any_worker_subset(self):
        rng = np.random.default_rng(31)
        for k, kbar in ((8, 2), (6, 3), (4, 2)):
            blocks = rng.standard_normal((k, 2))
            asn = build_mcc(k, kbar)
            payloads = task_payloads(asn, blocks)
            for subset in itertools.combinations(range(k), kbar):
                values = decode_blocks(asn, mcc_arrived(asn, subset), payloads)
                assert set(values) == set(range(k))
                assert_blocks(values, blocks)

    def test_zero_coefficient_rejected_for_peeling(self):
        # Block 1 sits in the second task's support with weight 0: peeling
        # would count it as held (release ranks [0, 0]) while its value stays
        # undetermined, so the code is refused when it is built.
        tasks = [CodedTask((0,), (1.0,)), CodedTask((0, 1), (1.0, 0.0))]
        with pytest.raises(ValueError, match="^a peeling code needs nonzero coefficients"):
            one_worker_code(2, tasks)

    def test_mds_point_zero_keeps_its_zeros(self):
        cfg = parse_config({"scheme": "mcc", "workers": 4, "kbar": 2, "eval_points": [0, 1, 2, 3]})
        asn = concrete_assignment(cfg)
        assert all(c[0].tolist() == [1.0, 0.0] for c in asn.coefficients)
        blocks = np.random.default_rng(37).standard_normal((4, 2))
        payloads = task_payloads(asn, blocks)
        for subset in itertools.combinations(range(4), 2):
            values = decode_blocks(asn, mcc_arrived(asn, subset), payloads)
            assert set(values) == set(range(4))
            assert_blocks(values, blocks)

    def test_mds_not_enough_workers(self):
        asn = build_mcc(4, 2)
        assert decode_blocks(asn, mcc_arrived(asn, [3]), task_payloads(asn, np.ones(4))) == {}

    @pytest.mark.parametrize(
        "arrived, shapes, message",
        [
            (
                np.ones((1, 4)),
                ((4, 2), (4, 2)),
                "arrived: expected a bool array of shape (1, 4), got float64 (1, 4)",
            ),
            (
                np.ones((1, 5), dtype=bool),
                ((4, 2), (4, 2)),
                "arrived: expected a bool array of shape (1, 4), got bool (1, 5)",
            ),
            (
                np.ones((1, 4), dtype=bool),
                ((4, 2), (3, 2)),
                "payloads: expected shapes (4, ...) with one trailing shape, got (4, 2), (3, 2)",
            ),
            (
                np.ones((1, 4), dtype=bool),
                ((4, 2), (4, 3)),
                "payloads: expected shapes (4, ...) with one trailing shape, got (4, 2), (4, 3)",
            ),
            (
                np.ones((2, 4), dtype=bool),
                ((5, 2), (4, 2)),
                "arrived: expected a bool array of shape (1, 4), got bool (2, 4); "
                "payloads: expected shapes (4, ...) with one trailing shape, got (5, 2), (4, 2)",
            ),
        ],
        ids=["arrived-dtype", "arrived-workers", "payload-workers", "payload-trailing", "both"],
    )
    def test_shapes_checked(self, arrived, shapes, message):
        asn = build_mcc(4, 2)
        with pytest.raises(ValueError) as err:
            decode_blocks(asn, arrived, [np.zeros(shape) for shape in shapes])
        assert str(err.value) == message

    def test_mds_payload_counts_checked(self):
        asn = build_mcc(4, 2)
        payloads = task_payloads(asn, np.arange(1.0, 5.0))
        for count in (1, 3):
            with pytest.raises(ValueError) as err:
                decode_blocks(asn, mcc_arrived(asn, [0, 1]), (payloads * 2)[:count])
            assert str(err.value) == f"payloads: expected 2 arrays, one per order, got {count}"

    def test_mds_ill_conditioned_workers_raise(self):
        # 14 of 40 workers with the default points 1, 2, 4, ...: the solve
        # returns blocks off by orders of magnitude unless the decoder
        # refuses it
        rng = np.random.default_rng(37)
        blocks = rng.standard_normal(40)
        asn = build_mcc(40, 14)
        workers = rng.choice(40, 14, replace=False)
        with pytest.raises(ValueError, match="condition number"):
            decode_blocks(asn, mcc_arrived(asn, workers), task_payloads(asn, blocks))

    def test_mds_condition_check_not_residual(self):
        # nearly equal points: the solve leaves a tiny residual, yet the
        # blocks are off by far more, so only the condition number tells
        points = [1.0, 1.0 + 1e-6, 1.0 + 2e-6, 4.0, 5.0, 6.0]
        asn = build_mcc(6, 3, points)
        vander = np.vander(np.array(points[:3]), 3, increasing=True)
        x = np.random.default_rng(3).standard_normal((3, 1))
        sol = np.linalg.solve(vander, vander @ x)
        assert np.linalg.norm(vander @ sol - vander @ x) <= 1e-12 * np.linalg.norm(vander @ x)
        assert np.abs(sol - x).max() > 1e-6
        blocks = np.arange(1.0, 7.0)
        with pytest.raises(ValueError, match="condition number"):
            decode_blocks(asn, mcc_arrived(asn, [0, 1, 2]), task_payloads(asn, blocks))
