"""Exhaustive score-vector counting on the four-worker benchmark.

The expected tables below are the frozen reference counts for the three
assignment styles at tolerance 0 and 0.25.  Keys are cumulative types
(workers at score 2, 1, 0); values are successful score-vector counts.
"""

import hashlib
import json
import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codedcomp import (
    LatencyModel,
    all_types,
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    completion_cdf,
    hybrid_example,
    success_table,
    successful_score_vector,
)
from codedcomp import enumeration
from codedcomp.enumeration import (
    CumulativeType,
    multiset_permutations,
    score_vectors_of_type,
    total_vectors,
)
from codedcomp.schemes import circular_shift_violations
from oracles import count_rule_cdf, orbit_representatives, type_walk

# q = 0: full recovery required
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

# q = 0.25: one of the four blocks may be abandoned
TABLE_Q25 = {
    "mcc": TABLE_Q0["mcc"],  # all-or-nothing: tolerance changes nothing
    "uc-mmc": {
        (4, 0, 0): 1, (3, 1, 0): 4, (3, 0, 1): 4,
        (2, 2, 0): 6, (2, 1, 1): 12, (2, 0, 2): 6,
        (1, 3, 0): 4, (1, 2, 1): 12, (1, 1, 2): 8,
        (0, 4, 0): 1, (0, 3, 1): 4,
    },
    "hybrid": {
        (4, 0, 0): 1, (3, 1, 0): 4, (3, 0, 1): 4,
        (2, 2, 0): 6, (2, 1, 1): 12, (2, 0, 2): 6,
        (1, 3, 0): 4, (1, 2, 1): 12, (1, 1, 2): 8,
        (0, 4, 0): 1, (0, 3, 1): 4,
    },
}


def builders():
    return {
        "mcc": build_mcc(4, 2, [1, 2, 4, 8]),
        "uc-mmc": build_uc_mmc(4, 2),
        "hybrid": hybrid_example(),
    }


def small_codes():
    """One small code of every builder, each with at most 2,601 score vectors."""
    rng = np.random.default_rng(11)
    return {
        "rcs": build_rcs(6, [1, 2], offsets=[1, 3, 5]),
        "rcs-communication": build_rcs(4, [1, 1, 2], rng, mode="communication"),
        "rcs-general": build_rcs(4, [1, 2, 3], rng, groups=2, z=[1, 1, 2, 1, 2, 2]),
        # 51 scores per worker: the (workers + 1) ** (max_score + 1)
        # histogram radix would overflow int64
        "rcs-general-50": build_rcs(
            2, [1] * 50, rng, groups=25, z=[g for g in range(1, 26) for _ in range(2)]
        ),
        "mcc": build_mcc(5, 3),
        "uc-mmc": build_uc_mmc(5, 2),
        "gc": build_gc(5, 2),
        "hybrid": hybrid_example(),
    }


def enumerate_successful(asn, q, ctype):
    """Per-type oracle: the type's score vectors decided one at a time."""
    return sum(successful_score_vector(asn, v, q) for v in score_vectors_of_type(ctype))


def oracle_table(asn, q):
    """success_table's rows, each type counted by ``enumerate_successful``."""
    return [
        (ctype, enumerate_successful(asn, q, ctype), total_vectors(ctype))
        for ctype in all_types(asn.n_workers, asn.max_score)
    ]


def every_code():
    """(source, name) of every code in ``small_codes`` and ``builders``."""
    return [("small", name) for name in sorted(small_codes())] + [
        ("builders", name) for name in sorted(builders())
    ]


def code(source, name):
    return (small_codes if source == "small" else builders)()[name]


@st.composite
def shift_codes(draw):
    """Small valid rcs and rcs-general codes: K of 3-7 workers, one to three
    orders (two at most past five workers, so the oracle stays quick), one
    or two groups, and explicit or drawn offsets."""
    k = draw(st.integers(3, 7))
    orders = draw(st.integers(1, 3 if k <= 5 else 2))
    degrees = [1] + sorted(draw(st.lists(st.integers(1, 3), min_size=orders - 1, max_size=orders - 1)))
    groups = draw(st.integers(1, 2))
    rows = sum(degrees)
    z = None if groups == 1 else draw(st.lists(st.integers(1, 2), min_size=rows, max_size=rows))
    assume(not circular_shift_violations(k, degrees, groups, z, None))
    row_groups = z or [1] * rows
    offsets = None
    if draw(st.booleans()):
        pools = {g: draw(st.permutations(range(1, k + 1))) for g in sorted(set(row_groups))}
        offsets = [pools[g][row_groups[:i].count(g)] for i, g in enumerate(row_groups)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return build_rcs(k, degrees, rng, offsets=offsets, groups=groups, z=z)


def enum_rcs():
    """The enum-rcs benchmark code: 3**9 score vectors in 55 types."""
    return build_rcs(9, [1, 2], offsets=[1, 3, 5])


def type_key(ctype):
    """The type's scores in descending order, read as base-(max_score + 1) digits."""
    key = 0
    for score in range(ctype.max_score, -1, -1):
        for _ in range(ctype.count_for_score(score)):
            key = key * (ctype.max_score + 1) + score
    return key


class TestHelpers:
    def test_multiset_permutations(self):
        perms = list(multiset_permutations([1, 1, 2]))
        assert perms == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_score_vectors_of_type(self):
        vectors = list(score_vectors_of_type(CumulativeType((1, 2, 1))))
        assert len(vectors) == 12
        assert all(sorted(v) == [0, 1, 1, 2] for v in vectors)

    def test_total_vectors_multinomial(self):
        assert total_vectors(CumulativeType((1, 2, 1))) == 12
        assert total_vectors(CumulativeType((4, 0, 0))) == 1

    def test_total_vectors_matches_enumeration(self):
        for ctype in all_types(5, 2):
            assert total_vectors(ctype) == sum(1 for _ in score_vectors_of_type(ctype))

    def test_all_types_count(self):
        # compositions of 4 into 3 labelled bins
        assert len(all_types(4, 2)) == 15
        labels = [t.counts for t in all_types(4, 2)]
        assert labels[0] == (4, 0, 0)
        assert labels[-1] == (0, 0, 4)
        assert len(set(labels)) == 15

    def test_all_types_rejects_negative_arguments(self):
        with pytest.raises(ValueError, match="max_score must be non-negative, got -1"):
            all_types(3, -1)
        with pytest.raises(ValueError, match="n_workers must be non-negative, got -2"):
            all_types(-2, 2)
        assert all_types(0, 2) == [CumulativeType((0, 0, 0))]


class TestTypeTable:
    def test_matches_the_recursive_walk(self):
        for workers in range(11):
            for max_score in range(5):
                expected = type_walk(workers, max_score)
                table = enumeration._type_table(workers, max_score)
                assert [t.counts for t in all_types(workers, max_score)] == [c for c, _ in expected]
                assert table.counts.tolist() == [list(c) for c, _ in expected]
                assert table.totals == tuple(total for _, total in expected)
                assert table.counts.dtype == np.uint8
                assert table.scores.tolist() == [
                    [s for s in range(max_score, -1, -1) for _ in range(c[max_score - s])]
                    for c, _ in expected
                ]
                assert table.keys.tolist() == [type_key(CumulativeType(c)) for c, _ in expected]

    def test_counts_take_the_smallest_dtype(self):
        table = enumeration._type_table(300, 1)
        assert table.counts.dtype == np.uint16
        assert table.counts.tolist() == [[c, 300 - c] for c in range(300, -1, -1)]

    def test_all_types_needs_no_recursion(self):
        # A recursive walk needs one frame per score level: 151 here.
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            types = all_types(2, 150)
        finally:
            sys.setrecursionlimit(limit)
        assert len(types) == math.comb(152, 2)
        assert types[0].counts == (2,) + (0,) * 150 and types[-1].counts == (0,) * 150 + (2,)

    def test_returned_lists_are_fresh(self):
        first = all_types(4, 2)
        expected = list(first)
        first.reverse()
        first.append(CumulativeType((9, 9, 9)))
        assert all_types(4, 2) == expected
        with pytest.raises(ValueError):
            enumeration._type_table(4, 2).counts[0, 0] = 1

    def test_interleaved_codes_equal_uncached_runs(self):
        codes = [enum_rcs(), build_uc_mmc(9, 2), build_mcc(9, 5)]
        assert {(asn.n_workers, asn.max_score) for asn in codes} == {(9, 2)}
        expected = []
        for asn in codes:
            enumeration._type_table.cache_clear()
            expected.append([success_table(asn, q) for q in (0.0, 0.25)])
        for _ in range(2):
            for asn, tables in zip(codes, expected):
                assert [success_table(asn, q) for q in (0.0, 0.25)] == tables
        for tables in expected:
            for table in tables:
                for ctype, good, total in table:
                    assert type(good) is int and type(total) is int
                    assert all(type(c) is int for c in ctype.counts)
                json.dumps([(ctype.counts, good, total) for ctype, good, total in table if good])

    def test_a_table_goes_with_the_next_key(self):
        assert [t.counts for t in all_types(10, 4)] == [c for c, _ in type_walk(10, 4)]
        large = weakref.ref(enumeration._type_table(10, 4))
        assert large().types and large().totals
        all_types(2, 2)
        assert large() is None
        assert enumeration._type_table.cache_info().currsize == 1

    @pytest.mark.parametrize("name", ["enum-rcs", "mcc", "hybrid"])
    def test_each_call_builds_one_block_table(self, name, monkeypatch):
        # One per call, also when the walk ends in a shorter chunk.
        asn = enum_rcs() if name == "enum-rcs" else builders()[name]
        built, original = [], enumeration._block_tables

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(enumeration, "_block_tables", counting)
        expected = success_table(asn, 0.0)
        assert len(built) == 1
        assert success_table(asn, 0.0) == expected
        assert len(built) == 2


class TestKnownVectors:
    def test_uc_mmc_success_examples(self):
        asn = build_uc_mmc(4, 2)
        for scores in ([2, 0, 1, 1], [1, 2, 0, 1], [1, 1, 2, 0], [0, 1, 1, 2]):
            assert successful_score_vector(asn, scores, 0.0)
        # other arrangements of type (1,2,1) miss a block
        for scores in ([2, 1, 0, 1], [2, 1, 1, 0], [1, 0, 2, 1], [0, 2, 1, 1]):
            assert not successful_score_vector(asn, scores, 0.0)

    def test_hybrid_success_examples(self):
        asn = hybrid_example()
        good = [
            [2, 1, 0, 1], [2, 1, 1, 0], [1, 2, 0, 1], [0, 2, 1, 1],
            [1, 0, 2, 1], [1, 1, 2, 0], [0, 1, 1, 2], [1, 0, 1, 2],
        ]
        for scores in good:
            assert successful_score_vector(asn, scores, 0.0)
        others = [
            v for v in score_vectors_of_type(CumulativeType((1, 2, 1)))
            if list(v) not in good
        ]
        assert len(others) == 4
        for scores in others:
            assert not successful_score_vector(asn, scores, 0.0)

    def test_mcc_all_or_nothing(self):
        asn = build_mcc(4, 2, [1, 2, 4, 8])
        assert successful_score_vector(asn, [2, 2, 0, 0], 0.0)
        assert not successful_score_vector(asn, [2, 1, 1, 1], 0.0)
        # tolerance cannot rescue an incomplete pair
        assert not successful_score_vector(asn, [2, 1, 1, 1], 0.25)


class TestTables:
    @pytest.mark.parametrize("name", ["mcc", "uc-mmc", "hybrid"])
    def test_counts_q0(self, name):
        asn = builders()[name]
        got = {t.counts: good for t, good, _ in success_table(asn, 0.0) if good}
        assert got == TABLE_Q0[name]

    @pytest.mark.parametrize("name", ["mcc", "uc-mmc", "hybrid"])
    def test_counts_q25(self, name):
        asn = builders()[name]
        got = {t.counts: good for t, good, _ in success_table(asn, 0.25) if good}
        assert got == TABLE_Q25[name]

    def test_successful_bounded_by_total(self):
        for asn in builders().values():
            for ctype, good, total in success_table(asn, 0.25):
                assert 0 <= good <= total

    def test_success_monotone_in_q(self):
        for asn in builders().values():
            a, b, c = ([good for _, good, _ in success_table(asn, q)] for q in (0.0, 0.25, 0.5))
            assert all(x <= y <= z for x, y, z in zip(a, b, c))

    @pytest.mark.parametrize("name", sorted(small_codes()))
    def test_matches_per_type_oracle(self, name):
        asn = small_codes()[name]
        for q in (0.0, 0.25, 0.5):
            assert success_table(asn, q) == oracle_table(asn, q)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(shift_codes(), st.floats(0.0, 1.0))
    def test_shift_codes_match_per_type_oracle(self, asn, q):
        assert enumeration._symmetry(asn) == "turns"
        assert success_table(asn, q) == oracle_table(asn, q)

    @pytest.mark.parametrize("source, name", every_code())
    def test_reduction_matches_full_walk(self, source, name, monkeypatch):
        asn = code(source, name)
        reduced = [success_table(asn, q) for q in (0.0, 0.25, 0.5, 1.0)]
        # q = 1 needs no block, so every vector succeeds: each type's count
        # is its total only if the orbit weights add up.
        assert all(good == total for _, good, total in reduced[-1])
        monkeypatch.setattr(enumeration, "_symmetry", lambda assignment: "none")
        assert [success_table(asn, q) for q in (0.0, 0.25, 0.5, 1.0)] == reduced

    @pytest.mark.parametrize("source, name", every_code() + [("enum-rcs", None)])
    def test_calls_stay_within_one_chunk(self, source, name, monkeypatch):
        # Orbit representatives cluster at small indices, so a window of
        # n_workers chunks can hold far more than one chunk's worth of them.
        asn = build_rcs(9, [1, 2], offsets=[1, 3, 5]) if source == "enum-rcs" else code(source, name)
        rows, original = [], enumeration._successes

        def recording(assignment, scores, q, tables):
            rows.append(len(scores))
            return original(assignment, scores, q, tables)

        monkeypatch.setattr(enumeration, "_successes", recording)
        success_table(asn, 0.25)
        assert rows and min(rows) > 0
        assert max(rows) <= enumeration._VECTORS_PER_CALL

    @pytest.mark.parametrize("name", ["rcs", "rcs-general", "uc-mmc", "hybrid", "mcc", "gc"])
    def test_chunk_size_changes_nothing(self, name, monkeypatch):
        asn = small_codes()[name]
        expected = success_table(asn, 0.25)
        for size in (1, 7, (asn.max_score + 1) ** asn.n_workers + 1):
            monkeypatch.setattr(enumeration, "_VECTORS_PER_CALL", size)
            assert success_table(asn, 0.25) == expected

    @pytest.mark.parametrize("workers, max_score", [(1, 3), (4, 2), (9, 2), (5, 4), (2, 50)])
    def test_type_keys_strictly_decrease(self, workers, max_score):
        keys = [type_key(ctype) for ctype in all_types(workers, max_score)]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert keys[0] == (max_score + 1) ** workers - 1 and keys[-1] == 0


def swapped_enum_rcs():
    """The enum-rcs code with two workers' coded tasks swapped, so turning
    the workers no longer relabels its blocks: every vector is decided."""
    asn = enum_rcs()
    coded = asn.support[1].copy()
    coded[[0, 1]] = coded[[1, 0]]
    return replace(asn, support=(asn.support[0], coded))


# symmetry: (code, q, sha256 of repr([(counts, good, total), ...])), recorded
# while the successes were binned by np.add.at into an int64 array.
EXACT_TABLES = {
    "types": (lambda: build_mcc(8, 3), 0.0, "fe3808df7bf2f1ff57792deca7b432795f8c73fdb9fb50ffc7e64beaf6dfb34c"),
    "turns": (
        lambda: build_rcs(8, [1, 1, 2], offsets=[1, 1, 3, 5], groups=2, z=[1, 2, 1, 2]),
        0.25,
        "c8249cb7659157221087844aac4eb72554eca1e42ed83eb1d24f473a3bdb3428",
    ),
    "none": (swapped_enum_rcs, 0.25, "a9d18803bf71606c93b50b23ee53ef210a5de8adbf3b6a4a991e7a08c789887e"),
}


class TestExactCounts:
    @pytest.mark.parametrize("symmetry", sorted(EXACT_TABLES))
    def test_counts_are_python_ints_of_the_pinned_table(self, symmetry):
        # np.bincount sums in float64; every count must come back as an
        # exact Python int, so the table's repr is the pinned one.
        build, q, digest = EXACT_TABLES[symmetry]
        asn = build()
        assert enumeration._symmetry(asn) == symmetry
        rows = [(c.counts, good, total) for c, good, total in success_table(asn, q)]
        assert all(type(good) is int and type(total) is int for _, good, total in rows)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


class TestNecklaces:
    # Digit 129 does not fit in int8, so base 130's rows widen to int16.
    @pytest.mark.parametrize("base, n", [(2, 1), (2, 12), (3, 9), (4, 6), (5, 5), (130, 2)])
    def test_necklaces_are_the_orbit_representatives(self, base, n):
        table = enumeration._type_table(n, base - 1)
        digits, orbit, rows = table.necklaces
        index, size = orbit_representatives(0, base**n, base, n, n)
        assert digits.dtype == (np.int8 if base <= 128 else np.int16)
        assert np.array_equal(digits, index[:, None] // base ** np.arange(n - 1, -1, -1) % base)
        assert np.array_equal(orbit, size)
        assert orbit.sum() == base**n
        descending = np.sort(digits, axis=1)[:, ::-1].astype(np.int64)
        assert np.array_equal(table.keys[rows], descending @ base ** np.arange(n - 1, -1, -1))
        walked = list(enumeration._necklaces(base, n))
        assert np.array_equal(np.concatenate([d for d, _ in walked]), digits)
        assert np.array_equal(np.concatenate([o for _, o in walked]), orbit)

    @pytest.mark.parametrize("size", [1, 7, 100, 512])
    def test_chunk_size_only_regroups(self, size, monkeypatch):
        # One slice of every vector is the reference; each size walks the
        # necklaces again in blocks of that many prefixes.
        asn, grid = build_rcs(7, [1, 2], offsets=[1, 3, 5]), np.linspace(0.0, 1.5, 17)
        model = TestCompletionCdf.MODEL
        assert enumeration._symmetry(asn) == "turns"
        monkeypatch.setattr(enumeration, "_VECTORS_PER_CALL", 3**7 + 1)
        enumeration._type_table.cache_clear()
        held = enumeration._type_table(7, 2).necklaces
        table, cdf = success_table(asn, 0.25), completion_cdf(asn, 0.25, grid, model)
        monkeypatch.setattr(enumeration, "_VECTORS_PER_CALL", size)
        enumeration._type_table.cache_clear()
        for got, want in zip(enumeration._type_table(7, 2).necklaces, held):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert success_table(asn, 0.25) == table
        assert completion_cdf(asn, 0.25, grid, model).tolist() == cdf.tolist()


class TestHeldNecklaces:
    """The rotation classes of each (workers, max score), held by its type table."""

    def test_one_walk_per_key(self, monkeypatch):
        walks, original = [], enumeration._necklaces

        def counting(base, n):
            walks.append((base, n))
            return original(base, n)

        monkeypatch.setattr(enumeration, "_necklaces", counting)
        enumeration._type_table.cache_clear()
        first = success_table(enum_rcs(), 0.0)
        assert success_table(enum_rcs(), 0.25) != first
        uc_mmc = build_uc_mmc(9, 2)
        assert enumeration._symmetry(uc_mmc) == "turns"
        success_table(uc_mmc, 0.0)
        assert walks == [(3, 9)]
        success_table(build_uc_mmc(4, 2), 0.0)
        assert walks == [(3, 9), (3, 4)]
        assert success_table(enum_rcs(), 0.0) == first
        assert walks == [(3, 9), (3, 4), (3, 9)]

    @pytest.mark.parametrize("base, n", [(b, n) for b in (2, 3, 4, 6) for n in range(1, 8)] + [(130, 2)])
    def test_compact_dtypes_and_burnside_count(self, base, n):
        table = enumeration._type_table(n, base - 1)
        digits, orbit, rows = table.necklaces
        burnside = sum(base ** math.gcd(i, n) for i in range(n)) // n
        assert len(digits) == len(orbit) == len(rows) == burnside
        assert burnside == len(orbit_representatives(0, base**n, base, n, n)[0])
        assert digits.dtype == (np.int8 if base <= 128 else np.int16)
        assert orbit.dtype == np.uint8
        assert rows.dtype == (np.uint8 if len(table.counts) <= 255 else np.uint16)
        assert not any(array.flags.writeable for array in (digits, orbit, rows))


class TestSymmetry:
    def test_circular_shift_builds_turn(self):
        rng = np.random.default_rng(5)
        codes = [
            *(small_codes()[name] for name in ("rcs", "rcs-communication", "rcs-general", "rcs-general-50", "uc-mmc")),
            build_rcs(40, [1, 2, 4], rng),
            build_rcs(40, [1, 1, 4, 8], rng, groups=2, z=[1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2]),
            build_uc_mmc(4, 2),
            build_uc_mmc(40, 3),
        ]
        for asn in codes:
            assert enumeration._symmetry(asn) == "turns"

    def test_count_rules_decide_types(self):
        for asn in (build_mcc(5, 3), build_mcc(4, 2, [1, 2, 4, 8]), build_gc(5, 2)):
            assert enumeration._symmetry(asn) == "types"

    def test_hybrid_does_not_turn(self):
        assert enumeration._symmetry(hybrid_example()) == "none"

    def test_swapped_supports_do_not_turn(self):
        asn = build_rcs(6, [1, 2], offsets=[1, 3, 5])
        coded = asn.support[1].copy()
        coded[[0, 1]] = coded[[1, 0]]
        swapped = replace(asn, support=(asn.support[0], coded))
        assert enumeration._symmetry(swapped) == "none"
        assert success_table(swapped, 0.25) == oracle_table(swapped, 0.25)

    def test_blocks_must_fill_whole_turns(self):
        # One block more than the workers: the support still turns, but
        # block 4 has no place in a group of four.
        asn = build_rcs(4, [1, 2], offsets=[1, 2, 4])
        assert enumeration._symmetry(asn) == "turns"
        assert enumeration._symmetry(replace(asn, k_total=5)) == "none"


class TestCompletionCdf:
    MODEL = LatencyModel(mu=10.0, alpha=0.01)

    def test_limits(self):
        for asn in builders().values():
            assert completion_cdf(asn, 0.0, 0.5 * self.MODEL.alpha, self.MODEL) == 0.0
            assert completion_cdf(asn, 0.0, 50.0, self.MODEL) == pytest.approx(1.0)

    def test_monotone_in_t(self):
        values = completion_cdf(hybrid_example(), 0.0, np.linspace(0.0, 0.6, 60), self.MODEL)
        assert np.all(np.diff(values) >= -1e-12)

    def test_hybrid_dominates_q0(self):
        schemes = builders()
        grid = np.linspace(0.015, 0.8, 100)
        best = completion_cdf(schemes["hybrid"], 0.0, grid, self.MODEL)
        for other in ("mcc", "uc-mmc"):
            assert np.all(best >= completion_cdf(schemes[other], 0.0, grid, self.MODEL) - 1e-12)

    def test_uc_mmc_matches_hybrid_under_tolerance(self):
        # at q=0.25 the counts coincide, so the CDFs must too
        schemes = builders()
        grid = np.linspace(0.015, 0.8, 100)
        a = completion_cdf(schemes["uc-mmc"], 0.25, grid, self.MODEL)
        b = completion_cdf(schemes["hybrid"], 0.25, grid, self.MODEL)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["mcc", "uc-mmc", "hybrid"])
    def test_time_grid_counts_once(self, name, monkeypatch):
        asn, grid = builders()[name], np.linspace(0.0, 0.8, 41)
        scalars = [completion_cdf(asn, 0.25, t, self.MODEL) for t in grid.tolist()]
        assert all(type(value) is float for value in scalars)
        calls, original = [], enumeration.success_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(enumeration, "success_table", counting)
        values = completion_cdf(asn, 0.25, grid, self.MODEL)
        assert len(calls) == 1
        assert values.shape == grid.shape
        assert values.tolist() == scalars
        assert completion_cdf(asn, 0.25, grid.reshape(41, 1), self.MODEL).shape == (41, 1)

    @staticmethod
    def type_sum(asn, q, t, model):
        """Sum of good * the type's probability over the successful types, in table order."""
        rows = success_table(asn, q)
        counts = np.array([ctype.counts for ctype, _, _ in rows])
        probs = enumeration._type_probabilities(counts, [t], model, asn.task_cost)[:, 0].tolist()
        return sum((good * p for (_, good, _), p in zip(rows, probs) if good), 0.0)

    @pytest.mark.parametrize("source, name", [
        ("builders", "mcc"), ("builders", "uc-mmc"), ("builders", "hybrid"),
        ("small", "rcs-communication"), ("small", "gc"), ("enum-rcs", None),
    ])
    def test_bits_of_the_type_probability_sum(self, source, name):
        asn = enum_rcs() if source == "enum-rcs" else code(source, name)
        alpha = self.MODEL.alpha
        grid = [0.0, 0.5 * alpha, alpha, *np.linspace(0.011, 1.5, 40).tolist(), 50.0, 1e3, np.inf]
        for q in (0.0, 0.25):
            expected = [self.type_sum(asn, q, t, self.MODEL) for t in grid]
            assert expected[0] == 0.0 and expected[-1] == 1.0
            assert completion_cdf(asn, q, np.array(grid), self.MODEL).tolist() == expected
            assert [completion_cdf(asn, q, t, self.MODEL) for t in grid] == expected

    @pytest.mark.parametrize("cells", [1, 100])
    def test_time_blocks_change_no_bits(self, cells, monkeypatch):
        # The enum-rcs code has dozens of successful types, so 100 cells
        # hold a few times a block and the last block is partial.
        asn, grid = enum_rcs(), np.linspace(0.0, 1.5, 43)
        whole = completion_cdf(asn, 0.25, grid, self.MODEL)
        monkeypatch.setattr(enumeration, "_CDF_CELLS", cells)
        assert completion_cdf(asn, 0.25, grid, self.MODEL).tolist() == whole.tolist()
        assert whole.tolist() == [self.type_sum(asn, 0.25, t, self.MODEL) for t in grid.tolist()]

    def test_unreached_levels_count_as_one(self):
        # At q = 1 every vector succeeds.  Below alpha every worker is at
        # score 0, and at infinity every worker is at the top score, so
        # one type has probability 1 and its empty levels, of probability
        # 0, must contribute p ** 0 == 1: not NaN, and no RuntimeWarning.
        for asn in (*builders().values(), enum_rcs()):
            values = completion_cdf(asn, 1.0, np.array([0.0, 0.5 * self.MODEL.alpha, np.inf]), self.MODEL)
            assert values.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("asn", [build_mcc(8, 4), build_gc(8, 3)], ids=["mcc", "gc"])
    def test_count_rules_match_the_binomial_law(self, asn):
        grid = np.linspace(0.0, 1.5, 61)
        exact = [count_rule_cdf(asn, t, self.MODEL) for t in grid.tolist()]
        assert completion_cdf(asn, 0.0, grid, self.MODEL) == pytest.approx(exact, rel=0, abs=1e-12)

    def test_matches_monte_carlo(self):
        from codedcomp import monte_carlo

        asn = hybrid_example()
        res = monte_carlo(asn, 0.0, self.MODEL, 20000, seed=2)
        for t in (0.05, 0.1, 0.2):
            exact = completion_cdf(asn, 0.0, t, self.MODEL)
            empirical = float(np.mean(res.times <= t))
            assert empirical == pytest.approx(exact, abs=0.015)


class TestSizeGuard:
    def test_large_enumeration_rejected(self):
        # 4 scores per worker, 40 workers: 4**40 vectors
        with pytest.raises(ValueError, match=r"needs 1208925819614629174706176 score vectors \(4\^40\)"):
            success_table(build_uc_mmc(40, 3), 0.0)

    def test_limit_is_ten_million(self):
        # 3**15 = 14,348,907 is just above the limit
        with pytest.raises(ValueError, match="above the limit of 10000000"):
            success_table(build_uc_mmc(15, 2), 0.0)
        with pytest.raises(ValueError, match="above the limit"):
            completion_cdf(build_uc_mmc(15, 2), 0.0, 0.1, LatencyModel())

    def test_type_table_cells_are_bounded(self, monkeypatch):
        # 2 workers and 30 score levels: 31**2 = 961 score vectors, under a
        # limit of 1,000, but comb(32, 30) * 31 = 15,376 type-table cells.
        asn = build_rcs(2, [1] * 30, np.random.default_rng(0), groups=15, z=[g for g in range(1, 16) for _ in range(2)])
        assert asn.max_score == 30

        def unbuilt(*args):
            raise AssertionError("type table built")

        monkeypatch.setattr(enumeration, "_MAX_SCORE_VECTORS", 1000)
        monkeypatch.setattr(enumeration, "_type_table", unbuilt)
        message = r"needs 961 score vectors \(31\^2\) and a type table of 15376 cells, above the limit of 1000"
        with pytest.raises(ValueError, match=message):
            success_table(asn, 0.0)
        with pytest.raises(ValueError, match=message):
            completion_cdf(asn, 0.0, 0.1, LatencyModel())
