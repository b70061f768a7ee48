"""Exhaustive score-vector counting on the four-worker benchmark.

The expected tables below are the frozen reference counts for the three
assignment styles at tolerance 0 and 0.25.  Keys are cumulative types
(workers at score 2, 1, 0); values are successful score-vector counts.
"""

import numpy as np
import pytest

from codedcomp import (
    LatencyModel,
    all_types,
    build_mcc,
    build_uc_mmc,
    completion_cdf,
    hybrid_example,
    success_table,
    successful_score_vector,
)
from codedcomp.blocks import type_of
from codedcomp.enumeration import (
    enumerate_successful,
    messages_for_score,
    multiset_permutations,
    score_vectors_of_type,
    total_vectors,
)

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


class TestHelpers:
    def test_multiset_permutations(self):
        perms = list(multiset_permutations([1, 1, 2]))
        assert perms == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_score_vectors_of_type(self):
        vectors = list(score_vectors_of_type(type_of([2, 1, 1, 0], 2)))
        assert len(vectors) == 12
        assert all(sorted(v) == [0, 1, 1, 2] for v in vectors)

    def test_total_vectors_multinomial(self):
        assert total_vectors(type_of([2, 1, 1, 0], 2)) == 12
        assert total_vectors(type_of([2, 2, 2, 2], 2)) == 1

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

    def test_messages_for_score(self):
        asn = build_mcc(4, 2)
        assert messages_for_score(asn, 1) == []
        assert messages_for_score(asn, 2) == [0]
        asn = build_uc_mmc(4, 2)
        assert messages_for_score(asn, 1) == [0]
        assert messages_for_score(asn, 2) == [0, 1]


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
            v for v in score_vectors_of_type(type_of([2, 1, 1, 0], 2))
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
            for ctype in all_types(4, 2):
                a = enumerate_successful(asn, 0.0, ctype)
                b = enumerate_successful(asn, 0.25, ctype)
                c = enumerate_successful(asn, 0.5, ctype)
                assert a <= b <= c

    def test_type_shape_checked(self):
        with pytest.raises(ValueError, match="scores up to"):
            enumerate_successful(builders()["mcc"], 0.0, type_of([1, 0, 1, 1], 1))


class TestCompletionCdf:
    MODEL = LatencyModel(mu=10.0, alpha=0.01)

    def test_limits(self):
        for asn in builders().values():
            assert completion_cdf(asn, 0.0, 0.5 * self.MODEL.alpha, self.MODEL) == 0.0
            assert completion_cdf(asn, 0.0, 50.0, self.MODEL) == pytest.approx(1.0)

    def test_monotone_in_t(self):
        asn = hybrid_example()
        grid = np.linspace(0.0, 0.6, 60)
        values = [completion_cdf(asn, 0.0, float(t), self.MODEL) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_hybrid_dominates_q0(self):
        schemes = builders()
        grid = np.linspace(0.015, 0.8, 100)
        for t in grid:
            t = float(t)
            best = completion_cdf(schemes["hybrid"], 0.0, t, self.MODEL)
            for other in ("mcc", "uc-mmc"):
                assert best >= completion_cdf(schemes[other], 0.0, t, self.MODEL) - 1e-12

    def test_uc_mmc_matches_hybrid_under_tolerance(self):
        # at q=0.25 the counts coincide, so the CDFs must too
        schemes = builders()
        for t in np.linspace(0.015, 0.8, 100):
            a = completion_cdf(schemes["uc-mmc"], 0.25, float(t), self.MODEL)
            b = completion_cdf(schemes["hybrid"], 0.25, float(t), self.MODEL)
            assert a == pytest.approx(b, abs=1e-12)

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
