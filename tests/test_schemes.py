"""Scheme builders: pinned constructions plus structural invariants."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codedcomp
from codedcomp import (
    ComputationAssignment,
    ConfigError,
    build_gc,
    build_mcc,
    build_rcs,
    build_uc_mmc,
    hybrid_example,
    parse_config,
)
from codedcomp import blocks
from codedcomp.schemes import CircularShiftSource, circular_shift_violations, mds_violations
from oracles import order_uniform, worker_uniform

# Pinned 20-worker circular-shift construction: offsets drawn in the order
# [1, 4, 11, 15, 6, 18] with degrees [1, 2, 3].
PINNED_K = 20
PINNED_OFFSETS = [1, 4, 11, 15, 6, 18]
PINNED_DEGREES = [1, 2, 3]


def shift_grid(asn):
    """The code's shift grid: grid[i, w] is the block of row i in worker w's column."""
    return np.concatenate([ids.T for ids in asn.support])


def row_offsets(asn):
    """The 1-based shift of each row, read from worker 0's block."""
    return tuple(int(b) % asn.n_workers + 1 for b in shift_grid(asn)[:, 0])


def row_groups(asn):
    """The 0-based group of each row, read from worker 0's block."""
    return tuple(int(b) // asn.n_workers for b in shift_grid(asn)[:, 0])


class TestRcsAssignment:
    def test_pinned_rows(self):
        grid = shift_grid(build_rcs(PINNED_K, PINNED_DEGREES, offsets=PINNED_OFFSETS))
        assert grid.shape[0] == 6
        assert np.array_equal(grid[0], np.arange(20))
        # offset 4: row starts at block 4 (1-based), i.e. 3 (0-based)
        assert np.array_equal(grid[1], (np.arange(20) + 3) % 20)
        assert np.array_equal(grid[2], (np.arange(20) + 10) % 20)
        assert grid[5, 0] == 17

    def test_rows_are_permutations(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = int(rng.integers(4, 30))
            for row in shift_grid(build_rcs(k, [1, 1, 2], rng=rng)):
                assert sorted(row.tolist()) == list(range(k))

    def test_offsets_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            build_rcs(10, [1, 1], offsets=[3, 3])

    def test_offsets_in_range(self):
        with pytest.raises(ValueError, match=r"\[1, 10\]"):
            build_rcs(10, [1, 1], offsets=[0, 5])

    def test_too_many_rows(self):
        with pytest.raises(ValueError, match="distinct shifts"):
            build_rcs(4, [1, 2, 3])

    def test_draw_is_seeded(self):
        a = build_rcs(20, [1, 2, 3], rng=np.random.default_rng(9))
        b = build_rcs(20, [1, 2, 3], rng=np.random.default_rng(9))
        assert row_offsets(a) == row_offsets(b)


class TestRcsEncode:
    def test_pinned_worker_tasks(self):
        asn = build_rcs(PINNED_K, PINNED_DEGREES, offsets=PINNED_OFFSETS)
        # worker 1 computes block 1, then 4+11, then 15+6+18 (1-based)
        assert [t.support for t in asn.worker_tasks(0)] == [(0,), (3, 10), (14, 5, 17)]
        # worker 2 computes block 2, then 5+12, then 16+7+19
        assert [t.support for t in asn.worker_tasks(1)] == [(1,), (4, 11), (15, 6, 18)]
        assert all(c == 1.0 for t in asn.worker_tasks(0) for c in t.coefficients)

    def test_computation_mode_schedule(self):
        asn = build_rcs(PINNED_K, PINNED_DEGREES, offsets=PINNED_OFFSETS)
        assert [m.tasks_done for m in asn.messages] == [1, 2, 3]
        assert asn.max_score == 3
        assert asn.task_cost == 1.0

    def test_communication_mode_schedule(self):
        asn = build_rcs(
            PINNED_K, PINNED_DEGREES, offsets=PINNED_OFFSETS, mode="communication"
        )
        # message j leaves after 1, 3, 6 unit computations
        assert [m.tasks_done for m in asn.messages] == [1, 3, 6]
        assert asn.max_score == 6

    def test_single_order_uncoded(self):
        asn = build_rcs(5, [1], offsets=[2])
        assert [t.support for t in asn.worker_tasks(0)] == [(1,)]

    def test_degree_sum_mismatch(self):
        with pytest.raises(ValueError, match=r"offsets: expected 2 entries \(sum of degrees\), got 3"):
            build_rcs(10, [1, 1], offsets=[1, 2, 3])


class TestGeneralizedRcs:
    # Pinned 4-worker, 2-group construction: row groups [2,1,1,2,2] with
    # group-1 offsets {1,3} and group-2 offsets {1,4,3} drawn in that order.
    Z = (2, 1, 1, 2, 2)
    OFFSETS = [1, 1, 3, 4, 3]

    def test_pinned_grid(self):
        asn = build_rcs(4, [1, 1, 3], offsets=self.OFFSETS, groups=2, z=self.Z)
        expected = np.array(
            [
                [4, 5, 6, 7],
                [0, 1, 2, 3],
                [2, 3, 0, 1],
                [7, 4, 5, 6],
                [6, 7, 4, 5],
            ]
        )
        assert np.array_equal(shift_grid(asn), expected)

    def test_pinned_worker_tasks(self):
        asn = build_rcs(4, [1, 1, 3], offsets=self.OFFSETS, groups=2, z=self.Z)
        # worker 1: block 5 alone, block 1 alone, then 3+8+7 (1-based)
        assert [t.support for t in asn.worker_tasks(0)] == [(4,), (0,), (2, 7, 6)]
        assert asn.k_total == 8
        assert asn.task_cost == 0.5
        assert np.allclose(asn.schedule(), [0.5, 1.0, 1.5])

    def test_single_group_matches_plain(self):
        degrees = [1, 2, 3]
        a = build_rcs(12, degrees, rng=np.random.default_rng(7), groups=1, z=(1,) * 6)
        b = build_rcs(12, degrees, rng=np.random.default_rng(7))
        assert [t.support for t in a.worker_tasks(3)] == [
            t.support for t in b.worker_tasks(3)
        ]
        assert a.task_cost == 1.0

    def test_group_capacity(self):
        with pytest.raises(ValueError, match="group 1"):
            build_rcs(4, [1, 1, 4], rng=np.random.default_rng(0), groups=2, z=(1,) * 5 + (2,))

    def test_group_count_positive(self):
        with pytest.raises(ValueError, match=r"groups: must be >= 1, got 0"):
            build_rcs(4, [1, 1], rng=np.random.default_rng(0), groups=0)

    def test_within_group_offsets_distinct(self):
        rng = np.random.default_rng(31)
        z = (1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2)
        for _ in range(20):
            asn = build_rcs(40, [1, 1, 4, 8], rng=rng, groups=2, z=z)
            for g in (0, 1):
                own = [o for o, rg in zip(row_offsets(asn), row_groups(asn)) if rg == g]
                assert len(set(own)) == len(own)


# name: (k, degrees, offsets, build_rcs keywords) of explicit-offset codes
EXPLICIT_CODES = {
    "one-group": (20, [1, 2, 3], [1, 4, 11, 15, 6, 18], {}),
    "one-group-communication": (20, [1, 2, 3], [1, 4, 11, 15, 6, 18], {"mode": "communication"}),
    "grouped": (8, [1, 1, 2], [1, 1, 3, 5], {"groups": 2, "z": [1, 2, 1, 2]}),
    "grouped-communication": (
        4, [1, 1, 3], [1, 1, 3, 4, 3], {"groups": 2, "z": [2, 1, 1, 2, 2], "mode": "communication"}
    ),
}


class TestExplicitOffsets:
    """build_rcs with explicit offsets builds its code once, as the redrawn
    source's ``at`` does."""

    @pytest.mark.parametrize("name", sorted(EXPLICIT_CODES))
    def test_build_equals_the_source_at_the_offsets(self, name, monkeypatch):
        k, degrees, offsets, kwargs = EXPLICIT_CODES[name]
        built = []
        check = blocks.ComputationAssignment.__post_init__
        monkeypatch.setattr(
            blocks.ComputationAssignment, "__post_init__", lambda asn: built.append(asn) or check(asn)
        )
        asn = build_rcs(k, degrees, offsets=offsets, **kwargs)
        assert built == [asn]  # one validated code, no layout beside it
        want = CircularShiftSource.of(k, degrees, **kwargs).at(offsets)
        for field in ("n_workers", "k_total", "messages", "mode", "task_cost", "decode", "kbar"):
            assert getattr(asn, field) == getattr(want, field)
        for got, expected in ((asn.support, want.support), (asn.coefficients, want.coefficients)):
            assert len(got) == len(expected) == len(degrees)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        z = kwargs.get("z", [1] * len(offsets))
        assert row_offsets(asn) == tuple(offsets)
        assert row_groups(asn) == tuple(g - 1 for g in z)

    @pytest.mark.parametrize(
        "degrees, offsets, kwargs, violations",
        [
            (
                [1, 2], [1, 1, 9], {},
                ["offsets: must lie in [1, 8], got [1, 1, 9]",
                 "offsets: must be distinct within a group, got [1, 1, 9]"],
            ),
            (
                [1, 1, 2], [1, 1, 3], {"groups": 2, "z": [1, 2, 1, 2]},
                ["offsets: expected 4 entries (sum of degrees), got 3"],
            ),
            (
                [1, 1, 2], [2, 5, 2, 0], {"groups": 2, "z": [1, 2, 1, 2]},
                ["offsets: must lie in [1, 8], got [2, 5, 2, 0]",
                 "offsets: must be distinct within a group, got [2, 5, 2, 0]"],
            ),
        ],
    )
    def test_bad_offsets_raise_every_violation(self, degrees, offsets, kwargs, violations):
        with pytest.raises(ConfigError) as err:
            build_rcs(8, degrees, offsets=offsets, **kwargs)
        assert err.value.violations == violations


class TestMcc:
    def test_four_worker_example(self):
        asn = build_mcc(4, 2, [1, 2, 4, 8])
        # worker 2 computes blocks 1+2*3 and 2+2*4 (1-based blocks)
        assert [(t.support, t.coefficients) for t in asn.worker_tasks(1)] == [
            ((0, 2), (1.0, 2.0)),
            ((1, 3), (1.0, 2.0)),
        ]
        assert [(t.support, t.coefficients) for t in asn.worker_tasks(3)] == [
            ((0, 2), (1.0, 8.0)),
            ((1, 3), (1.0, 8.0)),
        ]
        assert [m.tasks_done for m in asn.messages] == [2]
        assert asn.messages[0].orders == (0, 1)
        assert asn.decode == "mds"

    def test_degenerate_no_redundancy(self):
        asn = build_mcc(4, 4)
        assert asn.n_orders == 1
        for w in range(4):
            task = asn.worker_tasks(w)[0]
            assert task.support == (w,)
            assert task.coefficients == (1.0,)

    def test_padding_when_indivisible(self):
        asn = build_mcc(40, 14)
        assert asn.n_orders == 3  # ceil(40/14)
        assert asn.messages[0].tasks_done == 3
        sizes = [asn.tasks[g][0].degree for g in range(3)]
        assert sizes == [14, 13, 13]  # groups 2 and 3 lose one padded block
        support_union = {b for g in range(3) for b in asn.tasks[g][0].support}
        assert support_union == set(range(40))

    def test_interleaved_groups(self):
        asn = build_mcc(6, 3)
        assert asn.tasks[0][0].support == (0, 2, 4)
        assert asn.tasks[1][0].support == (1, 3, 5)

    def test_default_points_distinct(self):
        asn = build_mcc(12, 4)
        assert len({tuple(row) for row in asn.coefficients[0]}) == 12

    def test_kbar_bounds(self):
        with pytest.raises(ValueError, match="kbar"):
            build_mcc(4, 5)

    def test_repeated_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            build_mcc(3, 2, [1, 1, 2])


class TestUcMmc:
    def test_four_worker_rows(self):
        asn = build_uc_mmc(4, 2)
        assert [t.support[0] for t in asn.tasks[0]] == [0, 1, 2, 3]
        assert [t.support[0] for t in asn.tasks[1]] == [1, 2, 3, 0]
        assert [m.tasks_done for m in asn.messages] == [1, 2]

    def test_single_round_identity(self):
        asn = build_uc_mmc(5, 1)
        assert [t.support[0] for t in asn.tasks[0]] == [0, 1, 2, 3, 4]

    def test_degrees_all_one(self):
        asn = build_uc_mmc(40, 3)
        assert all(t.degree == 1 for row in asn.tasks for t in row)

    def test_load_bounds(self):
        with pytest.raises(ValueError, match="load"):
            build_uc_mmc(4, 5)


class TestGc:
    def test_cyclic_partials_single_message(self):
        asn = build_gc(4, 2)
        assert [t.support[0] for t in asn.tasks[0]] == [0, 1, 2, 3]
        assert [t.support[0] for t in asn.tasks[1]] == [1, 2, 3, 0]
        assert len(asn.messages) == 1
        assert asn.messages[0].tasks_done == 2
        assert asn.decode == "threshold"
        assert asn.mode == "communication"

    def test_full_load_single_worker_suffices(self):
        asn = build_gc(6, 6)
        # threshold = k - load + 1 = 1 complete worker
        assert asn.n_workers - asn.n_orders + 1 == 1


class TestHybridExample:
    def test_tasks(self):
        asn = hybrid_example()
        assert [t.support for t in asn.worker_tasks(0)] == [(0,), (2, 3)]
        assert [t.support for t in asn.worker_tasks(1)] == [(1,), (0, 2)]
        assert [t.support for t in asn.worker_tasks(2)] == [(2,), (1, 3)]
        assert [t.support for t in asn.worker_tasks(3)] == [(3,), (0, 1)]

    def test_balance(self):
        asn = hybrid_example()
        for row in asn.tasks:
            counts = np.zeros(4, dtype=int)
            for task in row:
                for b in task.support:
                    counts[b] += 1
            assert np.array_equal(counts, np.full(4, row[0].degree))
        for w in range(4):
            supports = [b for t in asn.worker_tasks(w) for b in t.support]
            assert len(set(supports)) == len(supports)


class TestUniformity:
    def test_random_rcs_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            k = int(rng.integers(6, 50))
            degrees = [1, 1, 2, 3][: int(rng.integers(1, 5))]
            if sum(degrees) > k:
                continue
            asn = build_rcs(k, degrees, rng=rng)
            assert order_uniform(asn)
            assert worker_uniform(asn)

    def test_random_grouped_draws(self):
        rng = np.random.default_rng(23)
        z = (1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2)
        for _ in range(25):
            asn = build_rcs(40, [1, 1, 4, 8], rng=rng, groups=2, z=z)
            assert order_uniform(asn)
            assert worker_uniform(asn)

    def test_uniformity_detects_imbalance(self):
        asn = build_rcs(10, [1, 2], offsets=[1, 2, 3])
        bad = asn.support[1].copy()
        bad[0, 0] = bad[1, 0]  # duplicate a block inside one order
        broken = ComputationAssignment(
            n_workers=10,
            k_total=10,
            support=(asn.support[0], bad),
            coefficients=asn.coefficients,
            messages=asn.messages,
        )
        assert not order_uniform(broken)
        assert not worker_uniform(broken)  # worker 0 now holds block 2 twice


@st.composite
def shift_inputs(draw):
    """Small circular-shift inputs, valid and invalid: (k, degrees, groups, z, offsets).

    z is None for the one-group construction (scheme rcs)."""
    k = draw(st.integers(1, 6))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    if draw(st.booleans()):
        degrees = [1] + sorted(degrees[1:])
    rows = sum(degrees)
    z = None
    groups = 1
    if draw(st.booleans()):
        groups = draw(st.integers(1, 3))
        tag = st.integers(1, groups) | st.sampled_from([0, groups + 1])
        z = draw(st.lists(tag, min_size=rows - 1, max_size=rows + 1))
    offsets = None
    if draw(st.booleans()):
        shift = st.integers(1, k) | st.sampled_from([0, k + 1])
        offsets = draw(st.lists(shift, min_size=rows - 1, max_size=rows + 1))
    return k, degrees, groups, z, offsets


@st.composite
def mds_inputs(draw):
    """Small MDS inputs, valid and invalid: (k, kbar, eval_points)."""
    k = draw(st.integers(1, 6))
    kbar = draw(st.integers(1, k + 1))
    point = st.floats(-4, 4) | st.sampled_from([1.0, math.nan, math.inf])
    points = draw(st.none() | st.lists(point, min_size=k - 1, max_size=k + 1))
    return k, kbar, points


def _same_rules(errors, build, config):
    """The builder raises exactly the rule messages, and parse_config lists them."""
    if errors:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == "; ".join(errors)
        with pytest.raises(ConfigError) as cfg_err:
            parse_config(config)
        assert cfg_err.value.violations == errors
    else:
        build()
        parse_config(config)


class TestSharedRules:
    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(shift_inputs())
    def test_circular_shift_rules(self, case):
        k, degrees, groups, z, offsets = case
        rng = np.random.default_rng(0)
        # q=1 needs no block, so only the construction rules can reject.
        config = {"scheme": "rcs", "workers": k, "degrees": degrees, "q": 1.0}
        if offsets is not None:
            config["offsets"] = offsets
        if z is None:
            build = partial(build_rcs, k, degrees, rng, offsets)
        else:
            config.update(scheme="rcs-general", groups=groups, z=z)
            build = partial(build_rcs, k, degrees, rng, offsets, groups=groups, z=z)
        _same_rules(circular_shift_violations(k, degrees, groups, z, offsets), build, config)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(mds_inputs())
    def test_mds_rules(self, case):
        k, kbar, points = case
        config = {"scheme": "mcc", "workers": k, "kbar": kbar}
        if points is not None:
            config["eval_points"] = points
        _same_rules(mds_violations(k, kbar, points), partial(build_mcc, k, kbar, points), config)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_hybrid_rules(self, k):
        errors = [] if k == 4 else [f"workers: scheme 'hybrid-example' is fixed at 4 workers, got {k}"]
        _same_rules(errors, partial(hybrid_example, k), {"scheme": "hybrid-example", "workers": k})

    def test_builders_raise_config_error(self):
        with pytest.raises(ConfigError) as err:
            build_rcs(10, [2, 3])
        assert err.value.violations == circular_shift_violations(10, [2, 3], 1, None, None)
        assert ConfigError is codedcomp.config.ConfigError is codedcomp.schemes.ConfigError
