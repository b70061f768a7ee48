"""Core types: partitions, degree vectors, score types, assignments."""

import numpy as np
import pytest

from codedcomp import (
    CodedTask,
    ComputationAssignment,
    Message,
    partition_matrix,
    type_of,
    validate_degree_vector,
)
from codedcomp.blocks import degree_vector_violations


class TestPartition:
    def test_identity_four_blocks(self):
        part = partition_matrix(np.eye(4), 4)
        assert part.total_blocks == 4
        assert part.rows_per_block == 1
        for i, block in enumerate(part.blocks):
            assert np.array_equal(block, np.eye(4)[i : i + 1])

    def test_large_square_forty_blocks(self):
        part = partition_matrix(np.ones((800, 800)), 40)
        assert part.total_blocks == 40
        assert part.rows_per_block == 20
        assert all(b.shape == (20, 800) for b in part.blocks)

    def test_two_groups(self):
        part = partition_matrix(np.arange(64).reshape(8, 8), 4, group_count=2)
        assert part.total_blocks == 8
        assert part.rows_per_block == 1
        assert part.group_size == 4
        assert part.group_of(0) == 0
        assert part.group_of(3) == 0
        assert part.group_of(4) == 1
        assert part.group_of(7) == 1

    def test_indivisible_rows_named_in_error(self):
        with pytest.raises(ValueError, match="7 rows"):
            partition_matrix(np.ones((7, 3)), 2)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 12))
            per = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 6))
            m = rng.standard_normal((k * per, cols))
            part = partition_matrix(m, k)
            assert np.array_equal(part.concatenated(), m)

    def test_vector_partition(self):
        part = partition_matrix(np.arange(12.0), 4)
        assert part.rows_per_block == 3
        assert np.array_equal(part.blocks[1], np.array([3.0, 4.0, 5.0]))


class TestDegreeVector:
    def test_basic(self):
        dv = validate_degree_vector([1, 2, 3])
        assert dv.order_count == 3
        assert dv.total == 6
        assert dv.cumulative() == (1, 3, 6)

    def test_single_uncoded(self):
        dv = validate_degree_vector([1])
        assert dv.total == 1

    def test_first_degree_must_be_one(self):
        with pytest.raises(ValueError, match=r"criterion \(i\)"):
            validate_degree_vector([2, 3])

    def test_non_decreasing(self):
        with pytest.raises(ValueError, match=r"criterion \(ii\)"):
            validate_degree_vector([1, 3, 2])

    def test_violation_listing(self):
        errors = degree_vector_violations([2, 1])
        assert len(errors) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_degree_vector([])

    def test_positive_only(self):
        with pytest.raises(ValueError, match="positive"):
            validate_degree_vector([1, 0, 2])


class TestTypeOf:
    def test_mixed_scores(self):
        # S = [2, 0, 1, 1] with two possible tasks per worker
        ctype = type_of([2, 0, 1, 1], 2)
        assert ctype.counts == (1, 2, 1)
        assert ctype.max_score == 2
        assert ctype.worker_count == 4

    def test_all_idle(self):
        assert type_of([0, 0, 0, 0], 2).counts == (0, 0, 4)

    def test_all_done(self):
        assert type_of([2, 2, 2, 2], 2).counts == (4, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            type_of([3, 0], 2)

    def test_counts_sum_to_worker_count(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 15))
            r = int(rng.integers(1, 7))
            scores = rng.integers(0, r + 1, k)
            ctype = type_of(scores, r)
            assert sum(ctype.counts) == k
            for s in range(r + 1):
                assert ctype.count_for_score(s) == int(np.sum(scores == s))

    def test_label(self):
        assert type_of([1, 1, 0], 2).label() == "(0,2,1)"


class TestCodedTask:
    def test_of_blocks(self):
        task = CodedTask.of_blocks([4, 11])
        assert task.support == (4, 11)
        assert task.coefficients == (1.0, 1.0)
        assert task.degree == 2

    def test_coeff_map(self):
        task = CodedTask((0, 2), (1.0, 2.0))
        assert task.coeff_map() == {0: 1.0, 2: 2.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CodedTask((), ())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CodedTask((1, 2), (1.0,))


class TestAssignmentInvariants:
    @staticmethod
    def _rows(k, n_orders):
        """Support and coefficient arrays: worker w computes block w in every order."""
        ids = np.arange(k)[:, None]
        return {"support": (ids,) * n_orders, "coefficients": (np.ones((k, 1)),) * n_orders}

    def test_schedule_monotone_enforced(self):
        rows = self._rows(3, 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            ComputationAssignment(
                n_workers=3, k_total=3, **rows,
                messages=(Message(2, (0,)), Message(2, (1,))),
            )

    def test_every_order_sent(self):
        rows = self._rows(3, 2)
        with pytest.raises(ValueError, match="every order"):
            ComputationAssignment(
                n_workers=3, k_total=3, **rows, messages=(Message(1, (0,)),),
            )

    @pytest.mark.parametrize(
        "support, coefficients, match",
        [
            ((np.array([[0], [3], [1]]),), (np.ones((3, 1)),), "outside"),
            ((np.array([[0], [-1], [1]]),), (np.ones((3, 1)),), "outside"),
            ((np.zeros((3, 0), dtype=int),), (np.ones((3, 0)),), "at least one block"),
            ((np.arange(3)[:, None],), (np.ones((3, 2)),), "equal length"),
            ((np.arange(2)[:, None],), (np.ones((2, 1)),), "one task per worker"),
            ((np.arange(3.0)[:, None],), (np.ones((3, 1)),), "integers"),
        ],
        ids=["too-large", "negative", "empty", "coefficient-shape", "worker-count", "float-ids"],
    )
    def test_task_arrays_checked(self, support, coefficients, match):
        with pytest.raises(ValueError, match=match):
            ComputationAssignment(
                n_workers=3, k_total=3, support=support, coefficients=coefficients,
                messages=(Message(1, (0,)),),
            )

    def test_task_views(self):
        asn = ComputationAssignment(
            n_workers=2, k_total=3,
            support=(np.array([[0], [1]]), np.array([[1, 2], [2, 0]])),
            coefficients=(np.ones((2, 1)), np.array([[1.0, 2.0], [3.0, 4.0]])),
            messages=(Message(1, (0,)), Message(2, (1,))),
        )
        assert [[t.support for t in row] for row in asn.tasks] == [[(0,), (1,)], [(1, 2), (2, 0)]]
        assert asn.tasks[1][1] == CodedTask((2, 0), (3.0, 4.0))
        assert asn.worker_tasks(0) == [CodedTask((0,), (1.0,)), CodedTask((1, 2), (1.0, 2.0))]

    def test_schedule_scaled_by_cost(self):
        rows = self._rows(2, 2)
        asn = ComputationAssignment(
            n_workers=2, k_total=2, **rows,
            messages=(Message(1, (0,)), Message(2, (1,))), task_cost=0.5,
        )
        assert np.allclose(asn.schedule(), [0.5, 1.0])
        assert asn.max_score == 2
