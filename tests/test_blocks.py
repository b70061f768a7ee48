"""Core types: degree-vector rules, score types, assignments."""

import numpy as np
import pytest

from codedcomp import CodedTask, ComputationAssignment, Message, build_rcs
from codedcomp.enumeration import CumulativeType
from codedcomp.schemes import circular_shift_violations


class TestDegreeVector:
    """The degree rules of a circular-shift code, checked through its builder."""

    def test_basic(self):
        asn = build_rcs(6, [1, 2, 3], mode="communication")
        assert asn.n_orders == 3
        assert sum(ids.shape[1] for ids in asn.support) == 6
        assert [m.tasks_done for m in asn.messages] == [1, 3, 6]

    def test_single_uncoded(self):
        asn = build_rcs(6, [1])
        assert [ids.shape[1] for ids in asn.support] == [1]

    def test_first_degree_must_be_one(self):
        with pytest.raises(ValueError, match=r"criterion \(i\)"):
            build_rcs(10, [2, 3])

    def test_non_decreasing(self):
        with pytest.raises(ValueError, match=r"criterion \(ii\)"):
            build_rcs(10, [1, 3, 2])

    def test_violation_listing(self):
        errors = circular_shift_violations(10, [2, 1], 1, None, None)
        assert len(errors) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_rcs(10, [])

    def test_positive_only(self):
        with pytest.raises(ValueError, match="positive"):
            build_rcs(10, [1, 0, 2])


class TestTypeOf:
    """The cumulative type of a score vector, built from its counts."""

    def test_mixed_scores(self):
        # S = [2, 0, 1, 1] with two possible tasks per worker
        ctype = CumulativeType((1, 2, 1))
        assert ctype.max_score == 2
        assert ctype.worker_count == 4
        assert [ctype.count_for_score(s) for s in range(3)] == [1, 2, 1]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="invalid type counts"):
            CumulativeType((1, -1))
        with pytest.raises(ValueError, match="invalid type counts"):
            CumulativeType(())

    def test_non_integral_counts(self):
        # 1.5 workers at one score has no multinomial count.
        with pytest.raises(ValueError, match=r"type counts must be integers, got \(1.5, 2\)"):
            CumulativeType((1.5, 2))
        assert CumulativeType((np.int64(1), 2)).worker_count == 3

    @pytest.mark.parametrize("score", [-1, 3, 4, 5])
    def test_count_for_score_outside_the_levels(self, score):
        # counts[max_score - score] would wrap to another level's count.
        ctype = CumulativeType((2, 1, 0))
        assert [ctype.count_for_score(s) for s in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match=rf"score must lie in \[0, 2\], got {score}"):
            ctype.count_for_score(score)


class TestCodedTask:
    def test_of_blocks(self):
        task = CodedTask.of_blocks([4, 11])
        assert task.support == (4, 11)
        assert task.coefficients == (1.0, 1.0)
        assert task.degree == 2

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

    @pytest.mark.parametrize(
        "decode, kbar",
        [("mds", None), ("mds", 0), ("mds", 4), ("peel", 2)],
        ids=["mds-none", "mds-zero", "mds-above-workers", "peel-with-kbar"],
    )
    def test_kbar_checked(self, decode, kbar):
        with pytest.raises(ValueError, match="kbar"):
            ComputationAssignment(
                n_workers=3, k_total=3, **self._rows(3, 1),
                messages=(Message(1, (0,)),), decode=decode, kbar=kbar,
            )

    def test_threshold_code_needs_a_worker(self):
        # a threshold code waits for n_workers - n_orders + 1 complete
        # workers: two orders on two workers wait for one, three for none
        def build(n_orders):
            return ComputationAssignment(
                n_workers=2, k_total=2, **self._rows(2, n_orders),
                messages=(Message(n_orders, tuple(range(n_orders))),), decode="threshold",
            )

        assert build(2).n_orders == 2
        with pytest.raises(ValueError, match="3 orders exceed 2 workers"):
            build(3)

    @pytest.mark.parametrize("kbar", [1, 3])
    def test_kbar_bounds_accepted(self, kbar):
        asn = ComputationAssignment(
            n_workers=3, k_total=3, **self._rows(3, 1),
            messages=(Message(1, (0,)),), decode="mds", kbar=kbar,
        )
        assert asn.kbar == kbar

    def test_schedule_scaled_by_cost(self):
        rows = self._rows(2, 2)
        asn = ComputationAssignment(
            n_workers=2, k_total=2, **rows,
            messages=(Message(1, (0,)), Message(2, (1,))), task_cost=0.5,
        )
        assert np.allclose(asn.schedule(), [0.5, 1.0])
        assert asn.max_score == 2
