"""Class-balanced evaluation metrics and trajectory summaries."""

from __future__ import annotations

import numpy as np
import pytest

from lcgclab.errors import ContractError, DimensionError, LabelError
from lcgclab.metrics import bacc, confusion, gm, trajectory_trend


class TestConfusion:
    def test_hand_example(self):
        true = np.array([1, 1, 1, 2, 2])
        pred = np.array([1, 1, 2, 2, 2])
        cm = confusion(true, pred, classes=2)
        np.testing.assert_array_equal(cm, [[2, 1], [0, 2]])
        # Labels are integers: integral floats are not.
        with pytest.raises(LabelError):
            confusion(true * 1.0, pred * 1.0, 2)

    def test_rows_are_true_classes(self):
        cm = confusion(np.array([1, 1, 1]), np.array([2, 3, 2]), classes=3)
        assert cm[0].sum() == 3
        assert cm[1].sum() == 0 and cm[2].sum() == 0

    def test_rejects_out_of_range_labels(self):
        """Labels that are no integer in [1..C]; a non-integral one
        is not truncated."""
        for true, pred in (
            ([0], [1]),
            ([1], [3]),
            ([1.7, 2.0, 2.9], [1, 2, 2]),
            ([1, 2], [1.0, 1.5]),
            ([1.0, np.nan], [1, 2]),
        ):
            with pytest.raises(LabelError):
                confusion(np.array(true), np.array(pred), classes=2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            confusion(np.array([1, 2]), np.array([1]), classes=2)

    def test_rejects_no_samples(self):
        none = np.array([], dtype=np.int64)
        with pytest.raises(ContractError, match="empty sample set"):
            confusion(none, none, classes=2)


class TestBaccAndGm:
    def test_hand_values(self):
        """cm=[[5,0],[2,3]]: recalls (1.0, 0.6) so bacc=0.8, gm=sqrt(0.6)."""
        cm = np.array([[5, 0], [2, 3]])
        assert bacc(cm) == pytest.approx(0.8, abs=1e-15)
        assert gm(cm) == pytest.approx(0.7745966692414834, abs=1e-15)

    def test_perfect_classifier(self):
        cm = np.diag([7, 3, 11])
        assert bacc(cm) == 1.0
        assert gm(cm) == 1.0

    def test_zero_recall_zeroes_gm_only(self):
        cm = np.array([[5, 0], [4, 0]])
        assert bacc(cm) == pytest.approx(0.5)
        assert gm(cm) == 0.0

    @pytest.mark.parametrize("metric", [bacc, gm])
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, metric, shape):
        with pytest.raises(ContractError, match="square"):
            metric(np.ones(shape, dtype=np.int64))

    def test_empty_true_class_rejected(self):
        cm = np.array([[5, 0], [0, 0]])
        with pytest.raises(ContractError):
            bacc(cm)

    def test_gm_never_exceeds_bacc(self):
        """AM-GM inequality on recalls, checked over random matrices."""
        rng = np.random.default_rng(17)
        for _ in range(500):
            c = int(rng.integers(2, 8))
            cm = rng.integers(0, 30, size=(c, c))
            cm[np.arange(c), np.arange(c)] += 1  # nonempty true classes
            assert gm(cm) <= bacc(cm) + 1e-12


class TestTrajectoryTrend:
    def test_hand_decreasing(self):
        vals = [5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1]
        tr = trajectory_trend(vals, head_frac=0.2, tail_frac=0.2)
        assert tr.head_median == pytest.approx(4.5)
        assert tr.tail_median == pytest.approx(0.15)
        assert tr.decreasing

    def test_hand_increasing(self):
        tr = trajectory_trend([0.0, 1.0, 2.0, 3.0], head_frac=0.25, tail_frac=0.25)
        assert tr.head_median == 0.0
        assert tr.tail_median == 3.0
        assert not tr.decreasing

    def test_flat_is_not_decreasing(self):
        tr = trajectory_trend([1.0] * 10)
        assert not tr.decreasing

    def test_single_sample_windows(self):
        tr = trajectory_trend([3.0, 9.0], head_frac=0.5, tail_frac=0.5)
        assert tr.head_median == 3.0 and tr.tail_median == 9.0

    def test_window_rounding_half_up(self):
        """frac=0.1 over 25 samples gives a 3-sample window."""
        vals = [10.0, 20.0, 30.0] + [5.0] * 19 + [1.0, 2.0, 3.0]
        tr = trajectory_trend(vals)
        assert tr.head_median == 20.0
        assert tr.tail_median == 2.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractError):
            trajectory_trend([])
        with pytest.raises(ContractError):
            trajectory_trend([1.0, 2.0], head_frac=0.0)
        with pytest.raises(ContractError):
            trajectory_trend([1.0, 2.0], tail_frac=0.6)
