"""Evaluation metrics for imbalanced classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, as_array, as_float, as_int, as_labels


def confusion(true: np.ndarray, pred: np.ndarray, classes: int) -> np.ndarray:
    """Confusion matrix with rows = true class, columns = predicted.

    Labels are 1-based; entry [i, j] counts samples of true class i+1
    predicted as class j+1. Both label arrays go through
    ``errors.as_labels``, ``pred`` of any length and ``true`` of the
    same; an empty sample set raises ContractError.
    """
    classes = as_int(classes, "classes")
    p = as_labels(pred, "pred", None, classes)
    t = as_labels(true, "true", p.shape[0], classes)
    if t.size == 0:
        raise ContractError("confusion of an empty sample set")
    cells = np.ravel_multi_index((t - 1, p - 1), (classes, classes))
    return np.bincount(cells, minlength=classes * classes).reshape(classes, classes)


def _recalls(cm: np.ndarray) -> np.ndarray:
    cm = as_array(cm, "cm")
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ContractError(f"confusion matrix must be square, got {cm.shape}")
    support = cm.sum(axis=1)
    if (support == 0).any():
        empty = int(np.argmax(support == 0)) + 1
        raise ContractError(
            f"class {empty} has no true samples; per-class recall undefined"
        )
    return np.diag(cm) / support


def bacc(cm: np.ndarray) -> float:
    """Balanced accuracy: unweighted mean of per-class recalls."""
    return float(_recalls(cm).mean())


def gm(cm: np.ndarray) -> float:
    """Geometric mean of per-class recalls; exactly 0.0 if any recall is 0."""
    r = _recalls(cm)
    if (r == 0.0).any():
        return 0.0
    return float(np.exp(np.log(r).mean()))


@dataclass(frozen=True)
class TrendReport:
    """Medians of the head and tail windows of a scalar trajectory."""

    head_median: float
    tail_median: float
    decreasing: bool


def trajectory_trend(
    series: np.ndarray, head_frac: float = 0.1, tail_frac: float = 0.1
) -> TrendReport:
    """Compare the first and last windows of a series by their medians.

    Window sizes are round(frac * n), at least one element. ``decreasing``
    means the tail median is strictly below the head median.
    """
    s = as_array(series, "series").reshape(-1)
    if s.size == 0:
        raise ContractError("trajectory_trend of an empty series")
    head_frac = as_float(head_frac, "head_frac", gt=0.0, le=0.5)
    tail_frac = as_float(tail_frac, "tail_frac", gt=0.0, le=0.5)
    n_head = max(1, int(head_frac * s.size + 0.5))
    n_tail = max(1, int(tail_frac * s.size + 0.5))
    head = float(np.median(s[:n_head]))
    tail = float(np.median(s[-n_tail:]))
    return TrendReport(
        head_median=head, tail_median=tail, decreasing=tail < head
    )
