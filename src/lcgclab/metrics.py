"""Evaluation metrics for imbalanced classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, LabelError, as_array, as_float, as_int


def confusion(true: np.ndarray, pred: np.ndarray, classes: int) -> np.ndarray:
    """Confusion matrix with rows = true class, columns = predicted.

    Labels are 1-based; entry [i, j] counts samples of true class i+1
    predicted as class j+1. Each label array goes through
    ``errors.as_array``; a label that is no integer in [1..C] (an
    integral float is one) raises LabelError.
    """
    t = as_array(true, "true").reshape(-1)
    p = as_array(pred, "pred").reshape(-1)
    if t.shape != p.shape:
        raise ContractError(
            f"true and pred differ in length: {t.shape} vs {p.shape}"
        )
    if t.size == 0:
        raise ContractError("confusion of an empty sample set")
    classes = as_int(classes, "classes")
    for name, arr in (("true", t), ("pred", p)):
        if not (arr == np.floor(arr)).all():
            raise LabelError(f"{name} labels must be integers")
        if arr.min() < 1 or arr.max() > classes:
            raise LabelError(
                f"{name} labels must lie in [1..{classes}], got "
                f"[{arr.min():g}..{arr.max():g}]"
            )
    cm = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(cm, (t.astype(np.int64) - 1, p.astype(np.int64) - 1), 1)
    return cm


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
