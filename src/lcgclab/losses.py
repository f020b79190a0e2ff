"""Pseudo-labeling and the semi-supervised training losses.

The consistency pipeline follows the usual two-view recipe: hard pseudo
labels come from weak views, the loss is cross entropy of the strong
views against those labels, masked by a confidence threshold and
averaged over the full unlabeled batch size (so masked-out rows still
count in the denominator). Soft-target variants (distribution alignment
followed by sharpening) serve the alternative backbone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .data import AugmentConfig, strong_aug
from .errors import ContractError, DimensionError
from .model import ModelParams, forward_logits
from .tensor import Tensor, cross_entropy


@dataclass
class PseudoLabelBatch:
    """Targets inferred from weak views of one unlabeled batch.

    labels holds the argmax class per row (1-based), confidences the
    winning softmax mass, and mask which rows cleared the threshold.
    soft_labels, when set, replaces the hard labels as the consistency
    target while the mask still applies.
    """

    labels: np.ndarray  # (n,) int64 in [1..C]
    confidences: np.ndarray  # (n,) float64
    mask: np.ndarray  # (n,) bool
    soft_labels: np.ndarray | None = None  # (n, C)


def pseudo_label(logits, tau: float) -> PseudoLabelBatch:
    """Hard pseudo labels with a confidence mask at threshold tau.

    tau = 0 keeps every row (confidences are always positive). Ties in
    the argmax resolve to the smallest class index.
    """
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise DimensionError(f"expected (n, C) logits with C >= 2, got {z.shape}")
    if not 0.0 <= tau <= 1.0:
        raise ContractError(f"tau must lie in [0, 1], got {tau}")
    probs = K.softmax_rows(np.ascontiguousarray(z))
    labels = np.argmax(probs, axis=1).astype(np.int64) + 1
    conf = probs[np.arange(z.shape[0]), labels - 1]
    return PseudoLabelBatch(
        labels=labels, confidences=conf, mask=conf >= tau
    )


def supervised_loss(params: ModelParams, x, y) -> Tensor:
    """Mean cross entropy of the labeled batch."""
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ContractError("supervised_loss on an empty batch")
    return cross_entropy(forward_logits(params, x), y)


def consistency_loss(
    params: ModelParams,
    x_unlabeled: np.ndarray,
    pseudo: PseudoLabelBatch,
    aug: AugmentConfig,
    rng,
) -> Tensor:
    """Masked cross entropy of strong views against pseudo targets.

    Draws one strong view per row from ``rng`` and divides by the full
    batch size, so rows the mask removes still dilute the loss. ``pseudo``
    must come from weak views of this same batch, in the same row order.
    """
    x_unlabeled = np.asarray(x_unlabeled, dtype=np.float64)
    n = x_unlabeled.shape[0]
    if n == 0:
        raise ContractError("consistency_loss on an empty batch")
    if pseudo.labels.shape[0] != n:
        raise ContractError(
            f"pseudo labels cover {pseudo.labels.shape[0]} rows, batch has {n}"
        )
    strong = strong_aug(x_unlabeled, aug, rng)
    logits = forward_logits(params, strong)
    target = pseudo.soft_labels if pseudo.soft_labels is not None else pseudo.labels
    return cross_entropy(
        logits, target, weights=pseudo.mask.astype(np.float64), denom=float(n)
    )


def distribution_alignment(
    q: np.ndarray,
    running_avg: np.ndarray,
    target: np.ndarray,
    eps: float = 1e-8,
) -> np.ndarray:
    """Rescale predicted distributions toward a target class profile.

    Computes q * target / running_avg (denominator floored at eps) and
    renormalizes each row to sum to one. Accepts a single distribution
    (C,) or a batch (n, C); running_avg and target are (C,).
    """
    q = np.asarray(q, dtype=np.float64)
    avg = np.asarray(running_avg, dtype=np.float64).reshape(-1)
    tgt = np.asarray(target, dtype=np.float64).reshape(-1)
    C = q.shape[-1]
    if avg.shape[0] != C or tgt.shape[0] != C:
        raise DimensionError(
            f"profile width mismatch: q has {C} classes, running_avg "
            f"{avg.shape[0]}, target {tgt.shape[0]}"
        )
    scaled = q * tgt / np.maximum(avg, eps)
    return scaled / scaled.sum(axis=-1, keepdims=True)


def sharpen(q: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-sharpen distributions: q^(1/T), renormalized per row.

    Computed in log space for stability; zero entries stay zero.
    T = 1 is the identity, T -> 0 approaches the argmax one-hot.
    """
    if temperature <= 0.0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    q = np.asarray(q, dtype=np.float64)
    with np.errstate(divide="ignore"):
        logq = np.log(q)
    hi = logq.max(axis=-1, keepdims=True)
    p = np.exp((logq - hi) / temperature)
    return p / p.sum(axis=-1, keepdims=True)


def ema_update(avg: np.ndarray, batch_mean: np.ndarray, decay: float) -> np.ndarray:
    """Exponential moving average step for the running prediction profile."""
    if not 0.0 <= decay < 1.0:
        raise ContractError(f"decay must lie in [0, 1), got {decay}")
    return decay * np.asarray(avg, dtype=np.float64) + (1.0 - decay) * np.asarray(
        batch_mean, dtype=np.float64
    )
