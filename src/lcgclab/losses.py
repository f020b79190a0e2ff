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
from .errors import ContractError, DimensionError, as_array, as_float, as_labels
from .model import ModelParams, forward_logits
from .tensor import Tensor, cross_entropy

# distribution_alignment's floor under the running average it divides by.
_ALIGN_FLOOR = 1e-8


@dataclass
class PseudoLabelBatch:
    """Targets inferred from weak views of one unlabeled batch.

    probs holds the row softmax of the weak-view logits, labels the
    argmax class per row (1-based), and mask which rows' winning
    softmax mass cleared the threshold. soft_labels, when set, replaces
    the hard labels as the consistency target while the mask still
    applies.
    """

    probs: np.ndarray  # (n, C) float64
    labels: np.ndarray  # (n,) int64 in [1..C]
    mask: np.ndarray  # (n,) bool
    soft_labels: np.ndarray | None = None  # (n, C)


def pseudo_label(probs: np.ndarray, tau: float) -> PseudoLabelBatch:
    """Hard pseudo labels of the (n, C) row probabilities ``probs``,
    with a confidence mask at threshold tau.

    ``probs`` is the row softmax of the weak-view logits, which the
    training step takes from its log-softmax pass (a caller that holds
    logits passes ``kernels.softmax_rows`` of them); it becomes the
    batch's ``probs`` as it is. A row is kept when its largest mass,
    taken with ``kernels.row_max`` (the same element as the mass at the
    argmax), is at least tau, so tau = 0 keeps every row. Ties in the
    argmax resolve to the smallest class index.
    """
    probs = as_array(probs, "probs")
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise DimensionError(
            f"expected (n, C) probabilities with C >= 2, got {probs.shape}"
        )
    tau = as_float(tau, "tau", ge=0.0, le=1.0)
    labels = np.argmax(probs, axis=1).astype(np.int64) + 1
    return PseudoLabelBatch(probs=probs, labels=labels, mask=K.row_max(probs) >= tau)


def supervised_loss(params: ModelParams, x: np.ndarray, y: np.ndarray) -> Tensor:
    """Mean cross entropy of the labeled batch, y its labels (``as_labels``)."""
    z = forward_logits(params, x)
    return cross_entropy(z, as_labels(y, "y", *z.shape))


def consistency_loss(
    params: ModelParams,
    x_unlabeled: np.ndarray,
    pseudo: PseudoLabelBatch,
    aug: AugmentConfig,
    rng: np.random.Generator,
) -> Tensor:
    """Masked cross entropy of strong views against pseudo targets.

    Draws one strong view per row from ``rng`` and divides by the full
    batch size, so rows the mask removes still dilute the loss. ``pseudo``
    must come from weak views of this same batch, in the same row order.
    """
    strong, target, weights = consistency_inputs(x_unlabeled, pseudo, aug, rng)
    return cross_entropy(forward_logits(params, strong), target, weights=weights)


def consistency_inputs(
    x_unlabeled: np.ndarray,
    pseudo: PseudoLabelBatch,
    aug: AugmentConfig,
    rng: np.random.Generator,
    *,
    out=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strong views, targets and row weights of ``consistency_loss``
    (whose checks and rng draw these are); the denominator is the row
    count. The views are drawn into ``out`` as ``strong_aug`` draws."""
    x_unlabeled = as_array(x_unlabeled, "x_unlabeled", 2)
    n = x_unlabeled.shape[0]
    if n == 0:
        raise ContractError("consistency_loss on an empty batch")
    if pseudo.labels.shape[0] != n:
        raise ContractError(
            f"pseudo labels cover {pseudo.labels.shape[0]} rows, batch has {n}"
        )
    strong = strong_aug(x_unlabeled, aug, rng, out=out)
    target = pseudo.soft_labels if pseudo.soft_labels is not None else pseudo.labels
    return strong, target, pseudo.mask.astype(np.float64)


def distribution_alignment(
    q: np.ndarray, running_avg: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Rescale predicted distributions toward a target class profile.

    Computes q * target / running_avg (denominator floored at
    ``_ALIGN_FLOOR``) and renormalizes each row to sum to one. Accepts a
    single distribution (C,) or a batch (n, C); running_avg and target
    are (C,).
    """
    q = as_array(q, "q")
    avg = as_array(running_avg, "running_avg").reshape(-1)
    tgt = as_array(target, "target").reshape(-1)
    if avg.shape != q.shape[-1:] or tgt.shape != avg.shape:
        raise DimensionError(
            f"profile width mismatch: q has shape {q.shape}, running_avg "
            f"{avg.shape}, target {tgt.shape}"
        )
    scaled = q * tgt / np.maximum(avg, _ALIGN_FLOOR)
    return scaled / scaled.sum(axis=-1, keepdims=True)


def sharpen(q: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-sharpen distributions: q^(1/T), renormalized per row.

    Computed in log space for stability; zero entries stay zero.
    T = 1 is the identity, T -> 0 approaches the argmax one-hot.
    """
    temperature = as_float(temperature, "temperature", gt=0.0)
    q = as_array(q, "q")
    with np.errstate(divide="ignore"):
        logq = np.log(q)
    hi = logq.max(axis=-1, keepdims=True)
    p = np.exp((logq - hi) / temperature)
    return p / p.sum(axis=-1, keepdims=True)


def ema_update(avg: np.ndarray, batch_mean: np.ndarray, decay: float) -> np.ndarray:
    """Exponential moving average step for the running prediction profile."""
    decay = as_float(decay, "decay", ge=0.0, lt=1.0)
    avg, mean = as_array(avg, "avg"), as_array(batch_mean, "batch_mean")
    if avg.shape != mean.shape:
        raise DimensionError(f"avg {avg.shape} and batch_mean {mean.shape} differ")
    return decay * avg + (1.0 - decay) * mean
