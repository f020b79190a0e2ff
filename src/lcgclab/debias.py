"""Bias-corrected pseudo-labeling with gradient-conflict projection.

The class-imbalance bias of a classifier shows up as nonzero logits on
an uninformative solid-color input. Subtracting those baseline logits
(refinement) debiases both the pseudo-labels used during training and
the predictions at test time. The projection step goes further: the
gradient of a KL divergence between raw and refined predictions points
along the bias, and whenever the consistency gradient agrees with that
direction (negative inner product with the correction), a scaled
component of the bias gradient is added back in, amplifying the
debiasing pressure exactly when the two objectives fight.

Integrated gradients on the same baseline provide the audit: their sum
must reproduce the logit gap between a sample and the baseline, which
ties the correction term to an attribution the model itself certifies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels as K
from .data import (
    AugmentConfig,
    SynthDataset,
    sample_minibatch,
    weak_aug,
)
from .errors import (
    ContractError,
    DimensionError,
    LabelError,
    TrainingDiverged,
)
from .losses import (
    PseudoLabelBatch,
    consistency_loss,
    distribution_alignment,
    ema_update,
    pseudo_label,
    sharpen,
    supervised_loss,
)
from .metrics import bacc, confusion, gm
from .model import ModelParams, forward_logits, init_mlp, logits_array
from .tensor import (
    Tape,
    Tensor,
    add_rowvec,
    apply_op,
    backward,
    flatten_grads,
    mul,
    scale,
    sum_all,
    zero_grads,
)

# Ablation palette: solid-color probe inputs, scaled to the data range.
BASELINE_COLORS = ("red", "green", "blue", "gray", "white", "black")

# Pseudo-labelers: FixMatch hard labels or ReMixMatch-style soft labels.
BACKBONES = ("fixmatch", "remix-lite")

# Below this norm the correction direction is numerically meaningless.
_NORM_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class BaselineInput:
    """A constant probe input: a name and its coordinate vector."""

    name: str
    vector: np.ndarray  # (d,)


def make_baseline(name: str, dim: int, scale: float) -> BaselineInput:
    """Build a solid-color probe for data living in [-scale, scale]^d.

    black is the zero vector, white all-ones at full intensity, gray at
    half. The three primaries light up one third of the coordinates
    each (first third red, middle green, last blue).
    """
    if name not in BASELINE_COLORS:
        raise ContractError(
            f"unknown baseline color {name!r}; choose from {BASELINE_COLORS}"
        )
    if dim < 1:
        raise DimensionError(f"dim must be positive, got {dim}")
    if scale < 0.0:
        raise ContractError(f"scale must be nonnegative, got {scale}")
    v = np.zeros(dim)
    thirds = np.array_split(np.arange(dim), 3)
    if name == "white":
        v[:] = scale
    elif name == "gray":
        v[:] = 0.5 * scale
    elif name in ("red", "green", "blue"):
        v[thirds[("red", "green", "blue").index(name)]] = scale
    return BaselineInput(name=name, vector=v)


def baseline_logits(params: ModelParams, baseline: BaselineInput) -> np.ndarray:
    """Logits of the probe input, shape (C,). Recomputed per step; the
    bias estimate must track the current parameters."""
    return logits_array(params, baseline.vector[None, :])[0]


def kl_consistency_loss(logits, refined) -> Tensor:
    """Mean row-wise KL(softmax(logits) || softmax(refined)), on the tape.

    Differentiable in both arguments, so gradients also flow through
    the refined branch (which shares parameters via the baseline
    forward). Bitwise-equal inputs give exactly zero; rounding can pull
    a row a hair below zero, which is clamped in the value only.
    """
    a = logits if isinstance(logits, Tensor) else Tensor(logits)
    b = refined if isinstance(refined, Tensor) else Tensor(refined)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("kl_consistency_loss expects (n, C) tensors")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n == 0:
        raise ContractError("kl_consistency_loss on an empty batch")
    lp = K.log_softmax_rows(a.data)
    lq = K.log_softmax_rows(b.data)
    p, q = np.exp(lp), np.exp(lq)
    diff = lp - lq
    row = np.einsum("ij,ij->i", p, diff)
    value = float(np.maximum(row, 0.0).mean())

    def vjp(g):
        s = float(g) / n
        ga = (p * (diff - row[:, None])) * s
        gb = (q - p) * s
        return ga, gb

    return apply_op(np.asarray(value), (a, b), vjp)


class GradientVector:
    """A flattened parameter-space gradient with its norm precomputed."""

    __slots__ = ("values", "norm")

    def __init__(self, values: np.ndarray):
        v = np.asarray(values, dtype=np.float64).reshape(-1)
        self.values = v
        self.norm = float(np.linalg.norm(v))

    def dot(self, other: "GradientVector") -> float:
        return float(self.values @ other.values)

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"GradientVector(len={len(self)}, norm={self.norm:.6g})"


def lcgc_combine(
    g_b: GradientVector, g_d: GradientVector, lam: float
) -> GradientVector:
    """Conflict-aware combination of consistency and bias gradients.

    Returns g_b unchanged when the two directions agree (g_d . g_b >= 0)
    or when g_d is numerically zero. Under conflict the projection of
    g_b onto g_d is added back, scaled by lam:

        g_b + lam * (g_d . g_b / ||g_d||^2) * g_d

    which amplifies the conflict: the result's inner product with g_d
    is (1 + lam) times the original. lam = 0 reduces to the plain
    refinement-only update.
    """
    if len(g_b) != len(g_d):
        raise DimensionError(
            f"gradient lengths differ: {len(g_b)} vs {len(g_d)}"
        )
    if lam < 0.0:
        raise ContractError(f"lam must be nonnegative, got {lam}")
    if g_d.norm < _NORM_FLOOR:
        return g_b
    dot = g_d.dot(g_b)
    if dot >= 0.0:
        return g_b
    coeff = lam * dot / float(g_d.values @ g_d.values)
    return GradientVector(g_b.values + coeff * g_d.values)


@dataclass(frozen=True)
class LCGCConfig:
    """Switches for refinement and projection.

    lam scales the conflict correction (0 disables it while keeping
    refinement). ``disable_projection`` bypasses the combination step
    entirely and exists for equivalence diagnostics; it is not a config
    file key.
    """

    lam: float = 1.0
    baseline: str = "black"
    refine_pseudo_labels: bool = True
    refine_at_test: bool = True
    ig_steps: int = 128
    double_subtract: bool = False
    disable_projection: bool = False

    def __post_init__(self):
        if self.lam < 0.0:
            raise ContractError(f"lam must be nonnegative, got {self.lam}")
        if self.baseline not in BASELINE_COLORS:
            raise ContractError(
                f"unknown baseline color {self.baseline!r}"
            )
        if self.ig_steps < 1:
            raise ContractError("ig_steps must be >= 1")


@dataclass(frozen=True)
class TrainSettings:
    """Everything one training run needs besides data and seed."""

    steps: int = 3000
    batch_size: int = 64
    mu: int = 2
    lr: float = 0.2
    tau: float = 0.0
    consistency_weight: float = 1.0
    backbone: str = "fixmatch"  # one of BACKBONES
    remix_temperature: float = 0.5
    remix_ema_decay: float = 0.99
    remix_align: bool = True
    aug: AugmentConfig = field(default_factory=AugmentConfig)
    lcgc: LCGCConfig = field(default_factory=LCGCConfig)

    def __post_init__(self):
        if self.steps < 0:
            raise ContractError("steps must be nonnegative")
        if self.batch_size < 1 or self.mu < 1:
            raise ContractError("batch_size and mu must be >= 1")
        if self.lr <= 0.0:
            raise ContractError("lr must be positive")
        if not 0.0 <= self.tau <= 1.0:
            raise ContractError("tau must lie in [0, 1]")
        if self.consistency_weight < 0.0:
            raise ContractError("consistency_weight must be nonnegative")
        if self.backbone not in BACKBONES:
            raise ContractError(
                f"backbone must be one of {BACKBONES}, got {self.backbone!r}"
            )
        if self.remix_temperature <= 0.0:
            raise ContractError("remix_temperature must be positive")
        if not 0.0 <= self.remix_ema_decay < 1.0:
            raise ContractError("remix_ema_decay must lie in [0, 1)")


@dataclass
class TrainState:
    """Mutable per-run state threaded through train_step."""

    rng: np.random.Generator
    baseline: BaselineInput
    target_dist: np.ndarray  # labeled class profile, for alignment
    ema_avg: np.ndarray  # running mean of predicted distributions
    step: int = 0


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one optimization step."""

    step: int
    loss_sup: float
    loss_con: float
    loss_kl: float
    conflict: bool
    cos_angle: float
    mask_rate: float


@dataclass
class RunRecord:
    """Summary of one training run on one seed."""

    seed: int
    steps: list[StepRecord]
    final_bacc: float
    final_gm: float
    confusion: np.ndarray
    diverged: bool = False
    divergence_step: int | None = None
    wall_time_s: float = 0.0

    def kl_trajectory(self) -> np.ndarray:
        return np.array([r.loss_kl for r in self.steps])

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_steps": len(self.steps),
            "final_bacc": self.final_bacc,
            "final_gm": self.final_gm,
            "confusion": self.confusion.tolist(),
            "diverged": self.diverged,
            "divergence_step": self.divergence_step,
            "conflict_rate": (
                float(np.mean([r.conflict for r in self.steps]))
                if self.steps
                else 0.0
            ),
            "wall_time_s": self.wall_time_s,
        }


def grad_b(
    params: ModelParams,
    x_unlabeled: np.ndarray,
    pseudo: PseudoLabelBatch,
    aug: AugmentConfig,
    rng,
    weight: float = 1.0,
) -> GradientVector:
    """Parameter gradient of the (weighted) consistency loss."""
    g, _ = _grad_b_with_loss(params, x_unlabeled, pseudo, aug, rng, weight)
    return g


def _grad_b_with_loss(params, x_unlabeled, pseudo, aug, rng, weight):
    zero_grads(params.tensors())
    with Tape():
        raw = consistency_loss(params, x_unlabeled, pseudo, aug, rng)
        loss = scale(raw, weight) if weight != 1.0 else raw
    backward(loss)
    return GradientVector(flatten_grads(params.tensors())), raw.item()


def grad_d(
    params: ModelParams, x_weak: np.ndarray, baseline: BaselineInput
) -> GradientVector:
    """Parameter gradient of the raw-vs-refined KL on weak views.

    This is the direction along which the model's class-imbalance bias
    grows; the loss it differentiates is the one whose trajectory the
    step records expose.
    """
    g, *_ = _grad_d_with_loss(params, x_weak, baseline)
    return g


def _grad_d_with_loss(params, x_weak, baseline):
    """grad_d plus the KL value and the recorded raw and refined logits,
    so the caller can build pseudo-labels without a second forward."""
    zero_grads(params.tensors())
    with Tape():
        logits = forward_logits(params, np.asarray(x_weak, dtype=np.float64))
        base_row = forward_logits(params, baseline.vector[None, :])
        refined = add_rowvec(logits, scale(base_row, -1.0))
        loss = kl_consistency_loss(logits, refined)
    backward(loss)
    g = GradientVector(flatten_grads(params.tensors()))
    return g, loss.item(), logits.data, refined.data


def train_step(
    params: ModelParams,
    ds: SynthDataset,
    settings: TrainSettings,
    state: TrainState,
) -> StepRecord:
    """One combined update: project the consistency gradient against the
    bias direction, add the supervised gradient, and descend.

    Consumes the state's rng in a fixed order (batch indices, weak
    views, strong views), so trajectories replay exactly for a given
    seed. Raises TrainingDiverged before applying a non-finite update.
    """
    cfg = settings.lcgc
    rng = state.rng
    xl, yl, xu = sample_minibatch(ds, settings.batch_size, settings.mu, rng)
    xlw = weak_aug(xl, settings.aug, rng)
    xuw = weak_aug(xu, settings.aug, rng)

    # One forward of the weak views and the probe serves both the bias
    # gradient and the pseudo-labels, which are debiased by the current
    # baseline response when refinement is on.
    g_d, loss_kl, logits, refined = _grad_d_with_loss(
        params, xuw, state.baseline
    )
    pseudo_src = refined if cfg.refine_pseudo_labels else logits
    pseudo = pseudo_label(pseudo_src, settings.tau)

    if settings.backbone == "remix-lite":
        probs = K.softmax_rows(pseudo_src)
        state.ema_avg = ema_update(
            state.ema_avg, probs.mean(axis=0), settings.remix_ema_decay
        )
        q = probs
        if settings.remix_align:
            q = distribution_alignment(probs, state.ema_avg, state.target_dist)
        pseudo.soft_labels = sharpen(q, settings.remix_temperature)

    g_b, loss_con = _grad_b_with_loss(
        params, xu, pseudo, settings.aug, rng, settings.consistency_weight
    )

    dot = g_b.dot(g_d)
    conflict = dot < 0.0
    norm_prod = g_b.norm * g_d.norm
    cos_angle = dot / norm_prod if norm_prod > 0.0 else 0.0

    if cfg.disable_projection:
        g = g_b
    else:
        g = lcgc_combine(g_b, g_d, cfg.lam)

    zero_grads(params.tensors())
    with Tape():
        sup = supervised_loss(params, xlw, yl)
    backward(sup)
    g_sup = flatten_grads(params.tensors())
    loss_sup = sup.item()

    update = g.values + g_sup
    if not (
        np.isfinite(update).all()
        and np.isfinite(loss_sup)
        and np.isfinite(loss_con)
        and np.isfinite(loss_kl)
    ):
        raise TrainingDiverged(state.step, "non-finite loss or gradient")
    params.apply_update(update, settings.lr)

    rec = StepRecord(
        step=state.step,
        loss_sup=loss_sup,
        loss_con=loss_con,
        loss_kl=loss_kl,
        conflict=conflict,
        cos_angle=cos_angle,
        mask_rate=float(pseudo.mask.mean()),
    )
    state.step += 1
    return rec


@dataclass(frozen=True)
class EvalReport:
    bacc: float
    gm: float
    confusion: np.ndarray


def evaluate(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    baseline: BaselineInput | None = None,
    double_subtract: bool = False,
) -> EvalReport:
    """Balanced accuracy, geometric mean and confusion on a labeled set.

    With a baseline, predictions use refined logits (the test-time
    correction); otherwise raw logits.
    """
    logits = logits_array(params, np.asarray(x, dtype=np.float64))
    if baseline is not None:
        base = baseline_logits(params, baseline)
        logits = logits - base
        if double_subtract:
            logits = logits - base
    pred = np.argmax(logits, axis=1).astype(np.int64) + 1
    cm = confusion(np.asarray(y, dtype=np.int64), pred, params.dims[-1])
    return EvalReport(bacc=bacc(cm), gm=gm(cm), confusion=cm)


def run_training(
    ds: SynthDataset,
    hidden: tuple[int, ...],
    settings: TrainSettings,
    seed: int,
    step_callback: Callable[[ModelParams, StepRecord], None] | None = None,
) -> tuple[ModelParams, RunRecord]:
    """Train one model on one seed and evaluate it on the test split.

    The model init stream is the seed itself; the batch/augmentation
    stream is derived from (seed, 1), so the same seed always replays
    the same trajectory. A divergence stops the loop but still yields a
    record (flagged, with the step index); parameters stay at the last
    finite value.
    """
    t0 = time.perf_counter()
    dims = (ds.dim, *[int(h) for h in hidden], ds.classes)
    params = init_mlp(dims, seed)
    state = TrainState(
        rng=np.random.default_rng(np.random.SeedSequence([seed, 1])),
        baseline=make_baseline(
            settings.lcgc.baseline, ds.dim, ds.value_range()
        ),
        target_dist=ds.labeled_distribution(),
        ema_avg=np.full(ds.classes, 1.0 / ds.classes),
    )
    records: list[StepRecord] = []
    diverged = False
    divergence_step = None
    try:
        for _ in range(settings.steps):
            rec = train_step(params, ds, settings, state)
            records.append(rec)
            if step_callback is not None:
                step_callback(params, rec)
    except TrainingDiverged as e:
        diverged = True
        divergence_step = e.step

    report = evaluate(
        params,
        ds.test_x,
        ds.test_y,
        baseline=state.baseline if settings.lcgc.refine_at_test else None,
        double_subtract=settings.lcgc.double_subtract,
    )
    run = RunRecord(
        seed=seed,
        steps=records,
        final_bacc=report.bacc,
        final_gm=report.gm,
        confusion=report.confusion,
        diverged=diverged,
        divergence_step=divergence_step,
        wall_time_s=time.perf_counter() - t0,
    )
    return params, run


def integrated_gradients(
    params: ModelParams,
    x: np.ndarray,
    baseline: BaselineInput,
    target_class: int,
    steps: int,
) -> np.ndarray:
    """Right-endpoint path attribution of one logit, shape (d,).

    Averages the input gradient of logit ``target_class`` at the points
    I + (k/steps)(x - I), k = 1..steps, then multiplies by (x - I). As
    steps grows the attribution sums converge to the logit gap
    g(x)_c - g(I)_c; for a linear model one step is already exact.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    base = baseline.vector
    if x.shape != base.shape:
        raise DimensionError(
            f"sample has shape {x.shape}, baseline {base.shape}"
        )
    C = params.dims[-1]
    if not 1 <= target_class <= C:
        raise LabelError(f"target_class must lie in [1..{C}], got {target_class}")
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")

    ks = (np.arange(1, steps + 1, dtype=np.float64) / steps)[:, None]
    pts = base[None, :] + ks * (x - base)[None, :]
    select = np.zeros((steps, C))
    select[:, target_class - 1] = 1.0

    zero_grads(params.tensors())
    with Tape():
        leaf = Tensor(pts, requires_grad=True)
        total = sum_all(mul(forward_logits(params, leaf), Tensor(select)))
    backward(total)
    avg_grad = leaf.grad.mean(axis=0)
    zero_grads(params.tensors())
    return (x - base) * avg_grad


@dataclass(frozen=True)
class TheoremReport:
    """Completeness audit of the attribution term over a batch."""

    ig_sums: np.ndarray  # (n,) sum_i IG_i per sample
    logit_gaps: np.ndarray  # (n,) g(x)_c - g(I)_c
    residuals: np.ndarray  # (n,) absolute differences
    max_residual: float
    tol: float
    passed: bool


def verify_theorem1(
    params: ModelParams,
    x: np.ndarray,
    baseline: BaselineInput,
    steps: int,
    tol: float = 1e-3,
) -> TheoremReport:
    """Check completeness of the attribution term on a batch.

    For each sample, the target class is the refined prediction (the
    pseudo-label the training step would use).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DimensionError("verify_theorem1 expects a nonempty (n, d) batch")
    base_row = baseline_logits(params, baseline)
    logits = logits_array(params, x)
    labels = np.argmax(logits - base_row, axis=1).astype(np.int64) + 1

    n = x.shape[0]
    ig_sums = np.empty(n)
    gaps = np.empty(n)
    for i in range(n):
        c = int(labels[i])
        ig = integrated_gradients(params, x[i], baseline, c, steps)
        ig_sums[i] = ig.sum()
        gaps[i] = logits[i, c - 1] - base_row[c - 1]
    residuals = np.abs(ig_sums - gaps)
    mr = float(residuals.max())
    return TheoremReport(
        ig_sums=ig_sums,
        logit_gaps=gaps,
        residuals=residuals,
        max_residual=mr,
        tol=tol,
        passed=mr < tol,
    )
