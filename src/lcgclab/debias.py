"""Bias-corrected pseudo-labeling with gradient-conflict projection.

The class-imbalance bias of a classifier shows up as nonzero logits on
an uninformative solid-color input. Subtracting those baseline logits
(refinement) debiases both the pseudo-labels used during training and
the predictions at test time. The projection step goes further: the
gradient g_d of a KL divergence between raw and refined predictions
points along the bias. Under conflict (g_b . g_d < 0, where g_b is the
consistency gradient) a scaled component along g_d is added back in,
amplifying the debiasing pressure exactly when the two objectives
fight; otherwise g_b passes through unchanged.

Integrated gradients on the same baseline provide the audit: their sum
must reproduce the logit gap between a sample and the baseline, which
ties the correction term to an attribution the model itself certifies.
Their path from the baseline to a sample is a straight line, so the
audit never forms its points: the first layer is affine along it, and
its adjoint is averaged over the path before one input-layer backward
per sample. With one hidden layer, each unit's pre-activation crosses
zero at most once along the path, so its active path points are
counted in closed form, from one ceil(u steps / |v|) per unit; with
middle hidden layers, they are evaluated block by block.

``integrated_gradients`` is the checked entry: it validates every input
and runs the unchecked core ``_path_attributions``. ``verify_theorem1``
validates each of its inputs once, in a fixed order, and calls the core
directly with the labels its forward produced, which lie in [1..C] by
construction; the core checks only that x - I is finite.
"""

from __future__ import annotations

import math
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
    EvaluationError,
    TrainingDiverged,
    as_array,
    as_choice,
    as_float,
    as_instance,
    as_int,
    as_labels,
    check_fields,
)
from .losses import (
    consistency_inputs,
    distribution_alignment,
    ema_update,
    pseudo_label,
    sharpen,
)
from .metrics import bacc, confusion, gm
from .model import (
    ModelParams,
    StepBuffers,
    as_input,
    backward_rows,
    forward_cached,
    init_mlp,
    logits_array,
)
from .tensor import Tensor, apply_op, cross_entropy_terms

# Ablation palette: solid-color probe inputs, scaled to the data range.
BASELINE_COLORS = ("red", "green", "blue", "gray", "white", "black")

# Pseudo-labelers: FixMatch hard labels or ReMixMatch-style soft labels.
BACKBONES = ("fixmatch", "remix-lite")

# Below this norm the correction direction is numerically meaningless.
_NORM_FLOOR = 1e-12

# Elements per partial sum of a gradient dot product. OpenBLAS splits a
# ddot of more than 10,000 elements across its threads, which changes
# the bits with the thread count; no chunk of this size is split.
_DOT_CHUNK = 8192

# Path points per block of the attribution audit of a net with middle
# hidden layers (one hidden layer needs no blocks). The points themselves
# are never formed: a block bounds the (rows, hidden) temporaries of its
# hidden layers, whatever the batch size and step count. At 256 rows a
# 64-wide layer's temporaries are 128 KiB, which stay in cache and are
# reused by the allocator, where larger ones can go back to the OS and
# page-fault in again on every call (up to twice the time per 8-sample,
# 128-step audit call on a 2-vCPU x86 host).
_IG_BLOCK_ROWS = 256


def make_baseline(name: str, dim: int, scale: float) -> np.ndarray:
    """The (d,) solid-color probe input for data living in [-scale, scale]^d.

    black is the zero vector, white all-ones at full intensity, gray at
    half. The three primaries light up one third of the coordinates
    each (first third red, middle green, last blue); a primary whose
    third is empty (blue below 3 dims, green and blue at 1) would be the
    black probe under another name and raises ContractError. So do a
    name outside BASELINE_COLORS (``as_choice``), a dim that is no
    integer and a scale that is negative or not finite; a dim below 1
    raises DimensionError.
    """
    as_choice(name, "name", BASELINE_COLORS)
    dim = as_int(dim, "dim")
    if dim < 1:
        raise DimensionError(f"dim must be positive, got {dim}")
    scale = as_float(scale, "scale", ge=0.0)
    v = np.zeros(dim)
    thirds = np.array_split(np.arange(dim), 3)
    if name == "white":
        v[:] = scale
    elif name == "gray":
        v[:] = 0.5 * scale
    elif name in ("red", "green", "blue"):
        lit = thirds[("red", "green", "blue").index(name)]
        if lit.size == 0:
            raise ContractError(
                f"baseline color {name!r} lights no coordinate in {dim} dims"
            )
        v[lit] = scale
    return v


def baseline_logits(params: ModelParams, baseline: np.ndarray) -> np.ndarray:
    """Logits of the (d,) probe input, shape (C,), from a forward of its
    own. ``evaluate`` uses it; the training step and ``verify_theorem1``
    stack the probe into the forward of their batch instead."""
    return logits_array(params, as_input(params, baseline, "probe", 1)[None, :])[0]


def kl_consistency_loss(
    logits: Tensor | np.ndarray, refined: Tensor | np.ndarray
) -> Tensor:
    """Mean row-wise KL(softmax(logits) || softmax(refined)), on the tape.

    Differentiable in both arguments, so gradients also flow through
    the refined branch (which shares parameters via the baseline
    forward). Bitwise-equal inputs give exactly zero; rounding can pull
    a row a hair below zero, which is clamped in the value only.
    """
    a = logits if isinstance(logits, Tensor) else Tensor(logits)
    b = refined if isinstance(refined, Tensor) else Tensor(refined)
    value, ga, gb = kl_consistency_terms(
        K.log_softmax_rows(as_array(a.data, "logits", 2)),
        K.log_softmax_rows(as_array(b.data, "refined", 2)),
    )
    return apply_op(
        np.asarray(value), (a, b), lambda g: (ga * float(g), gb * float(g))
    )


def kl_consistency_terms(lp: np.ndarray, lq: np.ndarray):
    """Value of ``kl_consistency_loss`` from the (n, C) log-probabilities
    of its two arguments, and its adjoints with respect to the two
    arguments' logits: (value, ga, gb)."""
    lp, lq = as_array(lp, "lp", 2), as_array(lq, "lq", 2)
    if lp.shape != lq.shape:
        raise DimensionError(f"shape mismatch: {lp.shape} vs {lq.shape}")
    n = lp.shape[0]
    if n == 0:
        raise ContractError("kl_consistency_loss on an empty batch")
    s = 1.0 / n
    p, q = np.exp(lp), np.exp(lq)
    diff = lp - lq
    row = np.einsum("ij,ij->i", p, diff)
    value = float(np.add.reduce(np.maximum(row, 0.0))) / n  # the mean's bits
    ga = np.subtract(diff, row[:, None], out=diff)
    ga *= p
    ga *= s
    gb = np.subtract(q, p, out=q)
    gb *= s
    return value, ga, gb


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b of two 1-D arrays, whatever the BLAS thread count: the dot
    of each ``_DOT_CHUNK``-element chunk, added in order. Up to one
    chunk, that is the one ``a @ b``."""
    if a.size <= _DOT_CHUNK:
        return float(a @ b)
    total = float(a[:_DOT_CHUNK] @ b[:_DOT_CHUNK])
    for i in range(_DOT_CHUNK, a.size, _DOT_CHUNK):
        total += float(a[i : i + _DOT_CHUNK] @ b[i : i + _DOT_CHUNK])
    return total


class GradientVector:
    """A flattened parameter-space gradient with its squared norm and
    norm precomputed. Both dots are ``_dot``'s; up to ``_DOT_CHUNK``
    elements the norm has the bits of ``np.linalg.norm``, which is the
    square root of the same dot product."""

    __slots__ = ("values", "sqnorm", "norm")

    def __init__(self, values: np.ndarray):
        v = as_array(values, "values").reshape(-1)
        self.values = v
        self.sqnorm = _dot(v, v)
        self.norm = math.sqrt(self.sqnorm)

    def dot(self, other: "GradientVector") -> float:
        return _dot(self.values, other.values)

    def __len__(self) -> int:
        return self.values.size


def lcgc_combine(
    g_b: GradientVector, g_d: GradientVector, lam: float
) -> GradientVector:
    """Conflict-aware combination of consistency and bias gradients.

    Returns g_b unchanged when there is no conflict (g_b . g_d >= 0) or
    when g_d is numerically zero. Under conflict (g_b . g_d < 0) the
    projection of g_b onto g_d is added back, scaled by lam:

        g_b + lam * (g_d . g_b / ||g_d||^2) * g_d

    which amplifies the conflict: the result's inner product with g_d
    is (1 + lam) times the original. lam = 0 reduces to the plain
    refinement-only update.
    """
    if len(g_b) != len(g_d):
        raise DimensionError(
            f"gradient lengths differ: {len(g_b)} vs {len(g_d)}"
        )
    lam = as_float(lam, "lam", ge=0.0)
    if g_d.norm < _NORM_FLOOR:
        return g_b
    dot = g_d.dot(g_b)
    if dot >= 0.0:
        return g_b
    coeff = lam * dot / g_d.sqnorm
    # g_b + coeff * g_d in one temporary; IEEE * and + commute: same bits.
    combined = np.multiply(g_d.values, coeff)
    combined += g_b.values
    return GradientVector(combined)


@dataclass(frozen=True)
class RunSettings:
    """The run settings that a config file sets, each declared once,
    here, with its default and its bounds or choices (``check_fields``
    enforces them). ExperimentConfig adds the experiment's own keys to
    them; TrainSettings adds ``disable_projection``.

    lam scales the conflict correction (0 disables it while keeping
    refinement).
    """

    steps: int = field(default=3000, metadata=dict(lo=0))
    batch_size: int = field(default=64, metadata=dict(lo=1))
    mu: int = field(default=2, metadata=dict(lo=1))
    lr: float = field(default=0.2, metadata=dict(gt=0.0))
    tau: float = field(default=0.0, metadata=dict(ge=0.0, le=1.0))
    consistency_weight: float = field(default=1.0, metadata=dict(ge=0.0))
    backbone: str = field(default="fixmatch", metadata=dict(choices=BACKBONES))
    remix_temperature: float = field(default=0.5, metadata=dict(gt=0.0))
    remix_ema_decay: float = field(default=0.99, metadata=dict(ge=0.0, lt=1.0))
    remix_align: bool = True
    aug: AugmentConfig = field(default_factory=AugmentConfig)
    lam: float = field(default=1.0, metadata=dict(ge=0.0))
    baseline_color: str = field(default="black", metadata=dict(choices=BASELINE_COLORS))
    refine_pseudo_labels: bool = True
    refine_at_test: bool = True
    double_subtract: bool = False

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TrainSettings(RunSettings):
    """Every setting of one training run; the run also takes the data,
    the hidden widths and a seed. ExperimentConfig.train_settings()
    fills it from a config's RunSettings fields after the method's pins.

    ``disable_projection`` bypasses the combination step entirely and
    exists for equivalence diagnostics; it is not a config file key.
    """

    disable_projection: bool = False


@dataclass
class TrainState:
    """Mutable per-run state threaded through train_step."""

    rng: np.random.Generator
    baseline: np.ndarray  # (d,) probe input
    target_dist: np.ndarray  # labeled class profile, for alignment
    ema_avg: np.ndarray  # running mean of predicted distributions
    step: int = 0
    # Filled by the first train_step; scratch only, never an artifact.
    buffers: StepBuffers | None = field(default=None, repr=False)


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
    # None when a diverged run's last parameters give non-finite test
    # logits, which rank nothing.
    final_bacc: float | None
    final_gm: float | None
    confusion: np.ndarray | None
    diverged: bool = False
    divergence_step: int | None = None
    divergence: dict | None = None  # TrainingDiverged.diagnostics
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "n_steps": len(self.steps),
            "final_bacc": self.final_bacc,
            "final_gm": self.final_gm,
            "confusion": (
                None if self.confusion is None else self.confusion.tolist()
            ),
            "diverged": self.diverged,
            "divergence_step": self.divergence_step,
            "conflict_rate": (
                float(np.mean([r.conflict for r in self.steps]))
                if self.steps
                else 0.0
            ),
            "wall_time_s": self.wall_time_s,
        }
        if self.diverged:
            out["divergence"] = self.divergence
        return out


def _grad_b_with_loss(params, x_unlabeled, pseudo, aug, rng, weight, bufs):
    """The consistency gradient g_b (a ``GradientVector``) and the
    unweighted consistency loss: one forward of the strong views drawn
    from ``rng`` into ``bufs`` (a ``StepBuffers``), through its
    activations; ``cross_entropy_terms`` scales the logit adjoint by
    ``weight``, and the gradient is written into the buffers' third flat
    gradient."""
    strong, target, weights = consistency_inputs(
        x_unlabeled, pseudo, aug, rng, out=bufs.strong
    )
    logits, inputs = forward_cached(params, strong, out=bufs.acts)
    loss, adj = cross_entropy_terms(
        K.log_softmax_rows(logits), target, weights=weights, scale=weight
    )
    g = backward_rows(params, inputs, adj, out=bufs.grads[2])
    return GradientVector(g), loss


def _kl_grad(params, x, n, bufs, refine=True):
    """One forward of ``x`` (n weak views, the probe, any more rows)
    into ``bufs`` (a ``StepBuffers``) and the KL gradient, whose adjoint
    lives on the weak and probe rows only; it is written into the
    buffers' first flat gradient. ``kl_consistency_terms`` gives it from
    the weak views' log-probabilities, raw and refined.

    Returns (the bias gradient g_d, the KL value, the pseudo-labels' row
    probabilities, the log-probabilities of every row of the forward,
    its cached layer inputs), so a caller that stacked more rows takes
    their block from the same forward and log-softmax pass. The
    probabilities are the softmax of the weak views' refined logits, or
    with ``refine`` false of their raw ones, taken from the log-softmax
    pass of those logits. All but the inputs are fresh arrays. The
    backward of g_d consumed the hidden inputs of rows 0..n, so the
    returned inputs are valid only from row n + 1 on.
    """
    z, inputs = forward_cached(params, x, out=bufs.acts)
    raw_probs = None if refine else np.empty(z.shape)
    lsm = K.log_softmax_rows(z, probs=raw_probs)
    refined = np.subtract(z[:n], z[n])
    ref_probs = np.empty(refined.shape) if refine else None
    loss_kl, ga, gb = kl_consistency_terms(
        lsm[:n], K.log_softmax_rows(refined, probs=ref_probs)
    )
    g_rows = np.empty((n + 1, z.shape[1]))
    np.add(ga, gb, out=g_rows[:n])
    np.negative(K.sum_rows(gb, out=g_rows[n]), out=g_rows[n])
    g_d = backward_rows(params, inputs, g_rows, out=bufs.grads[0])
    probs = ref_probs if refine else raw_probs[:n]
    return GradientVector(g_d), loss_kl, probs, lsm, inputs


def _grad_d_with_loss(params, x, n, y_labeled, bufs, refine):
    """``_kl_grad``'s first three values, then the supervised gradient
    and loss of the labeled views stacked after the probe in ``x``
    (``bufs.stacked`` of the run's ``StepBuffers``): their block of the
    log-probabilities gives ``cross_entropy_terms`` the loss and logit
    adjoint, and that block's backward gives the gradient, written into
    the buffers' second flat gradient and returned as that array (only
    a diverged step reads its norm). Its rows n + 1.. are the only rows
    of the forward whose hidden inputs are still valid once g_d is
    taken, and its backward consumes them.
    """
    g_d, loss_kl, probs, lsm, inputs = _kl_grad(params, x, n, bufs, refine)
    loss_sup, adj = cross_entropy_terms(lsm[n + 1 :], y_labeled)
    g_sup = backward_rows(params, inputs, adj, n + 1, out=bufs.grads[1])
    return g_d, loss_kl, probs, g_sup, loss_sup


def _divergence_diagnostics(losses: dict, grads: dict, update) -> dict:
    """What a diverged step leaves behind: its losses and gradient norms
    (None where not finite, so the artifact stays strict JSON) and the
    names of the values that went non-finite, the combined update
    included."""
    values = {k: float(v) for k, v in losses.items()}
    norms = {k: g.norm for k, g in grads.items()}
    both = {**values, **norms}
    non_finite = [k for k, v in both.items() if not np.isfinite(v)]
    if not np.isfinite(update).all():
        non_finite.append("update")

    def finite(d):
        return {k: (v if np.isfinite(v) else None) for k, v in d.items()}

    return {
        "losses": finite(values),
        "grad_norms": finite(norms),
        "non_finite": non_finite,
    }


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
    rng = state.rng
    xl, yl, xu = sample_minibatch(ds, settings.batch_size, settings.mu, rng)
    n = xu.shape[0]
    if state.buffers is None:
        state.buffers = StepBuffers(params, n, xl.shape[0], state.baseline)
    bufs = state.buffers
    x = bufs.stacked  # [unlabeled weak views; probe; labeled weak views]
    weak_aug(xl, settings.aug, rng, out=x[n + 1 :])
    weak_aug(xu, settings.aug, rng, out=x[:n])

    # One forward of the weak views, the probe and the labeled views
    # serves the bias gradient, the supervised gradient and the
    # pseudo-labels, which are debiased by the current baseline
    # response when refinement is on.
    g_d, loss_kl, probs, g_sup, loss_sup = _grad_d_with_loss(
        params, x, n, yl, bufs, settings.refine_pseudo_labels
    )
    pseudo = pseudo_label(probs, settings.tau)

    if settings.backbone == "remix-lite":
        q = pseudo.probs
        state.ema_avg = ema_update(
            state.ema_avg, q.mean(axis=0), settings.remix_ema_decay
        )
        if settings.remix_align:
            q = distribution_alignment(q, state.ema_avg, state.target_dist)
        pseudo.soft_labels = sharpen(q, settings.remix_temperature)

    g_b, loss_con = _grad_b_with_loss(
        params, xu, pseudo, settings.aug, rng, settings.consistency_weight, bufs
    )

    dot = g_b.dot(g_d)
    conflict = dot < 0.0
    norm_prod = g_b.norm * g_d.norm
    cos_angle = dot / norm_prod if norm_prod > 0.0 else 0.0

    if settings.disable_projection:
        g = g_b
    else:
        g = lcgc_combine(g_b, g_d, settings.lam)

    # Accumulated in g's scratch values, whose norm was taken before;
    # g_sup stays whole for the diagnostics.
    update = np.add(g.values, g_sup, out=g.values)
    if not (
        np.isfinite(update).all()
        and math.isfinite(loss_sup)
        and math.isfinite(loss_con)
        and math.isfinite(loss_kl)
    ):
        raise TrainingDiverged(
            state.step,
            _divergence_diagnostics(
                dict(loss_sup=loss_sup, loss_con=loss_con, loss_kl=loss_kl),
                dict(g_b=g_b, g_d=g_d, g_sup=GradientVector(g_sup)),
                update,
            ),
        )
    params.apply_update(update, settings.lr)

    rec = StepRecord(
        step=state.step,
        loss_sup=loss_sup,
        loss_con=loss_con,
        loss_kl=loss_kl,
        conflict=conflict,
        cos_angle=cos_angle,
        mask_rate=int(np.count_nonzero(pseudo.mask)) / pseudo.mask.shape[0],
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
    baseline: np.ndarray | None = None,
    double_subtract: bool = False,
) -> EvalReport:
    """Balanced accuracy, geometric mean and confusion on a labeled set.

    With a baseline, predictions use refined logits (the test-time
    correction); otherwise raw logits. Logits that are not all finite
    raise EvaluationError: an argmax over NaN is not a prediction;
    params that are no ModelParams raise ContractError.
    """
    as_instance(params, "params", ModelParams)
    as_instance(double_subtract, "double_subtract", bool, np.bool_)
    logits = logits_array(params, x)
    if baseline is not None:
        base = baseline_logits(params, baseline)
        logits = logits - base
        if double_subtract:
            logits = logits - base
    if not np.isfinite(logits).all():
        raise EvaluationError("cannot rank non-finite logits")
    pred = np.argmax(logits, axis=1).astype(np.int64) + 1
    cm = confusion(y, pred, params.dims[-1])
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
    finite value, and when those give non-finite test logits the record's
    final metrics and confusion are None. A ds that is no SynthDataset or
    settings that are no TrainSettings raise ContractError.
    """
    t0 = time.perf_counter()
    as_instance(ds, "ds", SynthDataset)
    as_instance(settings, "settings", TrainSettings)
    dims = (ds.dim, *as_instance(hidden, "hidden", tuple, list), ds.classes)
    params = init_mlp(dims, seed)
    state = TrainState(
        rng=np.random.default_rng(np.random.SeedSequence([seed, 1])),
        baseline=make_baseline(
            settings.baseline_color, ds.dim, ds.value_range()
        ),
        target_dist=ds.labeled_distribution(),
        ema_avg=np.full(ds.classes, 1.0 / ds.classes),
    )
    records: list[StepRecord] = []
    diverged = False
    divergence_step = divergence = None
    # A diverging step computes its non-finite values before the check
    # that raises TrainingDiverged, and the last finite parameters of a
    # diverged run can overflow again on the test split; numpy's warnings
    # would only repeat what the record keeps.
    quiet = dict(over="ignore", invalid="ignore")
    try:
        with np.errstate(**quiet):
            for _ in range(settings.steps):
                rec = train_step(params, ds, settings, state)
                records.append(rec)
                if step_callback is not None:
                    step_callback(params, rec)
    except TrainingDiverged as e:
        diverged = True
        divergence_step = e.step
        divergence = e.diagnostics
    state.buffers = None  # evaluate's test split needs the memory more

    try:
        with np.errstate(**(quiet if diverged else {})):
            report = evaluate(
                params,
                ds.test_x,
                ds.test_y,
                baseline=state.baseline if settings.refine_at_test else None,
                double_subtract=settings.double_subtract,
            )
    except EvaluationError:
        if not diverged:
            raise
        report = None
    run = RunRecord(
        seed=seed,
        steps=records,
        final_bacc=None if report is None else report.bacc,
        final_gm=None if report is None else report.gm,
        confusion=None if report is None else report.confusion,
        diverged=diverged,
        divergence_step=divergence_step,
        divergence=divergence,
        wall_time_s=time.perf_counter() - t0,
    )
    return params, run


def integrated_gradients(
    params: ModelParams,
    x: np.ndarray,
    baseline: np.ndarray,
    labels: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Right-endpoint path attributions of a (n, d) batch, row i
    attributing logit ``labels[i]`` (n integers in [1..C]); shape (n, d).

    Averages the input gradient of the target logit at the points
    I + (k/steps)(x - I), k = 1..steps, then multiplies by (x - I). As
    steps grows the attribution sums converge to the logit gap
    g(x)_c - g(I)_c; for a linear model one step is already exact.

    This is the checked entry: it validates every input, then runs the
    unchecked core ``_path_attributions`` (whose docstring gives the
    method). Raises ContractError unless steps is an integer >= 1 (a
    bool or a float is none), ContractError on a batch or probe that
    holds no numbers and DimensionError on one the model cannot take
    (``model.as_input``), ``errors.as_labels``'s errors on labels that are
    not n integers in [1..C], and EvaluationError on a non-finite x - I,
    as a forward of the path points would.
    """
    steps = as_int(steps, "steps", 1)
    x = as_input(params, x, "x", 2)
    baseline = as_input(params, baseline, "probe", 1)
    labels = as_labels(labels, "labels", x.shape[0], params.dims[-1])
    return _path_attributions(params, x, baseline, labels, steps)


def _path_attributions(
    params: ModelParams,
    x: np.ndarray,
    baseline: np.ndarray,
    labels: np.ndarray,
    steps: int,
) -> np.ndarray:
    """``integrated_gradients`` on inputs its caller has checked: x a
    float (n, d) batch, baseline (d,), labels n integers in [1..C] and
    steps an integer >= 1. It checks only what no caller knows in
    advance, that x - I is finite (EvaluationError otherwise).

    The path is a straight line, so its points are never formed:

    - the first layer's pre-activations along it are u + a v, with
      u = I W1 + b1 once per call and v = (x - I) W1 once per sample;
    - the target logit's adjoint at the last layer's input is a row of
      W_last^T, the same at every path point;
    - the first hidden layer's adjoint is averaged over the path before
      one input-layer backward per sample.

    The two cases differ in how that average is taken:

    - with no middle hidden layer, unit j of sample i is active where
      u_j + (k/steps) v_ij > 0, which holds on one side of a single
      crossing; the average is the adjoint row times the count c_ij of
      active path points over steps, in O(n h) for any steps, from one
      ceil of u steps / |v| per unit;
    - with middle hidden layers, every path point runs forward and
      backward through them, in blocks of ``_IG_BLOCK_ROWS // steps``
      samples (at least one), which bounds the (rows, hidden)
      temporaries.

    The two agree except at a rounding tie, a crossing that falls
    exactly on a path point, which each breaks its own way.
    """
    delta = x - baseline
    if not np.isfinite(delta).all():
        raise EvaluationError("attribution path contains non-finite values")
    ws = params.weights
    last = len(ws) - 1
    rows = ws[last].T[labels - 1]
    if not last:
        return delta * rows
    u = K.add_rowvec(K.matmul(baseline[None, :], ws[0]), params.biases[0])
    v = K.matmul(delta, ws[0])
    if last == 1:
        # u + (k/steps) v crosses zero at k = t = -u steps / v, and
        # q = u steps / |v| is t bit for bit where v < 0 and -t where
        # v > 0 (IEEE * and / are sign-symmetric). So the count of k in
        # 1..steps past the crossing is ceil(q) - 1 for v < 0 and
        # steps + ceil(q) for v > 0. A unit flat along the path (v = 0,
        # of either sign) takes the first form: its q is +inf, -inf or
        # the NaN of 0/0 as u is positive, negative or zero, which the
        # clip to [0, steps] turns into steps, 0 and 0 (fmax drops the
        # NaN), the unit being on or off along the whole path.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            count = np.divide(u * steps, np.abs(v))
        np.ceil(count, out=count)
        count += np.where(v > 0, float(steps), -1.0)
        np.fmax(count, 0.0, out=count)
        np.minimum(count, steps, out=count)
        count /= steps
        count *= rows
        return delta * K.matmul_nt(count, ws[0])
    uv = np.stack((np.broadcast_to(u, v.shape), v))
    # Row k of ``coef`` is (1, a_k); times a sample's (u; v) it gives the
    # first layer's pre-activations u + a_k v at path point k.
    coef = np.ones((steps, 2))
    coef[:, 1] = np.arange(1, steps + 1) / steps
    n = x.shape[0]
    per = max(1, _IG_BLOCK_ROWS // steps)
    out = np.empty_like(delta)
    for start in range(0, n, per):
        block = slice(start, start + per)
        m = min(per, n - start)
        # Each hidden layer's pre-activations, (steps, m, width): path
        # point-major, so the adjoint rows broadcast over the leading
        # axis. Those a further layer reads are ReLU'd in place, which
        # keeps the entries > 0 that relu_vjp's mask is taken from.
        h = K.matmul(coef, uv[:, block].reshape(2, -1))
        acts = [h.reshape(steps, m, -1)]
        for i in range(1, last):
            h = K.matmul(K.relu(h, out=h).reshape(steps * m, -1), ws[i])
            K.add_rowvec(h, params.biases[i], out=h)
            acts.append(h.reshape(steps, m, -1))
        g = rows[block]
        for i in range(last - 1, 0, -1):
            g = K.relu_vjp(g, acts[i] > 0.0, out=acts[i]).reshape(steps * m, -1)
            g = K.matmul_nt(g, ws[i]).reshape(steps, m, -1)
        g = K.relu_vjp(g, acts[0] > 0.0, out=acts[0]).mean(axis=0)
        out[block] = delta[block] * K.matmul_nt(g, ws[0])
    return out


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
    baseline: np.ndarray,
    steps: int,
    tol: float = 1e-3,
) -> TheoremReport:
    """Check completeness of the attribution term on a batch.

    For each sample, the target class is the refined prediction (the
    pseudo-label the training step would use). One forward of
    ``[x; probe]`` gives the logits of both, as in the training step;
    the refined logits z(x) - z(I), computed once, give the labels by
    their argmax and the logit gaps at those labels.

    Each input is checked once, in this order, through the converters
    of ``lcgclab.errors``: ContractError unless x holds numbers, then
    DimensionError unless it is a nonempty (n, d) batch, ContractError
    unless tol is a positive finite number, DimensionError unless x has
    the model's input width, ContractError unless the probe holds
    numbers and DimensionError unless it is one input of that width,
    EvaluationError (from the forward) on a non-finite x or probe, and
    ContractError unless steps is an integer >= 1. The
    argmax labels lie in [1..C] by construction, so the attributions
    come from ``integrated_gradients``' unchecked core, which raises
    EvaluationError on an x - I that overflows.
    """
    x = as_array(x, "x", 2)
    if x.shape[0] == 0:
        raise DimensionError("verify_theorem1 expects a nonempty (n, d) batch")
    tol = as_float(tol, "tol", gt=0.0)
    if x.shape[1] != params.dims[0]:  # before concatenate, for a DimensionError
        raise DimensionError(f"x of shape {x.shape}, input width {params.dims[0]}")
    baseline = as_input(params, baseline, "probe", 1)
    n = x.shape[0]
    z = logits_array(params, np.concatenate([x, baseline[None, :]]))
    steps = as_int(steps, "steps", 1)
    refined = z[:n] - z[n]
    idx = refined.argmax(axis=1)

    ig = _path_attributions(params, x, baseline, idx + 1, steps)
    ig_sums = np.add.reduce(ig, axis=1)
    gaps = refined[np.arange(n), idx]
    residuals = np.abs(ig_sums - gaps)
    mr = float(np.maximum.reduce(residuals))
    return TheoremReport(
        ig_sums=ig_sums,
        logit_gaps=gaps,
        residuals=residuals,
        max_residual=mr,
        tol=tol,
        passed=mr < tol,
    )
