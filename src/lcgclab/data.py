"""Synthetic long-tailed Gaussian mixtures for semi-supervised training.

A dataset has three pools: a labeled pool with exponentially decaying
per-class counts, an unlabeled pool whose class profile may match,
invert, or flatten the labeled one, and a balanced test split. Class
labels are 1-based everywhere in the public interface. The unlabeled
pool's true labels travel with the dataset under ``hidden_labels`` for
evaluation only; the training path never reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    InfeasibleSpecError,
    LabelError,
    SamplingError,
)
from .fileio import atomic_write_bytes, read_container, write_container


@dataclass(frozen=True)
class LongTailSpec:
    """Recipe for one synthetic dataset realization.

    gamma_labeled / gamma_unlabeled are head-to-tail imbalance ratios
    (N_1 / N_C); 1.0 means balanced. ``reversed_unlabeled`` inverts the
    unlabeled class profile so the unlabeled tail is the labeled head.
    """

    classes: int = 10
    dim: int = 32
    n_max_labeled: int = 300
    n_max_unlabeled: int = 600
    gamma_labeled: float = 100.0
    gamma_unlabeled: float = 100.0
    reversed_unlabeled: bool = False
    class_separation: float = 3.5
    noise_sigma: float = 1.2
    test_per_class: int = 100
    seed: int = 7

    def __post_init__(self):
        if self.classes < 2:
            raise ContractError(f"need at least 2 classes, got {self.classes}")
        if self.dim < 1:
            raise DimensionError(f"dim must be positive, got {self.dim}")
        for name in ("n_max_labeled", "n_max_unlabeled"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        for name in ("gamma_labeled", "gamma_unlabeled"):
            if getattr(self, name) < 1.0:
                raise ContractError(f"{name} must be >= 1.0 (head/tail ratio)")
        if self.class_separation < 0.0:
            raise ContractError("class_separation must be nonnegative")
        if self.noise_sigma <= 0.0:
            raise ContractError("noise_sigma must be positive")
        if self.test_per_class < 1:
            raise ContractError("test_per_class must be >= 1")
        # Fail early if either pool would round a tail class to zero.
        longtail_counts(self.classes, self.n_max_labeled, self.gamma_labeled)
        longtail_counts(
            self.classes, self.n_max_unlabeled, self.gamma_unlabeled
        )


def longtail_counts(classes: int, n_max: int, gamma: float) -> np.ndarray:
    """Exponential class-size profile N_c = round(N_1 * gamma^-((c-1)/(C-1))).

    Rounding is half-up. The head class gets n_max, the tail class
    n_max / gamma; intermediate classes interpolate geometrically.
    """
    if classes < 1:
        raise ContractError(f"classes must be >= 1, got {classes}")
    if n_max < 1:
        raise ContractError(f"n_max must be >= 1, got {n_max}")
    if gamma < 1.0:
        raise ContractError(f"gamma must be >= 1.0, got {gamma}")
    if classes == 1:
        return np.array([n_max], dtype=np.int64)
    c = np.arange(classes, dtype=np.float64)
    raw = n_max * gamma ** (-c / (classes - 1))
    counts = np.floor(raw + 0.5).astype(np.int64)
    if counts[-1] < 1:
        raise InfeasibleSpecError(
            f"tail class rounds to zero samples (n_max={n_max}, gamma={gamma})"
        )
    return counts


@dataclass(frozen=True)
class AugmentConfig:
    """Gaussian jitter strengths and the strong view's mask fraction."""

    sigma_weak: float = 0.1
    sigma_strong: float = 0.5
    mask_fraction: float = 0.25

    def __post_init__(self):
        if self.sigma_weak < 0.0 or self.sigma_strong < 0.0:
            raise ContractError("augmentation sigmas must be nonnegative")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise ContractError("mask_fraction must lie in [0, 1)")


@dataclass
class SynthDataset:
    """One realized dataset: pools, their class counts, and the means."""

    spec: LongTailSpec | None
    class_means: np.ndarray  # (C, d)
    labeled_x: np.ndarray  # (n_l, d)
    labeled_y: np.ndarray  # (n_l,) int64 in [1..C]
    unlabeled_x: np.ndarray  # (n_u, d)
    hidden_labels: np.ndarray  # (n_u,) int64; evaluation only
    test_x: np.ndarray  # (n_t, d)
    test_y: np.ndarray  # (n_t,) int64
    labeled_counts: np.ndarray = field(repr=False, default=None)
    unlabeled_counts: np.ndarray = field(repr=False, default=None)

    @property
    def classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]

    def labeled_distribution(self) -> np.ndarray:
        """Empirical class distribution of the labeled pool, shape (C,)."""
        return self.labeled_counts / self.labeled_counts.sum()

    def value_range(self) -> float:
        """Largest absolute coordinate over both training pools."""
        return float(
            max(np.abs(self.labeled_x).max(), np.abs(self.unlabeled_x).max())
        )


def _class_means(classes: int, dim: int, separation: float, rng) -> np.ndarray:
    """Class centers with pairwise distance ``separation`` when C <= d.

    Orthonormal directions scaled by separation / sqrt(2) make every
    pair exactly ``separation`` apart. When C > d no such placement
    exists; directions fall back to random unit vectors at the same
    radius.
    """
    radius = separation / math.sqrt(2.0)
    g = rng.normal(size=(dim, max(classes, 1)))
    if classes <= dim:
        q, r = np.linalg.qr(g[:, :classes])
        # Fix signs so the decomposition is unique and seed-stable.
        q = q * np.sign(np.diag(r))
        return np.ascontiguousarray(q.T * radius)
    norms = np.linalg.norm(g, axis=0)
    return np.ascontiguousarray((g / norms).T * radius)


def synthesize(spec: LongTailSpec) -> SynthDataset:
    """Draw one dataset realization from the spec, deterministically."""
    streams = np.random.SeedSequence(spec.seed).spawn(4)
    rng_means = np.random.default_rng(streams[0])
    rng_lab = np.random.default_rng(streams[1])
    rng_unlab = np.random.default_rng(streams[2])
    rng_test = np.random.default_rng(streams[3])

    C, d = spec.classes, spec.dim
    means = _class_means(C, d, spec.class_separation, rng_means)

    lab_counts = longtail_counts(C, spec.n_max_labeled, spec.gamma_labeled)
    unlab_counts = longtail_counts(
        C, spec.n_max_unlabeled, spec.gamma_unlabeled
    )
    if spec.reversed_unlabeled:
        unlab_counts = unlab_counts[::-1].copy()

    def draw(counts, rng):
        xs, ys = [], []
        for c in range(C):
            n = int(counts[c])
            xs.append(means[c] + spec.noise_sigma * rng.normal(size=(n, d)))
            ys.append(np.full(n, c + 1, dtype=np.int64))
        return np.ascontiguousarray(np.vstack(xs)), np.concatenate(ys)

    lx, ly = draw(lab_counts, rng_lab)
    ux, uy = draw(unlab_counts, rng_unlab)
    tx, ty = draw(np.full(C, spec.test_per_class, dtype=np.int64), rng_test)

    return SynthDataset(
        spec=spec,
        class_means=means,
        labeled_x=lx,
        labeled_y=ly,
        unlabeled_x=ux,
        hidden_labels=uy,
        test_x=tx,
        test_y=ty,
        labeled_counts=lab_counts,
        unlabeled_counts=unlab_counts,
    )


def weak_aug(x: np.ndarray, cfg: AugmentConfig, rng) -> np.ndarray:
    """Additive Gaussian jitter at sigma_weak; shape-preserving."""
    x = np.asarray(x, dtype=np.float64)
    return x + cfg.sigma_weak * rng.normal(size=x.shape)


def strong_aug(x: np.ndarray, cfg: AugmentConfig, rng) -> np.ndarray:
    """Heavy jitter at sigma_strong plus random coordinate masking.

    Per sample, round(mask_fraction * d) coordinates chosen without
    replacement are zeroed after the jitter. Draw order is fixed (noise,
    then mask positions) so streams replay identically.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x.reshape(1, -1) if single else x
    n, d = batch.shape
    out = batch + cfg.sigma_strong * rng.normal(size=(n, d))
    k = int(cfg.mask_fraction * d + 0.5)
    if k > 0:
        # Rank unit uniforms per row; the k smallest mark masked coords.
        order = np.argsort(rng.random(size=(n, d)), axis=1)[:, :k]
        out[np.arange(n)[:, None], order] = 0.0
    return out[0] if single else out


def sample_minibatch(
    ds: SynthDataset, batch_size: int, mu: int, rng
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform-with-replacement minibatch: B labeled rows, mu*B unlabeled.

    Uniform sampling over the pools preserves their imbalance in
    expectation. Returns (x_labeled, y_labeled, x_unlabeled).
    """
    if batch_size < 1 or mu < 1:
        raise SamplingError(
            f"batch_size and mu must be >= 1, got {batch_size}, {mu}"
        )
    if ds.labeled_x.shape[0] == 0 or ds.unlabeled_x.shape[0] == 0:
        raise SamplingError("cannot sample from an empty pool")
    li = rng.integers(0, ds.labeled_x.shape[0], size=batch_size)
    ui = rng.integers(0, ds.unlabeled_x.shape[0], size=mu * batch_size)
    return ds.labeled_x[li], ds.labeled_y[li], ds.unlabeled_x[ui]


# ------------------------------------------------------------------ export


_POOLS = (
    ("labeled_x", "labeled_y"),
    ("unlabeled_x", "hidden_labels"),
    ("test_x", "test_y"),
)
_ARRAYS = ("class_means", *(name for pool in _POOLS for name in pool))


def save_dataset(ds: SynthDataset, path: str | Path) -> None:
    """Write the class means and the three pools as a "dataset" container
    (layout in ``lcgclab.fileio``). Labels are small integers, so their
    f64 round trip is exact; class counts are not stored."""
    write_container(path, "dataset", {}, {n: getattr(ds, n) for n in _ARRAYS})


def load_dataset(path: str | Path) -> SynthDataset:
    """Read a container written by ``save_dataset``.

    It carries realized arrays, not the generating spec, so the loaded
    dataset has ``spec=None``; class counts are recounted from the
    labels. Malformed bytes and pools that disagree with the class
    means raise ContractError; a label that is not an integer in
    [1..C] raises LabelError.
    """
    _, arrays = read_container(path, "dataset")
    if tuple(arrays) != _ARRAYS or arrays["class_means"].ndim != 2:
        raise ContractError(f"{path}: dataset must hold (C, d) {_ARRAYS}")
    C, d = arrays["class_means"].shape
    for x_name, y_name in _POOLS:
        x, y = arrays[x_name], arrays[y_name]
        if x.ndim != 2 or x.shape[1] != d or y.shape != x.shape[:1]:
            raise ContractError(
                f"{path}: {x_name} {x.shape} and {y_name} {y.shape} "
                f"do not fit {C} classes in {d} dims"
            )
        if not np.all((y >= 1) & (y <= C) & (y == np.floor(y))):
            raise LabelError(f"{path}: labels must be integers in [1, {C}]")
        arrays[y_name] = y.astype(np.int64)
    return SynthDataset(
        spec=None,
        **arrays,
        labeled_counts=np.bincount(arrays["labeled_y"] - 1, minlength=C),
        unlabeled_counts=np.bincount(arrays["hidden_labels"] - 1, minlength=C),
    )


def export_csv(ds: SynthDataset, path: str | Path) -> None:
    """Human-readable view: split, label (-1 for unlabeled), coordinates.

    Unlabeled rows carry -1 rather than their hidden labels, so the CSV
    view never leaks what the training path is not allowed to see.
    """
    d = ds.dim
    header = "split,label," + ",".join(f"x{j + 1}" for j in range(d))
    lines = [header]

    def rows(name, xs, labels):
        for i in range(xs.shape[0]):
            coords = ",".join(repr(float(v)) for v in xs[i])
            lines.append(f"{name},{int(labels[i])},{coords}")

    rows("labeled", ds.labeled_x, ds.labeled_y)
    rows("unlabeled", ds.unlabeled_x, np.full(ds.unlabeled_x.shape[0], -1))
    rows("test", ds.test_x, ds.test_y)
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
