"""Synthetic long-tailed Gaussian mixtures for semi-supervised training.

A dataset has three pools: a labeled pool with exponentially decaying
per-class counts, an unlabeled pool whose class profile may match,
invert, or flatten the labeled one, and a balanced test split. Class
labels are 1-based everywhere in the public interface. The unlabeled
pool's true labels travel with the dataset under ``hidden_labels`` for
evaluation only; the training path never reads them. Per-class counts
are derived from the labels, never stored beside them. A
``SynthDataset`` checks its own arrays when it is made, whoever makes
it (``synthesize``, ``load_dataset`` or ``dataclasses.replace``), so
``sample_minibatch`` and the training step do not check them again.
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
    as_array,
    as_float,
    as_instance,
    as_int,
    as_labels,
    check_fields,
)
from .fileio import atomic_write_bytes, read_container, write_container


@dataclass(frozen=True)
class LongTailSpec:
    """Recipe for one synthetic dataset realization.

    gamma_labeled / gamma_unlabeled are head-to-tail imbalance ratios
    (N_1 / N_C); 1.0 means balanced. ``reversed_unlabeled`` inverts the
    unlabeled class profile so the unlabeled tail is the labeled head.
    """

    classes: int = field(default=10, metadata=dict(lo=2))
    dim: int = 32
    n_max_labeled: int = field(default=300, metadata=dict(lo=1))
    n_max_unlabeled: int = field(default=600, metadata=dict(lo=1))
    gamma_labeled: float = field(default=100.0, metadata=dict(ge=1.0))
    gamma_unlabeled: float = field(default=100.0, metadata=dict(ge=1.0))
    reversed_unlabeled: bool = False
    class_separation: float = field(default=3.5, metadata=dict(ge=0.0))
    noise_sigma: float = field(default=1.2, metadata=dict(gt=0.0))
    test_per_class: int = field(default=100, metadata=dict(lo=1))
    seed: int = field(default=7, metadata=dict(lo=0))

    def __post_init__(self):
        check_fields(self)
        if self.dim < 1:
            raise DimensionError(f"dim must be positive, got {self.dim}")
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
    classes = as_int(classes, "classes", 2)
    n_max = as_int(n_max, "n_max", 1)
    gamma = as_float(gamma, "gamma", ge=1.0)
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

    sigma_weak: float = field(default=0.1, metadata=dict(ge=0.0))
    sigma_strong: float = field(default=0.5, metadata=dict(ge=0.0))
    mask_fraction: float = field(default=0.25, metadata=dict(ge=0.0, lt=1.0))

    def __post_init__(self):
        check_fields(self)


# Each pool's rows and their labels, in the container's order.
_POOLS = (
    ("labeled_x", "labeled_y"),
    ("unlabeled_x", "hidden_labels"),
    ("test_x", "test_y"),
)
_ARRAYS = ("class_means", *(name for pool in _POOLS for name in pool))


@dataclass(frozen=True)
class SynthDataset:
    """One realized dataset: the class means and the three pools. Class
    counts are properties, recounted from the labels on each read.

    The record checks its arrays where it is made: the class means go
    through ``errors.as_array`` as a (C, d) array, each label array
    through ``errors.as_labels`` against C, and each pool must be a
    nonempty (n, d) batch with n labels (ContractError). It keeps the
    converted arrays; a float64 array and an integer label array are
    kept as they are, not copied.
    """

    class_means: np.ndarray  # (C, d)
    labeled_x: np.ndarray  # (n_l, d)
    labeled_y: np.ndarray  # (n_l,) int64 in [1..C]
    unlabeled_x: np.ndarray  # (n_u, d)
    hidden_labels: np.ndarray  # (n_u,) int64; evaluation only
    test_x: np.ndarray  # (n_t, d)
    test_y: np.ndarray  # (n_t,) int64

    def __post_init__(self):
        object.__setattr__(
            self, "class_means", as_array(self.class_means, "class_means", 2)
        )
        C, d = self.class_means.shape
        for x_name, y_name in _POOLS:
            x = as_array(getattr(self, x_name), x_name)
            y = as_labels(getattr(self, y_name), y_name, None, C)
            if x.ndim != 2 or x.shape[1] != d or y.shape != x.shape[:1] or not len(y):
                raise ContractError(
                    f"{x_name} {x.shape} and {y_name} {y.shape} do not fit {C} "
                    f"classes in {d} dims (a pool holds n >= 1 rows, n labels)"
                )
            object.__setattr__(self, x_name, x)
            object.__setattr__(self, y_name, y)

    @property
    def classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def labeled_counts(self) -> np.ndarray:
        """Per-class size of the labeled pool, shape (C,) int64."""
        return np.bincount(self.labeled_y - 1, minlength=self.classes)

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]

    def labeled_distribution(self) -> np.ndarray:
        """Empirical class distribution of the labeled pool, shape (C,)."""
        return self.labeled_counts / len(self.labeled_y)

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
    g = rng.normal(size=(dim, classes))
    if classes <= dim:
        q, r = np.linalg.qr(g[:, :classes])
        # Fix signs so the decomposition is unique and seed-stable.
        q = q * np.sign(np.diag(r))
        return np.ascontiguousarray(q.T * radius)
    norms = np.linalg.norm(g, axis=0)
    return np.ascontiguousarray((g / norms).T * radius)


def synthesize(spec: LongTailSpec) -> SynthDataset:
    """Draw one dataset realization from the spec, deterministically;
    ContractError unless the spec is a LongTailSpec."""
    as_instance(spec, "spec", LongTailSpec)
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
        unlab_counts = unlab_counts[::-1]

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
        class_means=means,
        labeled_x=lx,
        labeled_y=ly,
        unlabeled_x=ux,
        hidden_labels=uy,
        test_x=tx,
        test_y=ty,
    )


def _jitter(x: np.ndarray, sigma: float, rng, out) -> np.ndarray:
    """x + sigma * N(0, 1) noise of the (n, d) batch x's shape, drawn
    into ``out`` (a fresh array when None), which must have x's shape."""
    x = as_array(x, "x", 2)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape:
        raise DimensionError(f"views of a {x.shape} batch into a {out.shape} array")
    rng.standard_normal(out=out)
    out *= sigma
    out += x  # IEEE addition commutes: the bits of x + sigma * noise
    return out


def weak_aug(
    x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator, *, out=None
) -> np.ndarray:
    """Additive Gaussian jitter at sigma_weak on an (n, d) batch.

    The views are drawn into ``out`` when given, a C-contiguous float64
    array of x's shape, and returned there. The draws are
    ``rng.standard_normal``'s, which consume the generator's stream as
    ``rng.normal(size=x.shape)`` does and give its values, with one
    exception: ``normal`` computes 0.0 + 1.0 * z, so a drawn -0.0
    becomes +0.0. A view differs from that of ``normal``'s draws only
    where a draw is exactly -0.0 (probability about 2^-52) and the
    coordinate of x is -0.0 too. The same holds for ``strong_aug``.
    """
    return _jitter(x, cfg.sigma_weak, rng, out)


def strong_aug(
    x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator, *, out=None
) -> np.ndarray:
    """Heavy jitter at sigma_strong plus random coordinate masking.

    Per sample, the k = round(mask_fraction * d) coordinates whose unit
    uniforms come first in ``np.argsort`` order are zeroed after the
    jitter. Draw order is fixed (noise, then uniforms if k > 0) so
    streams replay identically. ``out`` and the noise draws are those
    of ``weak_aug``.
    """
    out = _jitter(x, cfg.sigma_strong, rng, out)
    n, d = out.shape
    k = int(cfg.mask_fraction * d + 0.5)
    if k > 0:
        order = np.argsort(rng.random(size=(n, d)), axis=1)[:, :k]
        out[np.arange(n)[:, None], order] = 0.0
    return out


def sample_minibatch(
    ds: SynthDataset, batch_size: int, mu: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform-with-replacement minibatch: B labeled rows, mu*B unlabeled.

    Uniform sampling over the pools preserves their imbalance in
    expectation. Returns (x_labeled, y_labeled, x_unlabeled).
    batch_size and mu are integers >= 1 (``errors.as_int``); the pools
    are nonempty, since ``SynthDataset`` checks that where it is made.
    """
    batch_size, mu = as_int(batch_size, "batch_size", 1), as_int(mu, "mu", 1)
    li = rng.integers(0, ds.labeled_x.shape[0], size=batch_size)
    ui = rng.integers(0, ds.unlabeled_x.shape[0], size=mu * batch_size)
    return (
        ds.labeled_x.take(li, axis=0),
        ds.labeled_y.take(li),
        ds.unlabeled_x.take(ui, axis=0),
    )


# ------------------------------------------------------------------ export


def save_dataset(ds: SynthDataset, path: str | Path) -> None:
    """Write the class means and the three pools as a "dataset" container
    (layout in ``lcgclab.fileio``). Labels are small integers, so their
    f64 round trip is exact."""
    write_container(path, "dataset", {}, {n: getattr(ds, n) for n in _ARRAYS})


def load_dataset(path: str | Path) -> SynthDataset:
    """Read a container written by ``save_dataset``.

    It carries the realized arrays, which are all a ``SynthDataset``
    holds. Malformed bytes and other array names raise ContractError,
    float64 labels that are no integers LabelError. The reader checks
    only these bytes; ``SynthDataset`` checks the arrays it is made of.
    """
    _, arrays = read_container(path, "dataset")
    if tuple(arrays) != _ARRAYS:
        raise ContractError(f"{path}: dataset must hold {_ARRAYS}")
    for _, y_name in _POOLS:
        with np.errstate(invalid="ignore"):  # a cast out of int64's range
            labels = arrays[y_name].astype(np.int64)
        if not np.array_equal(labels, arrays[y_name]):
            raise LabelError(f"{path}: {y_name} must hold integers")
        arrays[y_name] = labels
    return SynthDataset(**arrays)


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
