"""Fully connected ReLU classifier, plus checkpointing.

Parameters are plain arrays, held by a frozen ``ModelParams`` that
checks its layer widths against its tensors' shapes where it is made,
however it is made; ``load_checkpoint`` checks only the bytes and
leaves the rest to the record. Training runs on them:
``forward_cached`` keeps each layer's input and ``backward_rows``
turns the logit adjoint of a row range into the flat parameter
gradient. The integrated-gradients audit in ``debias`` runs neither:
its straight-line path lets it run the layers on the kernels directly,
without forming the path points, and a net with one hidden layer needs
only each unit's count of active points. ``forward_logits`` records
the same network on the autodiff tape, which takes the arrays as
constants; it is only the gradient reference of the parity tests and
the audit's tests, which wrap the parameters in leaves
(``tape_leaves``) to get their gradients.

A training run allocates its large per-step arrays once, as a
``StepBuffers``, and every step writes into them: on a wide network
(385 rows x 256 units is about 770 KiB per layer) the allocator would
otherwise hand such temporaries back to the OS when a step frees them
and page-fault them in again on the next one. The buffers hold

- one activation array per layer, ``(rows, width)``, which
  ``forward_cached`` fills through row-prefix views; a later forward
  overwrites them, so whatever must outlive it is copied out. A
  ``backward_rows`` call also writes its hidden adjoints over the
  hidden activations of its rows, which it has read by then, so the
  step's backwards of one forward cover disjoint rows;
- three flat parameter gradients, each with views shaped like the
  tensors of ``ModelParams.tensors()``, into which ``backward_rows``
  writes every weight and bias gradient directly;
- the inputs of the step's two forwards: the stacked rows of the first
  (the unlabeled weak views, the probe input and the labeled weak
  views), whose probe row is written once per run, and the strong
  views of the second. ``data.weak_aug`` and ``data.strong_aug`` draw
  the views into them.

Only ``forward_cached`` also runs without buffers, allocating its
layers with the same bits (the inference forwards); ``backward_rows``
always writes into a flat gradient of them, and over the hidden
activations it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels as K
from .errors import ContractError, DimensionError, EvaluationError, LcgclabError
from .errors import as_array, as_instance, as_int
from .fileio import read_container, write_container
from .tensor import Tensor, add_rowvec, matmul, relu


@dataclass(frozen=True)
class ModelParams:
    """Weights and biases of an MLP as float64 arrays, in layer order.

    The record checks itself where it is made: ``dims`` under the width
    rule (``_widths``), kept as a tuple of Python ints, and one weight
    of shape (dims[i], dims[i + 1]) and one bias of shape (dims[i + 1],)
    per layer, or DimensionError. It reads only each tensor's ``shape``.
    """

    dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "dims", _widths(self.dims))
        shapes = [getattr(t, "shape", None) for t in (*self.weights, *self.biases)]
        if shapes != [*zip(self.dims, self.dims[1:]), *((o,) for o in self.dims[1:])]:
            raise DimensionError(f"the layer widths {self.dims} do not fit the tensors")

    def tensors(self) -> list[np.ndarray]:
        """All parameters in the canonical flat order (W1, b1, W2, b2, ...)."""
        return [t for wb in zip(self.weights, self.biases) for t in wb]

    @property
    def n_params(self) -> int:
        return sum(t.size for t in self.tensors())

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """A flat parameter-space vector cut into views, one per tensor
        of ``tensors()``, in that order and shaped like it."""
        views, off = [], 0
        for t in self.tensors():
            views.append(flat[off : off + t.size].reshape(t.shape))
            off += t.size
        return views

    def apply_update(self, flat: np.ndarray, lr: float) -> None:
        """In-place gradient step: theta <- theta - lr * flat, with the
        bits of ``t -= lr * u`` per tensor. ``flat`` is scratch: it holds
        lr * flat on return."""
        if flat.shape != (self.n_params,):
            raise DimensionError(
                f"update has {flat.shape}, model has {self.n_params} params"
            )
        # Scaled in place: a flat ``lr * flat`` temporary page-faults in
        # on every step of a wide net (train-wide: 15.1k against 8.7k
        # minor faults over 200 steps), and per-tensor ones are
        # allocated on every step.
        np.multiply(flat, lr, out=flat)
        for t, u in zip(self.tensors(), self.views(flat)):
            t -= u


def init_mlp(dims: tuple[int, ...], seed: int) -> ModelParams:
    """He-initialized MLP: W ~ N(0, 2/fan_in), biases zero.

    dims lists layer widths input-first, e.g. (32, 64, 10), under the
    width rule (``_widths``). The same (dims, seed) pair, seed an integer
    >= 0, always reproduces the same parameters.
    """
    dims = _widths(dims)
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(dims=dims, weights=weights, biases=biases)


def _widths(dims) -> tuple[int, ...]:
    """The width rule of init_mlp and load_checkpoint: a tuple or list of
    two or more integer widths (``as_int``), each >= 1 (DimensionError
    otherwise), as a tuple of Python ints."""
    dims = tuple(
        as_int(v, "layer width") for v in as_instance(dims, "dims", tuple, list)
    )
    if len(dims) < 2 or min(dims) < 1:
        raise DimensionError(f"need two or more layer widths >= 1, got {dims}")
    return dims


def as_input(params: ModelParams, x: np.ndarray, name: str, ndim: int) -> np.ndarray:
    """x through ``errors.as_array``; DimensionError unless it has ndim
    dims, the last of the model's input width: one input or a batch."""
    a = as_array(x, name)
    if a.ndim != ndim or a.shape[-1:] != (params.dims[0],):
        raise DimensionError(f"{name} of shape {a.shape}, input width {params.dims[0]}")
    return a


def forward_logits(params: ModelParams, x: Tensor | np.ndarray) -> Tensor:
    """Logits for a (n, d) batch; records on the active tape if any.
    The tape's matmul checks the batch."""
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = add_rowvec(matmul(h, w), b)
        if i != last:
            h = relu(h)
    return h


class StepBuffers:
    """The arrays of one training step of ``params``' network, whose
    first forward stacks ``unlabeled`` weak views, the probe input and
    ``labeled`` weak views (see the module docstring). ``probe``, a (d,)
    input, is written into row ``unlabeled`` of ``stacked``; without
    one that row holds zeros. ``strong`` holds ``unlabeled`` rows."""

    def __init__(
        self,
        params: ModelParams,
        unlabeled: int,
        labeled: int = 0,
        probe: np.ndarray | None = None,
    ):
        unlabeled = as_int(unlabeled, "unlabeled", 0)
        d, rows = params.dims[0], unlabeled + 1 + as_int(labeled, "labeled", 0)
        self.acts = [np.empty((rows, w)) for w in params.dims[1:]]
        self.grads = [grad_buffer(params) for _ in range(3)]
        self.stacked = np.zeros((rows, d))
        if probe is not None:
            self.stacked[unlabeled] = as_input(params, probe, "probe", 1)
        self.strong = np.empty((unlabeled, d))


def grad_buffer(params: ModelParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """An uninitialized flat parameter gradient and its views, one per
    tensor of ``tensors()``, in that order and shaped like it."""
    flat = np.empty(params.n_params)
    return flat, params.views(flat)


def forward_cached(
    params: ModelParams, x: np.ndarray, *, out: list[np.ndarray] | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Plain-array logits of a (n, d) batch and each layer's input.

    Runs the kernels ``forward_logits`` runs, in the same order, so the
    logits are bitwise the tape's; the bias and the ReLU are applied in
    place in each matmul's result. With ``out`` (a ``StepBuffers``'
    ``acts``), layer i is written into ``out[i][:n]``, so the logits and
    the cached inputs past the first are views of the buffers. The
    inputs are what ``backward_rows`` needs; a hidden layer's input is
    its predecessor's ReLU output, which also carries the ReLU mask.
    x goes through ``as_input``; non-finite inputs raise EvaluationError,
    as a tape leaf does.
    """
    h = np.ascontiguousarray(as_input(params, x, "x", 2))
    if not np.isfinite(h).all():
        raise EvaluationError("input batch contains non-finite values")
    n = h.shape[0]
    inputs = []
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = K.matmul(h, w, out=None if out is None else out[i][:n])
        K.add_rowvec(h, b, out=h)
        if i != last:
            K.relu(h, out=h)
    return h, inputs


def backward_rows(
    params: ModelParams,
    inputs: list[np.ndarray],
    g: np.ndarray,
    start: int = 0,
    *,
    out: tuple[np.ndarray, list[np.ndarray]],
) -> np.ndarray:
    """Flat parameter gradient, in ``tensors()`` order, of the rows
    ``start .. start + len(g)`` of a ``forward_cached`` call whose
    logits have adjoint ``g`` on those rows (and none elsewhere).

    ``out`` is a ``grad_buffer`` pair to write the gradient into, whose
    flat array is returned. It consumes the hidden activations of its
    rows: each hidden layer's adjoint is written over the rows of that
    layer's input it has just read, so ``inputs[1:]`` hold adjoints on
    those rows on return and the other rows are untouched. Two calls on
    one forward must cover disjoint rows. Like the kernels it runs, it
    checks nothing: every argument is a buffer or array of the caller's
    training step.
    """
    rows = slice(start, start + g.shape[0])
    flat, views = out
    for i in range(len(params.weights) - 1, -1, -1):
        h = inputs[i][rows]
        K.sum_rows(g, out=views[2 * i + 1])
        K.matmul_tn(h, g, out=views[2 * i])
        if i:
            mask = h > 0.0
            g = K.matmul_nt(g, params.weights[i], out=h)
            K.relu_vjp(g, mask, out=g)
    return flat


def logits_array(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Plain-array logits (inference path)."""
    return forward_cached(params, x)[0]


def save_checkpoint(
    params: ModelParams, path: str | Path, extra: dict | None = None
) -> None:
    """Write params as an "mlp-checkpoint" container (layout in
    ``lcgclab.fileio``). ``extra`` must be JSON-serializable."""
    arrays = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases), start=1):
        arrays[f"W{i}"], arrays[f"b{i}"] = w, b
    meta = {"dims": list(params.dims), "extra": extra}
    write_container(path, "mlp-checkpoint", meta, arrays)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict | None]:
    """Inverse of save_checkpoint; returns (params, extra).

    Malformed bytes and non-finite parameters raise ContractError
    (``read_container``), and so does a ``meta`` whose layer widths make
    no ``ModelParams`` of the stored tensors, in their order: the record
    checks the widths and the shapes.
    """
    meta, arrays = read_container(path, "mlp-checkpoint")
    t = list(arrays.values())
    try:
        return ModelParams(meta["dims"], t[0::2], t[1::2]), meta["extra"]
    except (KeyError, TypeError, LcgclabError):  # TypeError: meta is no dict
        raise ContractError(
            f"{path}: the layer widths do not fit the tensors"
        ) from None
