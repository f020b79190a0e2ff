"""Fully connected ReLU classifier over the tape, plus checkpointing."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError
from .fileio import read_container, write_container
from .tensor import Tensor, add_rowvec, matmul, no_tape, relu


@dataclass
class ModelParams:
    """Weights and biases of an MLP, in layer order."""

    dims: tuple[int, ...]
    weights: list[Tensor]
    biases: list[Tensor]

    def tensors(self) -> list[Tensor]:
        """All parameters in the canonical flat order (W1, b1, W2, b2, ...)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @property
    def n_params(self) -> int:
        return sum(t.data.size for t in self.tensors())

    def apply_update(self, flat: np.ndarray, lr: float) -> None:
        """In-place gradient step: theta <- theta - lr * flat."""
        if flat.shape != (self.n_params,):
            raise DimensionError(
                f"update has {flat.shape}, model has {self.n_params} params"
            )
        off = 0
        for t in self.tensors():
            size = t.data.size
            t.data -= lr * flat[off : off + size].reshape(t.data.shape)
            off += size

    def copy(self) -> "ModelParams":
        return ModelParams(
            dims=self.dims,
            weights=[Tensor(w.data, requires_grad=True) for w in self.weights],
            biases=[Tensor(b.data, requires_grad=True) for b in self.biases],
        )


def init_mlp(dims, seed: int) -> ModelParams:
    """He-initialized MLP: W ~ N(0, 2/fan_in), biases zero.

    dims lists layer widths input-first, e.g. (32, 64, 10). The same
    (dims, seed) pair always reproduces the same parameters.
    """
    dims = tuple(int(v) for v in dims)
    if len(dims) < 2:
        raise DimensionError(f"need at least input and output dims, got {dims}")
    if any(v < 1 for v in dims):
        raise DimensionError(f"all layer widths must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        w = rng.normal(0.0, std, size=(fan_in, fan_out))
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return ModelParams(dims=dims, weights=weights, biases=biases)


def forward_logits(params: ModelParams, x) -> Tensor:
    """Logits for a (n, d) batch; records on the active tape if any."""
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.data.ndim != 2:
        raise DimensionError(f"expected a (n, d) batch, got shape {t.shape}")
    if t.shape[1] != params.dims[0]:
        raise DimensionError(
            f"input width {t.shape[1]} != model input dim {params.dims[0]}"
        )
    h = t
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = add_rowvec(matmul(h, w), b)
        if i != last:
            h = relu(h)
    return h


def logits_array(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Plain-array logits with recording suspended (inference path)."""
    with no_tape():
        return forward_logits(params, np.asarray(x, dtype=np.float64)).data


def predict(params: ModelParams, x) -> int:
    """Predicted label in [1..C] for one sample; ties pick the smallest."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape[0] != 1:
        raise DimensionError("predict takes a single sample; use predict_batch")
    logits = logits_array(params, x)
    return int(np.argmax(logits[0])) + 1


def predict_batch(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Predicted labels in [1..C] for a (n, d) batch, shape (n,) int64."""
    logits = logits_array(params, x)
    return np.argmax(logits, axis=1).astype(np.int64) + 1


def save_checkpoint(
    params: ModelParams, path: str | Path, extra: dict | None = None
) -> None:
    """Write params as an "mlp-checkpoint" container (layout in
    ``lcgclab.fileio``). ``extra`` must be JSON-serializable."""
    arrays = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases), start=1):
        arrays[f"W{i}"], arrays[f"b{i}"] = w.data, b.data
    meta = {"dims": list(params.dims), "extra": extra}
    write_container(path, "mlp-checkpoint", meta, arrays)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict | None]:
    """Inverse of save_checkpoint; returns (params, extra).

    Malformed files, layer widths that disagree with the stored tensors
    and non-finite parameters raise ContractError.
    """
    meta, arrays = read_container(path, "mlp-checkpoint")
    try:
        dims, extra = tuple(int(v) for v in meta["dims"]), meta["extra"]
    except (KeyError, TypeError, ValueError):
        dims, extra = (), None
    shapes = [s for i, o in zip(dims, dims[1:]) for s in ((i, o), (o,))]
    stored = [a.shape for a in arrays.values()]
    if len(dims) < 2 or min(dims) < 1 or stored != shapes:
        raise ContractError(f"{path}: layer widths {dims} do not fit the tensors")
    t = [Tensor(a, requires_grad=True) for a in arrays.values()]
    return ModelParams(dims=dims, weights=t[0::2], biases=t[1::2]), extra
