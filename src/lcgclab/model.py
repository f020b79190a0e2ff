"""Fully connected ReLU classifier over the tape, plus checkpointing."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError
from .fileio import atomic_write_bytes
from .tensor import Tensor, add_rowvec, matmul, no_tape, relu

_MAGIC = b"LCGC"
_CKPT_VERSION = 1


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
    """Binary checkpoint: manifest JSON plus f64 parameter payload.

    Layout: magic | u16 version | u32 manifest_len | manifest utf-8 |
    f64 little-endian tensors in ``tensors()`` order. ``extra`` must be
    JSON-serializable; it rides along in the manifest.
    """
    manifest = json.dumps(
        {"kind": "mlp-checkpoint", "dims": list(params.dims), "extra": extra},
        sort_keys=True,
    ).encode("utf-8")
    blob = [
        _MAGIC,
        struct.pack("<H", _CKPT_VERSION),
        struct.pack("<I", len(manifest)),
        manifest,
    ]
    for t in params.tensors():
        blob.append(t.data.astype("<f8").tobytes())
    atomic_write_bytes(path, b"".join(blob))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict | None]:
    """Inverse of save_checkpoint; returns (params, extra).

    Malformed or truncated files and non-finite parameters raise
    ContractError.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ContractError(f"{path}: not a checkpoint (bad magic)")
    if len(raw) < 10:
        raise ContractError(f"{path}: truncated checkpoint (header)")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != _CKPT_VERSION:
        raise ContractError(f"{path}: unsupported checkpoint version {version}")
    (mlen,) = struct.unpack_from("<I", raw, 6)
    if len(raw) < 10 + mlen:
        raise ContractError(f"{path}: truncated checkpoint (manifest)")
    try:
        manifest = json.loads(raw[10 : 10 + mlen].decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError, JSONDecodeError
        raise ContractError(f"{path}: unreadable checkpoint manifest ({e})") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != "mlp-checkpoint":
        raise ContractError(f"{path}: wrong container kind")
    try:
        dims = tuple(int(v) for v in manifest["dims"])
    except (KeyError, TypeError, ValueError):
        dims = ()
    if len(dims) < 2 or min(dims) < 1:
        raise ContractError(f"{path}: bad layer widths in manifest")
    off = 10 + mlen
    payload = 8 * sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
    if len(raw) < off + payload:
        raise ContractError(f"{path}: truncated checkpoint (payload)")
    if len(raw) > off + payload:
        raise ContractError(f"{path}: trailing bytes in checkpoint")
    if not np.isfinite(np.frombuffer(raw, dtype="<f8", offset=off)).all():
        raise ContractError(f"{path}: non-finite parameter in checkpoint")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(raw, dtype="<f8", count=fan_in * fan_out, offset=off)
        off += 8 * fan_in * fan_out
        b = np.frombuffer(raw, dtype="<f8", count=fan_out, offset=off)
        off += 8 * fan_out
        weights.append(
            Tensor(w.astype(np.float64).reshape(fan_in, fan_out), True)
        )
        biases.append(Tensor(b.astype(np.float64), True))
    return ModelParams(dims=dims, weights=weights, biases=biases), manifest.get(
        "extra"
    )
