"""Reverse-mode autodiff over dense float64 arrays with an explicit tape.

Ops record onto the innermost active ``Tape`` only while one exists and
some input requires gradients, so forward evaluation outside a tape (or
under ``no_tape()``) is plain numpy with zero bookkeeping. ``backward``
walks the tape once in reverse and accumulates into the ``grad`` buffer
of every reachable leaf.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels as K
from .errors import ContractError, DimensionError, EvaluationError, LabelError

__all__ = [
    "Tensor",
    "Tape",
    "no_tape",
    "backward",
    "matmul",
    "add",
    "add_rowvec",
    "mul",
    "scale",
    "relu",
    "sum_all",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "finite_diff_grad",
    "zero_grads",
    "flatten_values",
    "flatten_grads",
]


class Tensor:
    """Dense float64 value, optionally tracked for gradients.

    Leaf construction copies to a C-contiguous float64 array and rejects
    non-finite data. ``grad`` stays None until ``backward`` reaches the
    leaf; repeated backward calls accumulate.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        # Always copy: leaves own their storage, so in-place parameter
        # updates never alias arrays held by the caller.
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise EvaluationError("tensor data contains non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: _TapeNode | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data
        t.requires_grad = False
        t.grad = None
        t.node = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _TapeNode:
    __slots__ = ("inputs", "out", "vjp", "tape", "index")


class Tape:
    """Context manager recording op nodes in execution order."""

    def __init__(self):
        self.nodes: list[_TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False


class no_tape:
    """Suspend recording, even inside an enclosing Tape."""

    def __enter__(self) -> None:
        _TAPE_STACK.append(None)

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape | None] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def apply_op(
    data: np.ndarray,
    inputs: tuple[Tensor, ...],
    vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
) -> Tensor:
    """Wrap an op result, recording a tape node when gradients may flow.

    ``vjp`` maps the output adjoint to one adjoint per input (None for
    inputs that need none) and must return freshly allocated arrays.
    This is also the extension point for fused ops defined outside this
    module.
    """
    out = Tensor._from_op(data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        node = _TapeNode()
        node.inputs = inputs
        node.out = out
        node.vjp = vjp
        node.tape = tape
        node.index = len(tape.nodes)
        tape.nodes.append(node)
        out.node = node
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

    The seed is 1.0. Each tape node is visited at most once, in reverse
    recording order; nodes that do not influence the loss are skipped.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.shape}"
        )
    if loss.node is None:
        raise ContractError("loss is not on a tape; no gradients to compute")

    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    tape = loss.node.tape
    for node in reversed(tape.nodes[: loss.node.index + 1]):
        g_out = adjoints.pop(id(node.out), None)
        if g_out is None:
            continue
        for t, g in zip(node.inputs, node.vjp(g_out)):
            if g is None or not t.requires_grad:
                continue
            if t.node is None:
                t.grad = g if t.grad is None else t.grad + g
            elif id(t) in adjoints:
                adjoints[id(t)] = adjoints[id(t)] + g
            else:
                adjoints[id(t)] = g


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def flatten_values(tensors: Sequence[Tensor]) -> np.ndarray:
    return np.concatenate([t.data.reshape(-1) for t in tensors])


def flatten_grads(tensors: Sequence[Tensor]) -> np.ndarray:
    """Concatenate grads in parameter order; None becomes zeros."""
    parts = []
    for t in tensors:
        if t.grad is None:
            parts.append(np.zeros(t.data.size))
        else:
            parts.append(t.grad.reshape(-1))
    return np.concatenate(parts)


# ------------------------------------------------------------------- ops


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _require_2d(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise DimensionError(f"{op} expects a 2-D tensor, got shape {t.shape}")


def matmul(a, b) -> Tensor:
    """Matrix product of two 2-D tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        ga = K.matmul_nt(g, bd) if a.requires_grad else None
        gb = K.matmul_tn(ad, g) if b.requires_grad else None
        return ga, gb

    return apply_op(K.matmul(ad, bd), (a, b), vjp)


def add(a, b) -> Tensor:
    """Elementwise sum of two tensors of identical shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def vjp(g):
        return g, g

    return apply_op(a.data + b.data, (a, b), vjp)


def add_rowvec(a, v) -> Tensor:
    """Add a row vector (shape (n,) or (1, n)) to every row of a (m, n)."""
    a, v = _as_tensor(a), _as_tensor(v)
    _require_2d(a, "add_rowvec")
    vd = v.data
    if vd.ndim == 2 and vd.shape[0] == 1:
        row = vd[0]
    elif vd.ndim == 1:
        row = vd
    else:
        raise DimensionError(f"add_rowvec vector has shape {v.shape}")
    if row.shape[0] != a.shape[1]:
        raise DimensionError(
            f"add_rowvec width mismatch: {a.shape} vs {v.shape}"
        )

    def vjp(g):
        gv = K.sum_rows(g).reshape(vd.shape) if v.requires_grad else None
        return g, gv

    return apply_op(K.add_rowvec(a.data, row), (a, v), vjp)


def mul(a, b) -> Tensor:
    """Elementwise product of two tensors of identical shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return g * bd, g * ad

    return apply_op(ad * bd, (a, b), vjp)


def scale(a, c: float) -> Tensor:
    """Multiply a tensor by a python scalar."""
    a = _as_tensor(a)
    c = float(c)

    def vjp(g):
        return (g * c,)

    return apply_op(a.data * c, (a,), vjp)


def relu(a) -> Tensor:
    """Elementwise max(x, 0) on a 2-D tensor."""
    a = _as_tensor(a)
    _require_2d(a, "relu")
    ad = a.data

    def vjp(g):
        return (K.relu_vjp(g, ad),)

    return apply_op(K.relu(ad), (a,), vjp)


def sum_all(a) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    a = _as_tensor(a)
    shape = a.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return apply_op(np.asarray(a.data.sum()), (a,), vjp)


def _lift_rows(t: Tensor, op: str) -> tuple[np.ndarray, bool]:
    """View a (C,) or (n, C) tensor as rows; reject C < 2."""
    d = t.data
    if d.ndim == 1:
        d2, was_1d = d.reshape(1, -1), True
    elif d.ndim == 2:
        d2, was_1d = d, False
    else:
        raise DimensionError(f"{op} expects 1-D or 2-D input, got {t.shape}")
    if d2.shape[1] < 2:
        raise DimensionError(f"{op} needs at least 2 classes, got {d2.shape[1]}")
    return np.ascontiguousarray(d2), was_1d


def softmax(z) -> Tensor:
    """Row-wise softmax of logits (last axis indexes classes)."""
    z = _as_tensor(z)
    z2, was_1d = _lift_rows(z, "softmax")
    p = K.softmax_rows(z2)

    def vjp(g):
        g2 = g.reshape(p.shape)
        dot = (g2 * p).sum(axis=1, keepdims=True)
        return ((p * (g2 - dot)).reshape(z.shape),)

    return apply_op(p[0] if was_1d else p, (z,), vjp)


def log_softmax(z) -> Tensor:
    """Row-wise log-softmax of logits."""
    z = _as_tensor(z)
    z2, was_1d = _lift_rows(z, "log_softmax")
    lsm = K.log_softmax_rows(z2)
    p = np.exp(lsm)

    def vjp(g):
        g2 = g.reshape(p.shape)
        return ((g2 - p * g2.sum(axis=1, keepdims=True)).reshape(z.shape),)

    return apply_op(lsm[0] if was_1d else lsm, (z,), vjp)


def _target_matrix(target, n: int, C: int) -> np.ndarray:
    """Hard labels in [1..C] or soft rows, as a dense (n, C) float array."""
    arr = np.asarray(target)
    if arr.ndim <= 1 and np.issubdtype(arr.dtype, np.integer):
        labels = np.atleast_1d(arr)
        if labels.shape[0] != n:
            raise DimensionError(
                f"expected {n} labels, got {labels.shape[0]}"
            )
        if labels.min() < 1 or labels.max() > C:
            raise LabelError(
                f"labels must lie in [1..{C}], got range "
                f"[{labels.min()}..{labels.max()}]"
            )
        t = np.zeros((n, C))
        t[np.arange(n), labels - 1] = 1.0
        return t
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.shape != (n, C):
        raise DimensionError(
            f"soft targets must have shape {(n, C)}, got {arr.shape}"
        )
    if arr.min() < 0.0:
        raise LabelError("soft targets must be nonnegative")
    return arr


def cross_entropy(
    pred,
    target,
    *,
    weights: np.ndarray | None = None,
    denom: float | None = None,
) -> Tensor:
    """Cross entropy between logits and targets, reduced to a scalar.

    pred: (n, C) tensor of logits; a single (C,) row is accepted.
    target: hard int labels in [1..C] (shape (n,)) or soft rows (n, C).
    weights: optional per-row factors (a confidence mask, typically).
    denom: reduction denominator; defaults to n (mean over the batch).
    """
    pred = _as_tensor(pred)
    p2, _ = _lift_rows(pred, "cross_entropy")
    n, C = p2.shape
    if n == 0:
        raise ContractError("cross_entropy on an empty batch")
    t = _target_matrix(target, n, C)
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != n:
            raise DimensionError(f"expected {n} weights, got {w.shape[0]}")
    d = float(n if denom is None else denom)
    if d <= 0.0:
        raise ContractError(f"denominator must be positive, got {d}")

    lsm = K.log_softmax_rows(p2)
    loss = -float((w * (t * lsm).sum(axis=1)).sum()) / d
    sm = np.exp(lsm)
    t_mass = t.sum(axis=1, keepdims=True)

    def vjp(g):
        gz = (sm * t_mass - t) * (w[:, None] * (float(g) / d))
        return (gz.reshape(pred.shape),)

    return apply_op(np.asarray(loss), (pred,), vjp)


def finite_diff_grad(
    f: Callable[[], float],
    params: Sequence[Tensor],
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``f`` w.r.t. the given tensors.

    ``f`` takes no arguments and reads the tensors by reference; each
    coordinate is displaced by ±step in place and restored. Returns one
    flat array in the same order as ``flatten_values(params)``.
    """
    if step <= 0.0:
        raise ContractError(f"step must be positive, got {step}")
    out = []
    for t in params:
        flat = t.data.reshape(-1)
        g = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f())
            flat[i] = orig - step
            fm = float(f())
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise EvaluationError(
                    f"non-finite evaluation in finite differences at index {i}"
                )
            g[i] = (fp - fm) / (2.0 * step)
        out.append(g)
    return np.concatenate(out)
