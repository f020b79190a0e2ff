"""Reverse-mode autodiff over dense float64 arrays with an explicit tape.

Ops record onto the innermost active ``Tape`` only while one exists and
some input requires gradients, so forward evaluation outside a tape is
plain numpy with zero bookkeeping. ``backward`` walks the tape once in
reverse and accumulates into the ``grad`` buffer of every reachable
leaf.

Training and the integrated-gradients audit do not record on it: they
run ``model.forward_cached`` and hand-written backwards. The tape is the
gradient reference of the parity tests and the audit's tests. The ops
take model parameters, plain arrays, as constants; those tests wrap them
in leaves (``tape_leaves``) to get their gradients. Its loss ops wrap
the step's loss functions (``cross_entropy_terms``, and
``debias.kl_consistency_terms``) on the log-softmax of their logits.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels as K
from .errors import ContractError, DimensionError, EvaluationError, LabelError
from .errors import as_array, as_float, as_instance, as_labels


class Tensor:
    """Dense float64 value, optionally tracked for gradients.

    Leaf construction converts the data with ``errors.as_array``, copies
    it to a C-contiguous array of its own and rejects non-finite data.
    ``grad`` stays None until ``backward`` reaches the leaf; repeated
    backward calls accumulate.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        # Always copy: leaves own their storage, so in-place parameter
        # updates never alias arrays held by the caller.
        arr = np.array(as_array(data, "tensor data"), order="C")
        if not np.all(np.isfinite(arr)):
            raise EvaluationError("tensor data contains non-finite values")
        self.data = arr
        self.requires_grad = bool(
            as_instance(requires_grad, "requires_grad", bool, np.bool_)
        )
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
    __slots__ = ("inputs", "out", "vjp", "tape")


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


_TAPE_STACK: list[Tape] = []


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
    for node in reversed(loss.node.tape.nodes):
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


def flatten_values(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in arrays])


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


def _as_tensor(x, ndim: int | None = None) -> Tensor:
    """x, or a leaf of it; DimensionError unless it has ndim dims, if given."""
    t = x if isinstance(x, Tensor) else Tensor(x)
    if ndim is not None and t.data.ndim != ndim:
        raise DimensionError(f"expected a {ndim}-D tensor, got shape {t.shape}")
    return t


def matmul(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Matrix product of two 2-D tensors."""
    a, b = _as_tensor(a, 2), _as_tensor(b, 2)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        ga = K.matmul_nt(g, bd) if a.requires_grad else None
        gb = K.matmul_tn(ad, g) if b.requires_grad else None
        return ga, gb

    return apply_op(K.matmul(ad, bd), (a, b), vjp)


def add(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Elementwise sum of two tensors of identical shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def vjp(g):
        return g, g

    return apply_op(a.data + b.data, (a, b), vjp)


def add_rowvec(a: Tensor | np.ndarray, v: Tensor | np.ndarray) -> Tensor:
    """Add a row vector (shape (n,) or (1, n)) to every row of a (m, n)."""
    a, v = _as_tensor(a, 2), _as_tensor(v)
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


def mul(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Elementwise product of two tensors of identical shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return g * bd, g * ad

    return apply_op(ad * bd, (a, b), vjp)


def scale(a: Tensor | np.ndarray, c: float) -> Tensor:
    """Multiply a tensor by a finite real scalar."""
    a = _as_tensor(a)
    c = as_float(c, "c")

    def vjp(g):
        return (g * c,)

    return apply_op(a.data * c, (a,), vjp)


def relu(a: Tensor | np.ndarray) -> Tensor:
    """Elementwise max(x, 0) on a 2-D tensor."""
    a = _as_tensor(a, 2)
    ad = a.data

    def vjp(g):
        return (K.relu_vjp(g, ad > 0.0),)

    return apply_op(K.relu(ad), (a,), vjp)


def sum_all(a: Tensor | np.ndarray) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    a = _as_tensor(a)
    shape = a.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return apply_op(np.asarray(a.data.sum()), (a,), vjp)


def _logits(z) -> Tensor:
    """z as a tensor of (n, C) logits; DimensionError unless C >= 2."""
    z = _as_tensor(z, 2)
    if z.shape[1] < 2:
        raise DimensionError(f"logits need at least 2 classes, got {z.shape[1]}")
    return z


def softmax(z: Tensor | np.ndarray) -> Tensor:
    """Row-wise softmax of (n, C) logits."""
    z = _logits(z)
    p = K.softmax_rows(z.data)

    def vjp(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return apply_op(p, (z,), vjp)


def log_softmax(z: Tensor | np.ndarray) -> Tensor:
    """Row-wise log-softmax of (n, C) logits."""
    z = _logits(z)
    lsm = K.log_softmax_rows(z.data)
    p = np.exp(lsm)

    def vjp(g):
        return (g - p * g.sum(axis=1, keepdims=True),)

    return apply_op(lsm, (z,), vjp)


def _targets(target, n: int, C: int) -> np.ndarray:
    """Soft (n, C) rows, or hard labels (anything not 2-D, which
    ``errors.as_labels`` checks) as one-hot rows, as an (n, C) array."""
    arr = as_array(target, "target")
    if arr.ndim != 2:
        t = np.zeros((n, C))
        t[np.arange(n), as_labels(target, "target", n, C) - 1] = 1.0
        return t
    if arr.shape != (n, C):
        raise DimensionError(
            f"soft targets must have shape {(n, C)}, got {arr.shape}"
        )
    if arr.min() < 0.0:
        raise LabelError("soft targets must be nonnegative")
    return arr


def cross_entropy(
    pred: Tensor | np.ndarray, target: np.ndarray, *, weights: np.ndarray | None = None
) -> Tensor:
    """Cross entropy between logits and targets, averaged over all n rows.

    pred: (n, C) tensor of logits, C >= 2.
    target: soft rows (n, C), or n hard int labels in [1..C] (``errors.as_labels``).
    weights: optional per-row factors (a confidence mask, typically);
    a row weighted 0 still counts in the mean's n.
    """
    pred = _logits(pred)
    lsm = K.log_softmax_rows(pred.data)
    loss, adj = cross_entropy_terms(lsm, target, weights=weights)
    return apply_op(np.asarray(loss), (pred,), lambda g: (adj * float(g),))


def cross_entropy_terms(
    lsm: np.ndarray,
    target: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    scale: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Value of ``cross_entropy`` from the (n, C) log-probabilities of
    its logits, and the (n, C) logit adjoint of ``scale`` times it.
    Targets, weights and checks are those of ``cross_entropy``: a target
    that is not 2-D is labels, which ``errors.as_labels`` checks.

    Hard labels enter as one-hot rows, so both kinds of target share one
    formula. The loss is not finite whenever the log-probabilities are
    not all finite, a zero-weighted row's included: 0 * -inf is NaN.
    """
    lsm = np.ascontiguousarray(as_array(lsm, "lsm", 2))
    n, C = lsm.shape
    if C < 2:
        raise DimensionError(f"cross_entropy needs at least 2 classes, got {C}")
    if n == 0:
        raise ContractError("cross_entropy on an empty batch")
    t = _targets(target, n, C)
    if weights is None:
        w = np.ones(n)
    else:
        w = as_array(weights, "weights").reshape(-1)
        if w.shape[0] != n:
            raise DimensionError(f"expected {n} weights, got {w.shape[0]}")

    # np.add.reduce is what ndarray.sum runs, without its wrapper.
    loss = -float(np.add.reduce(w * np.add.reduce(t * lsm, axis=1))) / n
    t_mass = np.add.reduce(t, axis=1, keepdims=True)
    s = as_float(scale, "scale") / n
    return loss, (np.exp(lsm) * t_mass - t) * (w[:, None] * s)
