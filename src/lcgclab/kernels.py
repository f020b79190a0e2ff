"""Dense float64 kernels for the network's hot operations.

Each kernel is a thin vectorized numpy expression. They live in one
module so that both gradient paths share a single definition: the
plain-array forward and backwards that every training step runs
(``model.forward_cached`` and the row-block backward in ``model``) and
the layers of the integrated-gradients audit in ``debias`` (the
path-point blocks of a net with middle hidden layers), and the autodiff
tape in ``lcgclab.tensor`` (whose losses run ``log_softmax_rows`` and
the step's loss functions), which is only the gradient reference of the
parity tests and the audit's tests. A profiler can wrap them by name.

All kernels take C-contiguous float64 arrays; callers are responsible
for layout. Results are bit-stable from run to run on a given platform
and BLAS build.

Every kernel but ``row_max`` and the two softmaxes takes a keyword-only
``out``, the numpy idiom: given an array of the result's shape, it
writes the result there and returns it, with the same bits as without
``out``. The elementwise kernels (``add_rowvec``, ``relu``,
``relu_vjp``) may write into their first operand; a matmul's ``out``
must never be one of its inputs. ``out`` is keyword-only so that a
wrapper that reads the operands positionally, such as a cost model
taking ``(a, b)``, sees the same arguments either way.

``relu_vjp(g, mask)`` multiplies the adjoint ``g`` by a boolean mask
its caller takes, ``x > 0.0`` of the ReLU's input or of its output
(both are positive at the same entries), so the caller may overwrite
``x`` once it holds the mask. The training backward does: its
``matmul_nt`` writes a hidden layer's adjoint over that layer's
activation rows, which the ``matmul_tn`` one call earlier read, and
``relu_vjp`` masks it there in place.

``log_softmax_rows`` takes a keyword-only ``probs`` instead: given an
array of ``z``'s shape, it also writes the row softmax there, from the
exponentials and row sums the log-softmax computes anyway. That is the
one softmax formula: ``softmax_rows(z)`` is this ``probs`` of a fresh
array. Both work row by row, so one call on a stack of row blocks gives
each block the bits of a call on that block alone.

``row_max``, which the log-softmax uses, reduces along axis 0 of a
C-contiguous copy of ``z.T``: on a short, wide-batch array such as
(128, 10) that runs about twice as fast as the reduction along axis 1.
A max does not depend on the order it visits its operands, so the
values are the same; only a tie of +0.0 and -0.0 may pick the other
zero, which flips the sign of a zero in ``z - max`` and nothing after
it (that row's sum of exponentials is at least 2). The row sums stay a
reduction along axis 1, because their bits depend on numpy's pairwise
summation order.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded for provenance."""
    return "numpy"


def matmul(a, b, *, out=None):
    return np.matmul(a, b, out=out)


def matmul_tn(a, g, *, out=None):
    return np.matmul(a.T, g, out=out)


def matmul_nt(g, b, *, out=None):
    return np.matmul(g, b.T, out=out)


def add_rowvec(a, v, *, out=None):
    return np.add(a, v, out=out)


def sum_rows(g, *, out=None):
    # The ufunc reduce that g.sum(axis=0) runs, without np.sum's wrapper.
    return np.add.reduce(g, axis=0, out=out)


def relu(x, *, out=None):
    return np.maximum(x, 0.0, out=out)


def relu_vjp(g, mask, *, out=None):
    # Mask as a multiply: cheaper than np.where. The caller takes the
    # mask (see the module docstring).
    return np.multiply(g, mask, out=out)


def row_max(z):
    # (n,) row maxima of a (n, C) array, along axis 0 of a C-contiguous
    # transpose (see the module docstring).
    return np.maximum.reduce(np.ascontiguousarray(z.T), axis=0)


def log_softmax_rows(z, *, probs=None):
    m = row_max(z)
    shifted = np.subtract(z, m[:, None])
    e = np.exp(shifted, out=probs)
    s = np.add.reduce(e, axis=1, keepdims=True)
    if probs is not None:
        np.divide(probs, s, out=probs)
    return np.subtract(shifted, np.log(s, out=s), out=shifted)


def softmax_rows(z):
    probs = np.empty(z.shape)
    log_softmax_rows(z, probs=probs)
    return probs
