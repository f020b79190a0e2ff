"""Dense float64 kernels for the network's hot operations.

Each kernel is a thin vectorized numpy expression. They live in one
module so that both gradient paths share a single definition: the
plain-array forward and backwards that every training step runs
(``model.forward_cached`` and the row-block backward in ``model``) and
the path-point layers of the integrated-gradients audit in ``debias``,
and the autodiff tape in ``tensor``, which is only the gradient
reference of criterion 1 and the parity tests. A profiler can wrap them
by name.

All kernels take C-contiguous float64 arrays; callers are responsible
for layout. Results are bit-stable from run to run on a given platform
and BLAS build.

Every kernel but the two softmaxes takes a keyword-only ``out``, the
numpy idiom: given an array of the result's shape, it writes the result
there and returns it, with the same bits as without ``out``. The
elementwise kernels (``add_rowvec``, ``relu``, ``relu_vjp``) may write
into their first operand; a matmul's ``out`` must never be one of its
inputs. ``out`` is keyword-only so that a wrapper that reads the
operands positionally, such as a cost model taking ``(a, b)``, sees the
same arguments either way.
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


def relu_vjp(g, x, *, out=None):
    # Mask as a multiply: cheaper than np.where, and x may be the ReLU's
    # input or its output (both are > 0 at the same entries).
    return np.multiply(g, x > 0.0, out=out)


def log_softmax_rows(z):
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def softmax_rows(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)
