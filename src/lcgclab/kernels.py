"""Dense float64 kernels for the network's hot operations.

Each kernel is a thin vectorized numpy expression. They live in one
module so that both gradient paths share a single definition: the
plain-array forward and backwards that every training step and the
integrated-gradients audit run (``model.forward_cached``, the row-block
backward in ``model`` and the input backward in ``debias``), and the
autodiff tape in ``tensor``, which is only the gradient reference of
criterion 1 and the parity tests. A profiler can wrap them by name.

All kernels take C-contiguous float64 arrays; callers are responsible
for layout. Results are bit-stable from run to run on a given platform
and BLAS build.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded for provenance."""
    return "numpy"


def matmul(a, b):
    return a @ b


def matmul_tn(a, g):
    return a.T @ g


def matmul_nt(g, b):
    return g @ b.T


def add_rowvec(a, v):
    return a + v


def sum_rows(g):
    return g.sum(axis=0)


def relu(x):
    return np.maximum(x, 0.0)


def relu_vjp(g, x):
    # Mask as a multiply: cheaper than np.where, and x may be the ReLU's
    # input or its output (both are > 0 at the same entries).
    return g * (x > 0.0)


def log_softmax_rows(z):
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def softmax_rows(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)
