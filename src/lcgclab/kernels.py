"""Dense float64 kernels for the tape's hot operations.

Each kernel is a thin vectorized numpy expression. They live in one
module so the tape, the losses and the debiasing loop share a single
definition, and so a profiler can wrap them by name.

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
    return np.where(x > 0.0, g, 0.0)


def log_softmax_rows(z):
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def softmax_rows(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)
