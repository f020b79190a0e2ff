"""Shared test plumbing: the acceptance-criteria report, nets at a
generic point and the relative error of gradient checks, autodiff
leaves for the tape's gradient references, and the gradient oracles:
the central-difference ``finite_diff_grad`` and the step's two
gradients of one batch alone, ``grad_b`` and ``grad_d``.

Acceptance tests record one line per criterion; the lines are printed
in a dedicated section after the run so pass/fail status is visible
even though pytest captures stdout of passing tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from lcgclab.data import AugmentConfig
from lcgclab.debias import GradientVector, _grad_b_with_loss, _kl_grad
from lcgclab.errors import EvaluationError, as_array, as_float
from lcgclab.losses import PseudoLabelBatch
from lcgclab.model import ModelParams, StepBuffers, as_input
from lcgclab.tensor import Tensor

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(
    number: int, passed: bool, detail: str, seconds: float
) -> None:
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = (
        f"[criterion {number}] {status} — {detail} ({seconds:.1f}s)"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


def generic_net(dims, seed, wscale=0.5, bscale=0.3) -> ModelParams:
    """Random weights and random NONZERO biases.

    Fresh nets have zero biases, which puts the refinement KL exactly at
    its minimum for a zero-response probe such as black (its true
    gradient is zero there), so finite differences return pure noise;
    derivative checks need a generic point in parameter space.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(scale=wscale, size=(fan_in, fan_out)))
        biases.append(rng.normal(scale=bscale, size=fan_out))
    return ModelParams(dims=tuple(dims), weights=weights, biases=biases)


def relative_error(g: np.ndarray, fd: np.ndarray) -> float:
    """Largest elementwise |g - fd|, relative to the larger magnitude of
    the two and floored at 1e-4."""
    floor = np.full_like(g, 1e-4)
    denom = np.maximum.reduce([np.abs(g), np.abs(fd), floor])
    return float(np.max(np.abs(g - fd) / denom))


def tape_leaves(params: ModelParams) -> ModelParams:
    """``params`` with every array copied into a fresh leaf that requires
    gradients, so the tape's ``backward`` fills each leaf's ``grad``."""
    leaves = [Tensor(a, requires_grad=True) for a in params.tensors()]
    return ModelParams(params.dims, leaves[0::2], leaves[1::2])


def finite_diff_grad(
    f: Callable[[], float],
    params: Sequence[np.ndarray],
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``f`` w.r.t. the given arrays.

    ``f`` takes no arguments and reads the arrays (model parameters, a
    leaf's ``data``, or views of them) by reference; each coordinate is
    displaced by ±step in place, through its index, and restored.
    Returns one flat array in the same order as
    ``flatten_values(params)``.
    """
    step = as_float(step, "step", gt=0.0)
    out = []
    for t in params:
        g = np.empty(t.size)
        for k, i in enumerate(np.ndindex(t.shape)):
            orig = t[i]
            t[i] = orig + step
            fp = float(f())
            t[i] = orig - step
            fm = float(f())
            t[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise EvaluationError(
                    f"non-finite evaluation in finite differences at index {i}"
                )
            g[k] = (fp - fm) / (2.0 * step)
        out.append(g)
    return np.concatenate(out)


def grad_b(
    params: ModelParams,
    x_unlabeled: np.ndarray,
    pseudo: PseudoLabelBatch,
    aug: AugmentConfig,
    rng: np.random.Generator,
    weight: float = 1.0,
) -> GradientVector:
    """Parameter gradient of the (weighted) consistency loss."""
    x_unlabeled = as_array(x_unlabeled, "x_unlabeled", 2)
    bufs = StepBuffers(params, x_unlabeled.shape[0])
    return _grad_b_with_loss(params, x_unlabeled, pseudo, aug, rng, weight, bufs)[0]


def grad_d(
    params: ModelParams, x_weak: np.ndarray, baseline: np.ndarray
) -> GradientVector:
    """Parameter gradient of the raw-vs-refined KL on weak views.

    This is the direction along which the model's class-imbalance bias
    grows; the loss it differentiates is the one whose trajectory the
    step records expose.
    """
    x_weak = as_input(params, x_weak, "x_weak", 2)
    n = x_weak.shape[0]
    bufs = StepBuffers(params, n, probe=baseline)
    bufs.stacked[:n] = x_weak
    return _kl_grad(params, bufs.stacked, n, bufs)[0]
