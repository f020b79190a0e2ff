"""Shared test plumbing: the acceptance-criteria report, nets at a
generic point and the relative error of gradient checks, and autodiff
leaves for the tape's gradient references.

Acceptance tests record one line per criterion; the lines are printed
in a dedicated section after the run so pass/fail status is visible
even though pytest captures stdout of passing tests.
"""

from __future__ import annotations

import numpy as np

from lcgclab.model import ModelParams
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
