"""Shared test plumbing: the acceptance-criteria report, and autodiff
leaves for the tape's gradient references.

Acceptance tests record one line per criterion; the lines are printed
in a dedicated section after the run so pass/fail status is visible
even though pytest captures stdout of passing tests.
"""

from __future__ import annotations

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


def tape_leaves(params: ModelParams) -> ModelParams:
    """``params`` with every array copied into a fresh leaf that requires
    gradients, so the tape's ``backward`` fills each leaf's ``grad``."""
    leaves = [Tensor(a, requires_grad=True) for a in params.tensors()]
    return ModelParams(params.dims, leaves[0::2], leaves[1::2])
