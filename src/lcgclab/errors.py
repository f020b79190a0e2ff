"""Exception types shared across the package."""

from __future__ import annotations


class DimensionError(ValueError):
    """Array shapes or dimensions violate an operation's contract."""


class LabelError(ValueError):
    """A class label lies outside the valid range [1..C]."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class EvaluationError(RuntimeError):
    """A numeric evaluation produced non-finite values."""


class SamplingError(ValueError):
    """A minibatch request cannot be satisfied by the dataset."""


class InfeasibleSpecError(ValueError):
    """A dataset specification admits no valid realization."""


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


class TrainingDiverged(RuntimeError):
    """Training produced non-finite losses or parameters.

    Carries the step index (``step``) and a description of what went
    non-finite (``detail``); the step's losses and gradients are not
    attached.
    """

    def __init__(self, step: int, detail: str):
        super().__init__(f"training diverged at step {step}: {detail}")
        self.step = step
        self.detail = detail
