"""Exception types shared across the package, and the finite-float
check every config dataclass runs on itself."""

from __future__ import annotations

import math
from dataclasses import fields


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

    Carries the step index (``step``) and ``diagnostics``: a JSON-ready
    dict of the step's losses and gradient norms (non-finite values as
    None) and the names of those that went non-finite.
    """

    def __init__(self, step: int, diagnostics: dict):
        super().__init__(
            f"training diverged at step {step}: non-finite loss or gradient"
        )
        self.step = step
        self.diagnostics = diagnostics


def require_finite_fields(obj) -> None:
    """Raise ContractError if any float field of a dataclass is NaN or
    infinite (range checks alone let NaN through)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ContractError(f"{f.name} must be finite, got {value}")
