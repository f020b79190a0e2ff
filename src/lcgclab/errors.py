"""The package's exception types, all under ``LcgclabError``, and the
input contract of its public entries: the converters ``as_array``,
``as_labels``, ``as_int``, ``as_float``, ``as_choice``, ``as_instance``
and ``as_path`` return an argument as the value the code computes with
or raise, and ``check_fields`` checks a settings dataclass's fields
against the rules each field declares. A valid argument
costs about what its bare conversion costs: no copy, and no pass over
an array but the range check of labels.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np


class LcgclabError(Exception):
    """Base of every error the package raises; each subclass also keeps
    its ``ValueError`` or ``RuntimeError`` base."""


class DimensionError(LcgclabError, ValueError):
    """Array shapes or dimensions violate an operation's contract."""


class LabelError(LcgclabError, ValueError):
    """Class labels are not integers, or one lies outside [1..C]."""


class ContractError(LcgclabError, ValueError):
    """A documented precondition was violated by the caller."""


class EvaluationError(LcgclabError, RuntimeError):
    """A numeric evaluation produced non-finite values."""


class InfeasibleSpecError(LcgclabError, ValueError):
    """A dataset specification admits no valid realization."""


class ConfigError(LcgclabError, ValueError):
    """A config failed to parse or validate, or a file named in the
    message cannot be read or written (see ``fileio``)."""


class TrainingDiverged(LcgclabError, RuntimeError):
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


_F64 = np.dtype(np.float64)
_REALS = (int, float, np.integer, np.floating)
_MAX = float(np.finfo(np.float64).max)


def _numbers(x, name: str) -> np.ndarray:
    """``np.asarray(x)``; ContractError unless it holds bools, ints or floats:
    strings (which numpy would parse), ragged sequences and objects do not."""
    try:
        a = np.asarray(x)
    except ValueError as e:  # a ragged sequence
        raise ContractError(f"{name} must be an array of numbers ({e})") from None
    if a.dtype.kind not in "biuf":
        raise ContractError(f"{name} must hold numbers, got dtype {a.dtype}")
    return a


def as_array(x, name: str, ndim: int | None = None) -> np.ndarray:
    """x as a float64 array, through ``np.asarray``: a float64 array comes
    back as it is. ContractError unless x holds numbers (``_numbers``);
    DimensionError unless it has ``ndim`` dims, when given."""
    if type(x) is not np.ndarray or x.dtype is not _F64:
        x = np.asarray(_numbers(x, name), dtype=np.float64)
    if ndim is not None and x.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {x.shape}")
    return x


def as_labels(y, name: str, n: int | None, classes: int) -> np.ndarray:
    """y as it is if it is an integer array of shape (n,) (any length if n
    is None) in [1..classes]; else ContractError unless it holds numbers,
    DimensionError on another shape, LabelError on another dtype (bool
    and float included) or a label out of range."""
    y = _numbers(y, name)
    if y.ndim != 1 or n is not None and y.shape[0] != n:
        count = "1-D" if n is None else n
        raise DimensionError(f"expected {count} labels in {name}, got shape {y.shape}")
    if y.dtype.kind not in "iu":
        raise LabelError(f"{name} must hold integer labels, got dtype {y.dtype}")
    lo, hi = (np.minimum.reduce(y), np.maximum.reduce(y)) if y.size else (1, 1)
    if lo < 1 or hi > classes:
        raise LabelError(f"{name} labels must lie in [1..{classes}], got [{lo}..{hi}]")
    return y


def as_int(v, name: str, lo: int | None = None) -> int:
    """v as a Python int; ContractError unless it is a Python or numpy
    integer (a bool or a float is none), at least ``lo`` when given."""
    if (type(v) is int or isinstance(v, np.integer)) and (lo is None or v >= lo):
        return int(v)
    at_least = "" if lo is None else f" >= {lo}"
    raise ContractError(f"{name} must be an integer{at_least}, got {v!r}")


def as_float(v, name: str, *, ge=-math.inf, gt=None, le=math.inf, lt=None) -> float:
    """v as a Python float; ContractError unless it is a finite real (a
    bool is none) with ge <= v <= le, gt < v and v < lt, for each bound
    given. abs(v) <= _MAX tests finiteness where float(v) would overflow
    on a large int."""
    if isinstance(v, np.floating):  # a float32 compared with _MAX overflows
        v = float(v)
    real = type(v) is float or isinstance(v, _REALS) and type(v) is not bool
    if real and abs(v) <= _MAX and ge <= v <= le and (gt is None or v > gt) and (
        lt is None or v < lt
    ):
        return float(v)
    bounds = ((">=", ge), (">", gt), ("<=", le), ("<", lt))
    must = [f" {op} {b}" for op, b in bounds if b is not None and abs(b) < math.inf]
    raise ContractError(f"{name} must be a finite number{' and'.join(must)}, got {v!r}")


def as_choice(v, name: str, choices: tuple[str, ...]) -> str:
    """v as it is; ContractError unless it is a str among ``choices``."""
    if isinstance(v, str) and v in choices:
        return v
    raise ContractError(f"{name} must be one of {', '.join(choices)}, got {v!r}")


def as_instance(v, name: str, *types: type):
    """v as it is; ContractError unless it is an instance of ``types``."""
    if isinstance(v, types):
        return v
    kinds = " or ".join(t.__name__ for t in types)
    raise ContractError(f"{name} must be a {kinds}, got {v!r}")


def as_path(p, name: str) -> Path:
    """p as a ``Path``; ContractError unless it is a str or path-like."""
    return Path(as_instance(p, name, str, os.PathLike))


# What check_fields checks a field of each annotation with; a field's
# metadata holds the keyword arguments its converter takes.
_FIELD_CHECKS = {
    "int": as_int,
    "float": as_float,
    "bool": lambda v, name: bool(as_instance(v, name, bool, np.bool_)),
    "str": lambda v, name, choices=None: (
        as_instance(v, name, str) if choices is None else as_choice(v, name, choices)
    ),
    "tuple[int, ...]": lambda v, name, lo=None: tuple(
        as_int(item, name, lo) for item in as_instance(v, name, tuple)
    ),
}


def check_fields(obj) -> None:
    """Check each field of the dataclass ``obj`` in declaration order, and
    store each converter's return in its field (a Python scalar for a
    numpy one). An int, float, bool, str or tuple[int, ...] field goes
    through its converter with the field's metadata as keywords: ``lo``
    for an int or each item of an int tuple (``as_int``), ``ge``, ``gt``,
    ``le`` and ``lt`` for a float (``as_float``, which takes an int too),
    ``choices`` for a str (``as_choice``). A field a class makes the
    default of must hold an instance of it. ContractError on the first
    field that breaks its rule; annotations are ``from __future__``
    strings."""
    for f in fields(obj):
        if f.type in _FIELD_CHECKS:
            value = _FIELD_CHECKS[f.type](getattr(obj, f.name), f.name, **f.metadata)
            object.__setattr__(obj, f.name, value)
        elif isinstance(f.default_factory, type):
            as_instance(getattr(obj, f.name), f.name, f.default_factory)
