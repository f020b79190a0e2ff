"""One label rule: every entry that takes class labels refuses the same
bad labels with the same error class, the one ``errors.as_labels``
raises."""

from __future__ import annotations

import numpy as np
import pytest

from lcgclab.debias import evaluate, integrated_gradients, make_baseline
from lcgclab.errors import (
    ContractError,
    DimensionError,
    LabelError,
    LcgclabError,
    as_labels,
)
from lcgclab.kernels import log_softmax_rows
from lcgclab.losses import supervised_loss
from lcgclab.metrics import confusion
from lcgclab.tensor import cross_entropy_terms

from conftest import generic_net

C = 3
GOOD = np.array([1, 3, 2, 1])
_NET = generic_net((5, 6, C), seed=29)
_X = np.random.default_rng(29).normal(size=(GOOD.size, 5))

# entry (argument) -> a call of it with labels y, every other argument valid
ENTRIES = {
    "errors.as_labels (y)": lambda y: as_labels(y, "y", GOOD.size, C),
    "tensor.cross_entropy_terms (target)": lambda y: cross_entropy_terms(
        log_softmax_rows(np.zeros((GOOD.size, C))), y
    ),
    "losses.supervised_loss (y)": lambda y: supervised_loss(_NET, _X, y),
    "debias.integrated_gradients (labels)": lambda y: integrated_gradients(
        _NET, _X, make_baseline("black", 5, 1.0), y, 4
    ),
    "metrics.confusion (true)": lambda y: confusion(y, GOOD, C),
    "metrics.confusion (pred)": lambda y: confusion(GOOD, y, C),
    "debias.evaluate (y)": lambda y: evaluate(_NET, _X, y),
}

# bad labels -> the error class every entry raises on them
BAD = {
    "a float array": (np.array([1.7, 2.9, 2.0, 1.0]), LabelError),
    "a bool array": (np.array([True, True, False, True]), LabelError),
    "one label short": (GOOD[:-1], DimensionError),
    "a 0-D value": (np.int64(2), DimensionError),
    "a label 0": (np.array([1, 0, 2, 1]), LabelError),
    "a label C + 1": (np.array([1, 2, C + 1, 1]), LabelError),
    "strings": (np.array(["1", "3", "2", "1"]), ContractError),
    "a ragged list": ([[1, 2], [3], [1], [2]], ContractError),
}


def test_every_entry_takes_good_labels():
    for call in ENTRIES.values():
        call(GOOD)


@pytest.mark.parametrize("bad", list(BAD))
def test_every_entry_refuses_bad_labels_alike(bad):
    """Once supervised_loss trained on [1.7, 2.9] as [1, 2], confusion
    counted [True, True] as class 1, and a count mismatch raised
    DimensionError, LabelError or ContractError by module."""
    labels, error = BAD[bad]
    raised = {}
    for name, call in ENTRIES.items():
        with pytest.raises(LcgclabError) as exc:
            call(labels)
        raised[name] = type(exc.value)
    assert raised == dict.fromkeys(ENTRIES, error)
