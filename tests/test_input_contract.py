"""Every public entry of the package raises only the package's errors on
bad arguments.

The public callables are listed with ``inspect``: each function and
class that a module of the package defines, whose name has no leading
underscore. Each one is called with valid arguments (``_VALID``, or
fixtures by annotation for one that is not listed there), and then,
for each parameter annotated as an int, a float, a bool, a str, a path
(``str | Path``), an array or a tuple of ints, floats or strs, and for
each record parameter in ``RECORDS``, once with every bad value of that
kind in ``BAD``, the other arguments valid. A path's bad values are a
str's and two the operating system refuses as a file: an existing
directory and a path under a regular file. Whatever
escapes must be an ``LcgclabError``. Returning is fine: an exception
or a record not in ``CHECKED_RECORDS`` takes any value, and an output
directory may exist. The records in ``CHECKED_RECORDS`` must raise, not
return, on every bad value of an array or int-tuple field: they check
their own arrays where they are made.

Exempt are ``lcgclab.kernels``, whose documented contract leaves layout
and checks to its callers, and the callables in ``EXEMPT_CALLABLES`` and
the parameters in ``EXEMPT_PARAMS``, each with its reason.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import warnings

import numpy as np
import pytest

import lcgclab
from lcgclab.config import ExperimentConfig
from lcgclab.data import AugmentConfig, LongTailSpec, save_dataset, synthesize
from lcgclab.debias import GradientVector, TrainSettings, TrainState
from lcgclab.errors import LcgclabError
from lcgclab.kernels import log_softmax_rows, softmax_rows
from lcgclab.losses import pseudo_label
from lcgclab.model import save_checkpoint
from lcgclab.tensor import Tape, Tensor, sum_all

from conftest import generic_net

EXEMPT_MODULES = {"lcgclab.kernels": "layout and checks are its callers' (documented)"}
EXEMPT_CALLABLES = {
    "cli.main": "its argv goes to argparse, which exits on bad flags",
    "model.backward_rows": "like the kernels, it writes into the caller's buffers, "
    "consumes the hidden activations of its rows and checks nothing (documented); "
    "the training step is its caller",
}
EXEMPT_PARAMS = {
    "errors.as_array.ndim": "a rank the package's own code passes as a literal",
    "errors.as_choice.choices": "a tuple of names the package's own code passes "
    "as a constant",
    "errors.as_int.lo": "a bound the package's own code passes as a literal",
    "errors.as_labels.n": "a count the package's own code takes from a shape",
    "errors.as_labels.classes": "a class count the package's own code takes from "
    "a shape or has checked with as_int",
    "model.as_input.ndim": "a rank the package's own code passes as a literal",
}

_RNG = np.random.default_rng(26)
_COMMON = {
    "a string": "x",
    "a ragged list": [[1.0, 2.0], [3.0]],
    "None": None,
    "a bool": True,
    "a 0-D array": np.array(0.5),
    "a 3-D array": _RNG.normal(size=(2, 3, 4)),
}


def _without(*names):
    return {k: v for k, v in _COMMON.items() if k not in names}


# Bad values by parameter kind.
BAD = {
    "int": {**_COMMON, "2.5": 2.5},
    "float": {**_COMMON, "NaN": np.nan, "inf": np.inf, "-inf": -np.inf},
    "bool": {**_without("a bool"), "2.5": 2.5},
    "str": {**_without("a string"), "2.5": 2.5},
    # Relative to the working directory, where the tmp fixture makes them.
    "path": {**_without("a string"), "2.5": 2.5, "a directory": "a-dir",
             "a path under a file": "a-file/x"},
    "array": {**_COMMON, "numeric strings": np.full((2, 4), "1.5")},
    "ints": {**_COMMON, "2.5": 2.5, "(4, 2.5, 3)": (4, 2.5, 3),
             "(4, True, 3)": (4, True, 3), "('4', '3')": ("4", "3")},
    "floats": {**_COMMON, "(0.5, nan)": (0.5, np.nan), "('0.5',)": ("0.5",)},
    "strs": {**_COMMON, "(1, 2)": (1, 2)},
    "record": {"5": 5},
}

# The record parameters of the run entries, each checked with as_instance.
RECORDS = {
    "data.synthesize.spec",
    "debias.run_training.ds",
    "debias.run_training.settings",
    "debias.evaluate.params",
    "runner.run.config",
}

# Annotation (with any "| None" dropped) -> kind.
_KINDS = {
    "int": "int",
    "float": "float",
    "bool": "bool",
    "str": "str",
    "str | Path": "path",
    "np.ndarray": "array",
    "Tensor | np.ndarray": "array",
    "tuple[int, ...]": "ints",
    "tuple[float, ...]": "floats",
    "tuple[str, ...]": "strs",
}


def _kind(annotation) -> tuple[str | None, bool]:
    """(kind or None, whether None is allowed) of an annotation string."""
    if not isinstance(annotation, str):
        return None, False
    parts = [p.strip() for p in annotation.split("|")]
    return _KINDS.get(" | ".join(p for p in parts if p != "None")), "None" in parts


def _public_callables() -> dict[str, object]:
    out = {}
    for info in pkgutil.iter_modules(lcgclab.__path__):
        name = f"lcgclab.{info.name}"
        if name in EXEMPT_MODULES:
            continue
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            key = f"{info.name}.{attr}"
            if (
                not attr.startswith("_")
                and callable(obj)
                and getattr(obj, "__module__", None) == name
                and key not in EXEMPT_CALLABLES
            ):
                out[key] = obj
    return out


CALLABLES = _public_callables()


def _parameters(obj) -> list[inspect.Parameter]:
    try:
        return list(inspect.signature(obj).parameters.values())
    except ValueError:  # an exception class takes *args only
        return []


SPEC = LongTailSpec(classes=3, dim=4, n_max_labeled=20, n_max_unlabeled=30,
                    gamma_labeled=2.0, gamma_unlabeled=2.0, test_per_class=5)
DS = synthesize(SPEC)
SETTINGS = TrainSettings(steps=2, batch_size=4)
_U3 = np.full(3, 1.0 / 3.0)


def _net():
    return generic_net((4, 6, 3), seed=5)


def _rng():
    return np.random.default_rng(0)


def _probs(n=5):
    return softmax_rows(np.random.default_rng(1).normal(size=(n, 3)))


def _pseudo():
    return pseudo_label(_probs(), 0.0)


def _state():
    return TrainState(rng=_rng(), baseline=np.zeros(4), target_dist=_U3,
                      ema_avg=_U3.copy())


def _config(tmp):
    return ExperimentConfig(spec=SPEC, hidden=(6,), seeds=(1,), steps=2,
                            batch_size=4, output_dir=str(tmp / "runs"))


def _loss():
    a = Tensor(np.ones(2), requires_grad=True)
    with Tape():
        return sum_all(a)


def _file(tmp, name, save):
    path = tmp / name
    if not path.exists():
        save(path)
    return path


def _ds_file(tmp):
    return _file(tmp, "saved-ds.bin", lambda p: save_dataset(DS, p))


def _lsm():
    return log_softmax_rows(np.random.default_rng(2).normal(size=(3, 3)))


def _report_arrays():
    return dict(ig_sums=np.zeros(2), logit_gaps=np.zeros(2), residuals=np.zeros(2))


# "module.name" -> tmp directory -> valid arguments by name.
_VALID = {
    "config.ExperimentConfig": lambda t: {},
    "config.parse_config_text": lambda t: dict(text="train.steps = 2\n"),
    "config.parse_config": lambda t: dict(
        path=_file(t, "c.cfg", lambda p: p.write_text("train.steps = 2\n"))
    ),
    "config.default_config": lambda t: {},
    "config.comma_list": lambda t: dict(text="1, 2", item=int),
    "data.LongTailSpec": lambda t: {},
    "data.longtail_counts": lambda t: dict(classes=3, n_max=20, gamma=2.0),
    "data.AugmentConfig": lambda t: {},
    "data.SynthDataset": lambda t: dict(vars(DS)),
    "data.synthesize": lambda t: dict(spec=SPEC),
    "data.weak_aug": lambda t: dict(x=np.ones((5, 4)), cfg=AugmentConfig(), rng=_rng()),
    "data.strong_aug": lambda t: dict(x=np.ones((5, 4)), cfg=AugmentConfig(), rng=_rng()),
    "data.sample_minibatch": lambda t: dict(ds=DS, batch_size=4, mu=2, rng=_rng()),
    "data.save_dataset": lambda t: dict(ds=DS, path=t / "ds.bin"),
    "data.load_dataset": lambda t: dict(path=_ds_file(t)),
    "data.export_csv": lambda t: dict(ds=DS, path=t / "ds.csv"),
    "debias.make_baseline": lambda t: dict(name="gray", dim=4, scale=1.0),
    "debias.baseline_logits": lambda t: dict(params=_net(), baseline=np.zeros(4)),
    "debias.kl_consistency_loss": lambda t: dict(
        logits=np.ones((3, 3)), refined=np.zeros((3, 3))
    ),
    "debias.kl_consistency_terms": lambda t: dict(lp=_lsm(), lq=_lsm()),
    "debias.GradientVector": lambda t: dict(values=np.ones(3)),
    "debias.lcgc_combine": lambda t: dict(
        g_b=GradientVector(np.ones(3)), g_d=GradientVector(-np.ones(3)), lam=1.0
    ),
    "debias.RunSettings": lambda t: {},
    "debias.TrainSettings": lambda t: {},
    "debias.TrainState": lambda t: dict(
        rng=_rng(), baseline=np.zeros(4), target_dist=_U3, ema_avg=_U3
    ),
    "debias.StepRecord": lambda t: dict(step=0, loss_sup=0.0, loss_con=0.0,
                                        loss_kl=0.0, conflict=False,
                                        cos_angle=0.0, mask_rate=1.0),
    "debias.RunRecord": lambda t: dict(seed=1, steps=[], final_bacc=None,
                                       final_gm=None, confusion=None),
    "debias.train_step": lambda t: dict(params=_net(), ds=DS, settings=SETTINGS,
                                        state=_state()),
    "debias.EvalReport": lambda t: dict(bacc=0.5, gm=0.5, confusion=np.eye(3)),
    "debias.evaluate": lambda t: dict(params=_net(), x=DS.test_x, y=DS.test_y,
                                      baseline=np.zeros(4), double_subtract=True),
    "debias.run_training": lambda t: dict(ds=DS, hidden=(6,), settings=SETTINGS,
                                          seed=1),
    "debias.integrated_gradients": lambda t: dict(
        params=_net(), x=np.ones((2, 4)), baseline=np.zeros(4),
        labels=np.array([1, 2]), steps=4,
    ),
    "debias.TheoremReport": lambda t: dict(**_report_arrays(), max_residual=0.0,
                                           tol=1e-3, passed=True),
    "debias.verify_theorem1": lambda t: dict(params=_net(), x=np.ones((2, 4)),
                                             baseline=np.zeros(4), steps=4),
    "errors.LcgclabError": lambda t: {},
    "errors.DimensionError": lambda t: {},
    "errors.LabelError": lambda t: {},
    "errors.ContractError": lambda t: {},
    "errors.EvaluationError": lambda t: {},
    "errors.InfeasibleSpecError": lambda t: {},
    "errors.ConfigError": lambda t: {},
    "errors.TrainingDiverged": lambda t: dict(step=1, diagnostics={}),
    "errors.as_array": lambda t: dict(x=np.ones(2), name="x"),
    "errors.as_labels": lambda t: dict(y=np.array([1, 3]), name="y", n=2, classes=3),
    "errors.as_int": lambda t: dict(v=1, name="v"),
    "errors.as_float": lambda t: dict(v=0.5, name="v"),
    "errors.as_choice": lambda t: dict(v="x", name="v", choices=("x", "y")),
    "errors.as_instance": lambda t: dict(v="x", name="v", types=(str,)),
    "errors.as_path": lambda t: dict(p="x", name="p"),
    "errors.check_fields": lambda t: dict(obj=AugmentConfig()),
    "fileio.atomic_write_bytes": lambda t: dict(path=t / "a.bin", payload=b"x"),
    "fileio.atomic_write_text": lambda t: dict(path=t / "a.txt", text="x"),
    "fileio.dump_json": lambda t: dict(path=t / "a.json", obj={"a": 1}),
    "fileio.write_container": lambda t: dict(path=t / "c.bin", kind="dataset",
                                             meta={}, arrays={"a": np.ones(2)}),
    "fileio.read_container": lambda t: dict(path=_ds_file(t), kind="dataset"),
    "losses.PseudoLabelBatch": lambda t: dict(probs=_probs(), labels=np.ones(5, int),
                                              mask=np.ones(5, bool)),
    "losses.pseudo_label": lambda t: dict(probs=_probs(), tau=0.5),
    "losses.supervised_loss": lambda t: dict(params=_net(), x=np.ones((3, 4)),
                                             y=np.array([1, 2, 3])),
    "losses.consistency_loss": lambda t: dict(
        params=_net(), x_unlabeled=np.ones((5, 4)), pseudo=_pseudo(),
        aug=AugmentConfig(), rng=_rng(),
    ),
    "losses.consistency_inputs": lambda t: dict(
        x_unlabeled=np.ones((5, 4)), pseudo=_pseudo(), aug=AugmentConfig(), rng=_rng()
    ),
    "losses.distribution_alignment": lambda t: dict(q=_probs(), running_avg=_U3,
                                                    target=_U3),
    "losses.sharpen": lambda t: dict(q=_probs(), temperature=0.5),
    "losses.ema_update": lambda t: dict(avg=_U3, batch_mean=_U3, decay=0.9),
    "metrics.confusion": lambda t: dict(true=np.array([1, 2, 3]),
                                        pred=np.array([1, 2, 2]), classes=3),
    "metrics.bacc": lambda t: dict(cm=np.eye(3, dtype=np.int64)),
    "metrics.gm": lambda t: dict(cm=np.eye(3, dtype=np.int64)),
    "metrics.TrendReport": lambda t: dict(head_median=1.0, tail_median=0.5,
                                          decreasing=True),
    "metrics.trajectory_trend": lambda t: dict(series=np.arange(10.0)),
    "model.ModelParams": lambda t: dict(dims=(4, 6, 3), weights=_net().weights,
                                        biases=_net().biases),
    "model.init_mlp": lambda t: dict(dims=(4, 6, 3), seed=0),
    "model.as_input": lambda t: dict(params=_net(), x=np.ones((3, 4)), name="x", ndim=2),
    "model.forward_logits": lambda t: dict(params=_net(), x=np.ones((3, 4))),
    "model.StepBuffers": lambda t: dict(params=_net(), unlabeled=5, labeled=2,
                                        probe=np.zeros(4)),
    "model.grad_buffer": lambda t: dict(params=_net()),
    "model.forward_cached": lambda t: dict(params=_net(), x=np.ones((3, 4))),
    "model.logits_array": lambda t: dict(params=_net(), x=np.ones((3, 4))),
    "model.save_checkpoint": lambda t: dict(params=_net(), path=t / "m.ckpt"),
    "model.load_checkpoint": lambda t: dict(
        path=_file(t, "saved.ckpt", lambda p: save_checkpoint(_net(), p))
    ),
    "runner.run": lambda t: dict(config=_config(t), out_dir=t / "run"),
    "runner.sweep_lambda": lambda t: dict(config=_config(t), values=(0.0,),
                                          out_dir=t / "sweep"),
    "runner.ablate_baseline_colors": lambda t: dict(
        config=_config(t), colors=("black",), out_dir=t / "colors"
    ),
    "runner.ablate_components": lambda t: dict(config=_config(t),
                                               out_dir=t / "components"),
    "tensor.Tensor": lambda t: dict(data=np.ones(2)),
    "tensor.Tape": lambda t: {},
    "tensor.apply_op": lambda t: dict(data=np.ones(2), inputs=(), vjp=lambda g: ()),
    "tensor.backward": lambda t: dict(loss=_loss()),
    "tensor.zero_grads": lambda t: dict(tensors=[Tensor(1.0)]),
    "tensor.flatten_values": lambda t: dict(arrays=[np.ones(2)]),
    "tensor.flatten_grads": lambda t: dict(tensors=[Tensor(np.ones(2))]),
    "tensor.matmul": lambda t: dict(a=np.ones((2, 3)), b=np.ones((3, 2))),
    "tensor.add": lambda t: dict(a=np.ones((2, 2)), b=np.ones((2, 2))),
    "tensor.add_rowvec": lambda t: dict(a=np.ones((2, 3)), v=np.ones(3)),
    "tensor.mul": lambda t: dict(a=np.ones((2, 2)), b=np.ones((2, 2))),
    "tensor.scale": lambda t: dict(a=np.ones(2), c=2.0),
    "tensor.relu": lambda t: dict(a=np.ones((2, 2))),
    "tensor.sum_all": lambda t: dict(a=np.ones(2)),
    "tensor.softmax": lambda t: dict(z=np.ones((2, 3))),
    "tensor.log_softmax": lambda t: dict(z=np.ones((2, 3))),
    "tensor.cross_entropy": lambda t: dict(pred=np.ones((2, 3)),
                                           target=np.array([1, 2])),
    "tensor.cross_entropy_terms": lambda t: dict(lsm=_lsm(), target=np.array([1, 2, 3])),
}

# Fixtures by annotation, for a callable that _VALID does not list.
_BY_ANNOTATION = {
    "int": lambda t: 1,
    "float": lambda t: 0.5,
    "bool": lambda t: False,
    "str": lambda t: "x",
    "str | Path": lambda t: t / "generic",
    "np.ndarray": lambda t: np.ones((3, 4)),
    "tuple[int, ...]": lambda t: (4, 6, 3),
    "ModelParams": lambda t: _net(),
    "SynthDataset": lambda t: DS,
    "LongTailSpec": lambda t: SPEC,
    "AugmentConfig": lambda t: AugmentConfig(),
    "TrainSettings": lambda t: SETTINGS,
    "TrainState": lambda t: _state(),
    "ExperimentConfig": _config,
    "PseudoLabelBatch": lambda t: _pseudo(),
    "GradientVector": lambda t: GradientVector(np.ones(3)),
    "np.random.Generator": lambda t: _rng(),
}


def _valid_args(key: str, obj, tmp) -> dict:
    if key in _VALID:
        return _VALID[key](tmp)
    args = {}
    for p in _parameters(obj):
        if p.default is not inspect.Parameter.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.annotation not in _BY_ANNOTATION:
            pytest.fail(f"no valid {key}({p.name}=...): add {key} to _VALID")
        args[p.name] = _BY_ANNOTATION[p.annotation](tmp)
    return args


def _call(obj, args: dict):
    """obj(**args); a parameter of *args takes its tuple from args, and
    the parameters before it go positionally."""
    params = _parameters(obj)
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        positional = []
        for p in params:
            if p.kind is p.VAR_POSITIONAL:
                positional += args.pop(p.name)
                break
            positional.append(args.pop(p.name))
        return obj(*positional, **args)
    return obj(**args)


@pytest.fixture
def tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LCGCLAB_OUTPUT_ROOT", raising=False)
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("kept\n")
    return tmp_path


def _cases():
    for key, obj in CALLABLES.items():
        for p in _parameters(obj):
            kind, nullable = _kind(p.annotation)
            if f"{key}.{p.name}" in RECORDS:
                kind = "record"
            if kind and f"{key}.{p.name}" not in EXEMPT_PARAMS:
                yield pytest.param(key, p.name, kind, nullable, id=f"{key}.{p.name}")


def test_every_module_but_the_exempt_is_listed():
    modules = {k.split(".")[0] for k in CALLABLES}
    assert modules == {
        "config", "data", "debias", "errors", "fileio", "losses", "metrics",
        "model", "runner", "tensor",
    }
    assert not set(_VALID) - set(CALLABLES), "entries for callables that are gone"


@pytest.mark.parametrize("key", list(CALLABLES))
def test_valid_arguments_pass(key, tmp):
    """The arguments the bad values replace one at a time are valid."""
    obj = CALLABLES[key]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _call(obj, _valid_args(key, obj, tmp))


def _outcomes(key, param, kind, nullable, tmp):
    """(label, the LcgclabError raised or None if the call returned, or
    the text of a non-package error) for each bad value of ``kind``."""
    obj = CALLABLES[key]
    for label, bad in BAD[kind].items():
        if nullable and bad is None:
            continue
        args = _valid_args(key, obj, tmp)
        args[param] = bad
        try:
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                _call(obj, args)
        except LcgclabError as e:
            yield label, e
        except Exception as e:  # noqa: BLE001 - the point of the test
            yield label, f"{param}={label}: {type(e).__name__}: {e}"
        else:
            yield label, None


@pytest.mark.parametrize("key, param, kind, nullable", list(_cases()))
def test_bad_arguments_raise_only_package_errors(key, param, kind, nullable, tmp):
    outcomes = _outcomes(key, param, kind, nullable, tmp)
    escaped = [e for _, e in outcomes if isinstance(e, str)]
    assert not escaped, f"{key} let non-package errors escape:\n" + "\n".join(escaped)


# The records that check their own arrays and widths where they are made.
CHECKED_RECORDS = ("data.SynthDataset", "model.ModelParams")


@pytest.mark.parametrize(
    "key, param, kind, nullable",
    [c for c in _cases() if c.values[0] in CHECKED_RECORDS],
)
def test_checked_records_raise_on_every_bad_field(key, param, kind, nullable, tmp):
    assert kind in ("array", "ints")
    outcomes = _outcomes(key, param, kind, nullable, tmp)
    returned = [label for label, e in outcomes if e is None]
    assert not returned, f"{key} was made with {param} = {returned}"
