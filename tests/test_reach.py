"""Every function under ``src/lcgclab/`` runs in some command, or is on
``ALLOWED`` with the reason it stays and the ROADMAP item expected to
remove it.

The trace runs in process, under ``sys.setprofile``: on both backbones,
every CLI command on ``TINY`` (``train``, a ``train`` that diverges,
the three sweeps, and ``export-dataset`` to CSV and to the binary
container), and one ``train`` without ``--output`` under
``LCGCLAB_OUTPUT_ROOT``. The functions are listed with ``ast``: each
function and method of each module by its qualified name. A decorated
one's code starts at its first decorator, and a nested function counts
with the one that encloses it.

The list only shrinks. A function that loses its last command is
deleted or moved to ``tests/``, not listed; a listed one that a command
reaches leaves the list. An entry kept for the benchmark names the
function that ``perfbench/spans.py``, ``workloads.py`` or
``harness.py`` names, through which perfbench reaches it.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
from pathlib import Path

import pytest

import lcgclab
from lcgclab.cli import main

from test_runner_cli import TINY

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(lcgclab.__file__).resolve().parent
PERFBENCH = ("spans.py", "workloads.py", "harness.py")

# The autodiff tape, the gradient reference of tests only. Item 2
# deletes it once item 1's benchmark no longer wraps it.
_TAPE = (
    "tensor.Tensor.__init__", "tensor.Tensor._from_op", "tensor.Tensor.shape",
    "tensor.Tensor.item", "tensor.Tensor.__repr__", "tensor.Tape.__init__",
    "tensor.Tape.__enter__", "tensor.Tape.__exit__", "tensor._active_tape",
    "tensor.apply_op", "tensor.backward", "tensor.zero_grads",
    "tensor.flatten_values", "tensor.flatten_grads", "tensor._as_tensor",
    "tensor.matmul", "tensor.add", "tensor.add_rowvec", "tensor.mul",
    "tensor.scale", "tensor.relu", "tensor.sum_all", "tensor._logits",
    "tensor.softmax", "tensor.log_softmax", "tensor.cross_entropy",
)

# "module.qualified.name" -> (ROADMAP item expected to remove the entry,
# why the function stays until then, the perfbench function it is
# reached through or None).
ALLOWED: dict[str, tuple[int, str, str | None]] = {
    **{name: (2, "the autodiff tape, which only tests use", None) for name in _TAPE},
    "model.forward_logits": (
        2, "the tape forward; the tracer wraps it", "model.forward_logits"
    ),
    "losses.supervised_loss": (
        2, "a tape wrapper; the tracer wraps it", "losses.supervised_loss"
    ),
    "losses.consistency_loss": (
        2, "a tape wrapper; the tracer wraps it", "losses.consistency_loss"
    ),
    "debias.kl_consistency_loss": (
        2, "a tape wrapper; the tracer wraps it", "debias.kl_consistency_loss"
    ),
    "kernels.softmax_rows": (
        2, "the tape softmax's kernel; the tracer wraps it", "kernels.softmax_rows"
    ),
    "kernels.backend_name": (
        2, "the benchmark records it in each run", "kernels.backend_name"
    ),
    "config.default_config": (
        1, "every workload starts from it", "config.default_config"
    ),
    "model.save_checkpoint": (
        4, "the audit workload saves the model it audits", "model.save_checkpoint"
    ),
    "model.load_checkpoint": (
        4, "the audit workload loads that model", "model.load_checkpoint"
    ),
    "fileio.read_container": (
        4, "the checkpoint reader reads through it", "model.load_checkpoint"
    ),
    "debias.verify_theorem1": (
        5, "the audit workload's op", "debias.verify_theorem1"
    ),
    "debias._path_attributions": (
        5, "verify_theorem1's attribution core", "debias.verify_theorem1"
    ),
    "debias.integrated_gradients": (
        5, "the tracer wraps it", "debias.integrated_gradients"
    ),
    "data.load_dataset": (
        4, "reads what export-dataset writes; kept until a command loads it", None
    ),
    "metrics.trajectory_trend": (
        5, "criterion 5's bias trend, for the audit's aggregate", None
    ),
}


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.qualified.name" of every function
    and method of the package; nested functions are left out."""
    out = {}

    def visit(body, path: Path, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.decorator_list[0] if node.decorator_list else node
                out[str(path), first.lineno] = f"{prefix}{node.name}"

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree.body, path, f"{path.stem}.")
    return out


def _commands(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every traced command."""
    runs = []
    for backbone in ("fixmatch", "remix-lite"):
        cfg = tmp / f"{backbone}.cfg"
        cfg.write_text(TINY + f"backbone = {backbone}\n")
        diverging = tmp / f"{backbone}-diverging.cfg"
        diverging.write_text(
            TINY.replace("seeds = 1, 2", "seeds = 1").replace(
                "train.steps = 3", "train.steps = 40"
            )
            + f"backbone = {backbone}\ntrain.lr = 1e6\n"
        )
        out = tmp / backbone
        runs += [
            (["train", cfg, "--output", out / "train"], 0),
            (["train", diverging, "--output", out / "diverging"], 1),
            (["sweep-lambda", cfg, "--output", out / "l", "--values", "0,1"], 0),
            (["ablate-baseline", cfg, "--output", out / "b", "--colors", "red"], 0),
            (["ablate-components", cfg, "--output", out / "c"], 0),
            (["export-dataset", cfg, out / "dataset.csv"], 0),
            (["export-dataset", cfg, out / "dataset.bin"], 0),
        ]
    runs.append((["train", tmp / "fixmatch.cfg"], 0))  # under the output root
    return [([str(a) for a in argv], code) for argv, code in runs]


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> set[str]:
    """Names of the package's functions that no traced command runs."""
    tmp = tmp_path_factory.mktemp("reach")
    commands = _commands(tmp)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LCGCLAB_OUTPUT_ROOT", str(tmp / "root"))
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            codes = [main(argv) for argv, _ in commands]
        finally:
            sys.setprofile(previous)
    assert codes == [code for _, code in commands]
    assert (tmp / "root" / "runs" / "aggregate.json").is_file()
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
    return {
        name
        for (path, line), name in _functions().items()
        if (os.path.realpath(path), line) not in reached
    }


def test_every_unreached_function_is_allowed(unreached):
    missing = sorted(unreached - ALLOWED.keys())
    assert not missing, (
        "no command reaches these; delete them, move them to tests/, or "
        "give each an ALLOWED entry:\n" + "\n".join(missing)
    )


def test_every_allowed_function_is_defined_and_unreached(unreached):
    defined = set(_functions().values())
    stale = sorted(
        f"{name}: {'reached' if name in defined else 'not defined'}"
        for name in ALLOWED.keys() - unreached
    )
    assert not stale, "drop these ALLOWED entries:\n" + "\n".join(stale)


def test_every_entry_gives_an_item_and_a_reason():
    bad = [
        name
        for name, (item, reason, via) in ALLOWED.items()
        if type(item) is not int
        or item < 1
        or not (isinstance(reason, str) and reason.strip())
        or not (via is None or isinstance(via, str))
    ]
    assert not bad, f"entries without a ROADMAP item and a reason: {bad}"
    assert len(ALLOWED) <= 41, "the list only shrinks"


def test_each_cited_perfbench_function_is_named_there(monkeypatch):
    """A name counts as named when one of the three files spells it out,
    or when it is one of the functions spans.py's tracer wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    text = "".join(
        (ROOT / "perfbench" / name).read_text(encoding="utf-8") for name in PERFBENCH
    )
    unnamed = [
        f"{name} (through {via})"
        for name, (_, _, via) in ALLOWED.items()
        if via is not None and via not in spans.SPAN_NAMES and via not in text
    ]
    assert not unnamed, "perfbench names none of these:\n" + "\n".join(unnamed)
