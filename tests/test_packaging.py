"""Every declared runtime dependency is importable, every import in the
package and its tests is used, every private module-level name of the
package is read, the package namespace holds only its modules, and
README's Python example runs."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _dependency_names() -> list[str]:
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    return [
        re.match(r"[A-Za-z0-9_.-]+", req).group(0)
        for req in project.get("dependencies", [])
    ]


def test_declared_dependencies_exist():
    assert "numpy" in _dependency_names()


@pytest.mark.parametrize("name", _dependency_names())
def test_dependency_imports(name):
    importlib.import_module(name.replace("-", "_"))


def _unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each name imported in ``path`` and never
    read there. A name counts as read wherever it appears, annotations
    included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    rel = path.relative_to(ROOT)
    return [
        f"{rel}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_unused_imports():
    """The package's ``__init__.py`` imports its modules into the
    namespace without reading them, so it is left out; every other
    module, test file and benchmark script is scanned."""
    package = ROOT / "src" / "lcgclab"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "tests").glob("*.py")
    files += (ROOT / "benchmarks").glob("*.py")
    unused = [hit for p in sorted(files) for hit in _unused_imports(p)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each module-level ``_name`` that ``tree`` binds
    with a def, a class or an assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            ]
        else:
            continue
        out += [(n, node.lineno) for n in names if n.startswith("_")]
    return out


def test_every_private_name_is_read():
    """A private name is the package's own business, so one that no
    module of the package reads (as a name or as an attribute) is dead
    code left behind by a deletion."""
    package = ROOT / "src" / "lcgclab"
    trees = {
        p.relative_to(ROOT): ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(package.glob("*.py"))
    }
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = [
        (f"{rel}:{line}: {name}", name)
        for rel, tree in trees.items()
        for name, line in _private_definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
    ]
    assert len(defined) > 0
    unread = [hit for hit, name in defined if name not in read]
    assert not unread, "private names nothing reads:\n" + "\n".join(unread)


# Names the package namespace once re-exported, by the module that
# defines each: the autodiff tape and its four wrappers, and the rest of
# the API. Every one stays importable from its module.
_MODULE_NAMES = {
    "config": (
        "ExperimentConfig", "default_config", "parse_config",
        "parse_config_text",
    ),
    "data": (
        "AugmentConfig", "LongTailSpec", "SynthDataset", "export_csv",
        "load_dataset", "longtail_counts", "sample_minibatch", "save_dataset",
        "strong_aug", "synthesize", "weak_aug",
    ),
    "debias": (
        "BASELINE_COLORS", "EvalReport", "GradientVector", "RunRecord",
        "StepRecord", "TheoremReport", "TrainSettings", "TrainState",
        "baseline_logits", "evaluate", "integrated_gradients",
        "lcgc_combine", "make_baseline", "run_training", "train_step",
        "verify_theorem1", "kl_consistency_loss",
    ),
    "errors": (
        "ConfigError", "ContractError", "DimensionError", "EvaluationError",
        "InfeasibleSpecError", "LabelError", "TrainingDiverged",
    ),
    "losses": (
        "PseudoLabelBatch", "distribution_alignment", "ema_update",
        "pseudo_label", "sharpen", "supervised_loss", "consistency_loss",
    ),
    "metrics": ("TrendReport", "bacc", "confusion", "gm", "trajectory_trend"),
    "model": (
        "ModelParams", "init_mlp", "load_checkpoint", "logits_array",
        "save_checkpoint", "forward_logits",
    ),
    "runner": (
        "ablate_baseline_colors", "ablate_components", "run", "sweep_lambda",
    ),
    "tensor": (
        "Tape", "Tensor", "backward", "cross_entropy", "flatten_grads",
        "flatten_values", "log_softmax", "matmul", "softmax", "zero_grads",
    ),
}

# What ``import lcgclab`` loads: every module but the CLI.
_IMPORTED_MODULES = [
    "lcgclab", "lcgclab.config", "lcgclab.data", "lcgclab.debias",
    "lcgclab.errors", "lcgclab.fileio", "lcgclab.kernels", "lcgclab.losses",
    "lcgclab.metrics", "lcgclab.model", "lcgclab.runner", "lcgclab.tensor",
]


def test_package_namespace_holds_only_modules():
    """The package's public names are its submodules; every name lives
    in the one module that defines it."""
    package = importlib.import_module("lcgclab")
    public = {n for n in vars(package) if not n.startswith("_")}
    # The CLI joins the namespace once something has imported it.
    assert public - {"cli"} == {m.split(".")[1] for m in _IMPORTED_MODULES[1:]}
    assert all(
        getattr(package, n) is importlib.import_module(f"lcgclab.{n}")
        for n in public
    )
    assert isinstance(package.__version__, str)
    for module, names in _MODULE_NAMES.items():
        submodule = importlib.import_module(f"lcgclab.{module}")
        missing = [n for n in names if not hasattr(submodule, n)]
        assert not missing, f"lcgclab.{module} lacks {missing}"
    assert not hasattr(importlib.import_module("lcgclab.tensor"), "__all__")


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_loads_every_module_but_the_cli():
    """A fresh ``import lcgclab`` does the whole import work (the
    benchmark times it) and leaves the CLI out."""
    out = _run_python(
        "import sys, lcgclab\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'lcgclab'))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(_IMPORTED_MODULES)


def test_readme_python_example_runs():
    """README's "From Python" block runs as written and prints the final
    balanced accuracy and G-mean."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    out = _run_python(blocks[0])
    assert out.returncode == 0, out.stderr
    bacc, gmean = (float(v) for v in out.stdout.split())
    assert 0.0 <= gmean <= bacc <= 1.0
