"""Every declared runtime dependency is importable, every import in the
package and its tests is used, and every private module-level name of
the package is read."""

from __future__ import annotations

import ast
import importlib
import re
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
    """The package's ``__init__.py`` re-exports by importing, so it is
    left out; every other module, test file and benchmark script is
    scanned."""
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


# The autodiff tape and its four wrappers, by the submodule that defines
# each; none is package API.
_TAPE_NAMES = {
    "tensor": (
        "Tape", "Tensor", "backward", "cross_entropy", "finite_diff_grad",
        "flatten_grads", "flatten_values", "log_softmax", "matmul",
        "softmax", "zero_grads",
    ),
    "model": ("forward_logits",),
    "losses": ("supervised_loss", "consistency_loss"),
    "debias": ("kl_consistency_loss",),
}


def test_tape_is_not_package_api():
    """The package does not re-export the tape; each name is imported
    from the submodule that defines it."""
    package = importlib.import_module("lcgclab")
    exported = [
        n for names in _TAPE_NAMES.values() for n in names if hasattr(package, n)
    ]
    assert not exported, f"re-exported by lcgclab: {exported}"
    for module, names in _TAPE_NAMES.items():
        submodule = importlib.import_module(f"lcgclab.{module}")
        assert all(callable(getattr(submodule, n)) for n in names), module
    assert not hasattr(importlib.import_module("lcgclab.tensor"), "__all__")
