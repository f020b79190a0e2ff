"""Every declared runtime dependency is importable, and every import
in the package and its tests is used."""

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
