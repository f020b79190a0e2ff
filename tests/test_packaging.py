"""Every declared runtime dependency is importable."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
