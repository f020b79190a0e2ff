"""The output-tree comparison of benchmarks/same_bytes.py."""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(_DIR))  # same_bytes imports its sibling ab.py
same_bytes = importlib.import_module("same_bytes")
sys.path.remove(str(_DIR))

from lcgclab import runner  # noqa: E402
from lcgclab.cli import _build_parser  # noqa: E402
from lcgclab.config import _SCHEMA, default_config, parse_config_text  # noqa: E402
from lcgclab.errors import ConfigError  # noqa: E402

RUN = {"seed": 1, "final_bacc": 0.5, "wall_time_s": 1.25, "steps": [1.0, 2.0]}
AGGREGATE = {"per_seed": [RUN], "bacc_mean": 0.5, "wall_time_s": 3.5}


def write_tree(root: Path, run=RUN, aggregate=AGGREGATE, csv=b"step\n0\n"):
    root.mkdir()
    (root / "run_seed1.json").write_text(json.dumps(run, indent=1))
    (root / "aggregate.json").write_text(json.dumps(aggregate, indent=1))
    (root / "steps_seed1.csv").write_bytes(csv)
    return root


def test_trees_that_differ_only_in_wall_time_are_the_same(tmp_path):
    base = write_tree(tmp_path / "base")
    head = write_tree(
        tmp_path / "head",
        run={**RUN, "wall_time_s": 9.0},
        aggregate={**AGGREGATE, "wall_time_s": 7.0,
                   "per_seed": [{**RUN, "wall_time_s": 9.0}]},
    )
    agg = "aggregate.json"
    assert (base / agg).read_bytes() != (head / agg).read_bytes()
    assert same_bytes.compare_trees(base, head) == []


def test_a_changed_csv_byte_is_reported(tmp_path):
    base = write_tree(tmp_path / "base")
    head = write_tree(tmp_path / "head", csv=b"step\n1\n")
    assert same_bytes.compare_trees(base, head) == ["differs: steps_seed1.csv"]


def test_a_missing_file_is_reported(tmp_path):
    base = write_tree(tmp_path / "base")
    head = write_tree(tmp_path / "head")
    (head / "run_seed1.json").unlink()
    (head / "extra.txt").write_text("x")
    assert same_bytes.compare_trees(base, head) == [
        "only in base: run_seed1.json",
        "only in head: extra.txt",
    ]


def test_json_differences_name_the_value(tmp_path):
    base = write_tree(tmp_path / "base")
    head = write_tree(
        tmp_path / "head",
        run={**RUN, "final_bacc": None, "steps": [1.0, float("nan")]},
    )
    assert same_bytes.compare_trees(base, head) == [
        "run_seed1.json: .final_bacc: base 0.5, head null",
        "run_seed1.json: .steps[1]: base 2.0, head NaN",
    ]


def test_source_size_counts_lines_and_statements(tmp_path):
    """Lines and ``ast`` statements of every ``.py`` file under
    ``src/lcgclab``, subpackages included, or under another directory
    of the tree such as ``tests``; other files do not count."""
    pkg = tmp_path / "src" / "lcgclab"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\n\nx = 1\n\n\ndef f(y):\n    return y\n')
    (pkg / "sub" / "b.py").write_text("if x:\n    pass\nelse:\n    y = 2\n")
    (pkg / "notes.txt").write_text("not = python\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("import a\n\nassert a\n")
    # a.py: docstring, assignment, def, return; b.py: if, pass, assignment
    assert same_bytes.source_size(tmp_path) == (7 + 4, 4 + 3)
    assert same_bytes.source_size(tmp_path, "tests") == (3, 2)
    assert same_bytes.SIZED == ("src/lcgclab", "tests")


def test_every_cli_command_is_in_the_gate():
    """Each ``lcgclab`` subcommand runs in the gate, and the dataset
    export in both of its formats."""
    sub = next(
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert {args[0] for _, _, args in same_bytes.RUNS} == set(sub.choices)
    exports = {
        Path(args[-1]).suffix for _, _, args in same_bytes.RUNS
        if args[0] == "export-dataset"
    }
    assert exports == {".bin", ".csv"}


def test_every_bool_key_is_flipped_in_the_gate(monkeypatch):
    """Each bool config key takes its non-default value in some gated
    run: in a config of ``CONFIGS``, or in a variant of the
    ``ablate-components`` run (collected here without training)."""
    configs = {
        name: parse_config_text(same_bytes.COMMON + text)
        for name, text in same_bytes.CONFIGS.items()
    }
    variants = []
    monkeypatch.setattr(
        runner, "_sweep", lambda _, points, *a: variants.extend(p[2] for p in points)
    )
    for _, name, args in same_bytes.RUNS:
        if args[0] == "ablate-components":
            runner.ablate_components(configs[name])
    assert variants
    bools = {
        key: value for key, value in default_config().resolved().items()
        if key in _SCHEMA and isinstance(value, bool)
    }
    assert len(bools) == 5
    flipped = {
        key
        for cfg in [*configs.values(), *variants]
        for key, value in cfg.resolved().items()
        if key in bools and value != bools[key]
    }
    assert flipped == set(bools)


def test_each_bad_config_breaks_a_rule_not_the_key_table():
    """Each config of ``BAD_CONFIGS`` fails on the rule it names, not as
    a key set twice: its own line replaces the line of ``COMMON`` that
    sets the same key, and the others stay."""
    assert same_bytes.config_text("seeds = 1, 1\n") == "train.steps = 40\nseeds = 1, 1\n"
    for name, text in same_bytes.BAD_CONFIGS.items():
        with pytest.raises(ConfigError) as e:
            parse_config_text(same_bytes.config_text(text))
        assert "duplicate key" not in str(e.value), name


def test_every_key_config_moves_every_key():
    """The ``every-key`` config gives each key a value other than its
    default, so a key whose kind or default changed shows in the gate."""
    cfg = parse_config_text(same_bytes.COMMON + same_bytes.CONFIGS["every-key"])
    default = default_config().resolved()
    assert [k for k in _SCHEMA if cfg.resolved()[k] == default[k]] == []


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A net of 85k parameters trains to the same artifacts under one
    BLAS thread and two: OpenBLAS splits a dot product of more than
    10,000 elements across its threads, so the step's dots must not
    hand it one."""
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        same_bytes.CONFIGS["remix-lite-wide"] + "train.steps = 5\nseeds = 1\n"
    )
    env = {**os.environ, "PYTHONPATH": str(_DIR.parent / "src")}
    env.pop("LCGCLAB_OUTPUT_ROOT", None)
    for threads in ("1", "2"):
        cmd = [sys.executable, "-m", "lcgclab.cli", "train", str(cfg)]
        cmd += ["--output", str(tmp_path / threads)]
        subprocess.run(
            cmd, env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True,
            capture_output=True,
        )
    assert same_bytes.compare_trees(tmp_path / "1", tmp_path / "2") == []
