#!/usr/bin/env python3
"""Artifact comparison: the ``lcgclab`` CLI on a base revision against this checkout.

    python3 benchmarks/same_bytes.py <base-rev>

Checks ``base-rev`` out into a temporary ``git worktree`` (the one
``ab.py`` uses) and runs every command of ``RUNS`` there and in this
checkout as it is on disk, uncommitted changes included: ``python3 -m
lcgclab.cli`` with ``PYTHONPATH`` set to the tree's ``src`` and BLAS on
one thread. That is ``lcgclab train`` on every config of ``CONFIGS``,
then the sweeps, the ablations and both dataset exports on ``lcgc``.
Each config trains 40 steps on seeds 1 and 2 (``COMMON``), unless it
sets a key of ``COMMON`` itself.

Six more commands exit 2: ``lcgclab train`` on every config of
``BAD_CONFIGS``, each of which breaks one declared bound or choice or
the distinct-seeds rule, and a ``train`` and an ``export-dataset`` on an
output path under the ``lcgc`` run's ``aggregate.json``.

Then it compares the two sides: the exit code, stdout and stderr of
each command (with the output, runs and tree paths replaced by
placeholders), and the output directories file by file. Every file must
exist on both sides; a JSON file is compared after every ``wall_time_s``
key, at any depth, is dropped, and any other file byte for byte. Each
difference is printed; the exit status is 1 if there is any, else 0.

Last it prints the size of ``src/lcgclab/`` and of ``tests/`` on both
sides, in lines and in ``ast`` statements (the count a simplification is
judged by), so that code moved from the package into the tests reads as
a move; the sizes do not change the exit status.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import ROOT, worktree

COMMON = "train.steps = 40\nseeds = 1, 2\n"

# The directories whose size is printed, relative to a tree's root.
SIZED = ("src/lcgclab", "tests")

CONFIGS = {
    "lcgc": "",
    "cdmad-tau-0.9": "method = cdmad\ntrain.tau = 0.9\n",
    "baseline": "method = baseline\n",
    "remix-lite-wide": (
        "backbone = remix-lite\ndataset.dim = 64\nmodel.hidden = 256, 256\n"
        "train.batch_size = 128\n"
    ),
    "remix-lite-no-align": "backbone = remix-lite\nremix.align = false\n",
    "remix-lite-tau-0.9": "backbone = remix-lite\ntrain.tau = 0.9\n",
    # Pseudo-labels from the raw logits, under a confidence mask.
    "no-refine-tau-0.9": "lcgc.refine_pseudo_labels = false\ntrain.tau = 0.9\n",
    # Hard-label consistency with its adjoint scaled off 1.
    "fixmatch-weighted": "train.consistency_weight = 0.3\ntrain.tau = 0.7\n",
    # The same on 112 unlabeled rows, not a power of two, where
    # 0.3 / n and (1 / n) * 0.3 round apart (at 96 rows they do not):
    # it shows where the weight enters the adjoint.
    "fixmatch-weighted-112": (
        "train.batch_size = 56\ntrain.consistency_weight = 0.3\ntrain.tau = 0.7\n"
    ),
    # FixMatch through three hidden layers: the backward's in-place
    # adjoint chain runs through more than one middle layer.
    "fixmatch-deep": "model.hidden = 32, 24, 16\n",
    "diverging": "train.lr = 1e6\n",
    "reversed-double-subtract": (
        "dataset.reversed_unlabeled = true\nlcgc.double_subtract = true\n"
    ),
    "baseline-double-subtract": "method = baseline\nlcgc.double_subtract = true\n",
    # Every key off its default (COMMON sets the other two). Kinds come
    # from the defaults, so the float keys given integral text would
    # echo as 4, not 4.0, into aggregate.json if one parsed as an int.
    "every-key": (
        "dataset.classes = 4\ndataset.dim = 12\ndataset.n_max_labeled = 120\n"
        "dataset.n_max_unlabeled = 240\ndataset.gamma_labeled = 10\n"
        "dataset.gamma_unlabeled = 20\ndataset.reversed_unlabeled = true\n"
        "dataset.class_separation = 4\ndataset.noise_sigma = 1\n"
        "dataset.test_per_class = 30\ndataset.seed = 11\n"
        "augment.sigma_weak = 0.2\naugment.sigma_strong = 0.4\n"
        "augment.mask_fraction = 0.5\nmodel.hidden = 16, 8\n"
        "backbone = remix-lite\nmethod = cdmad\noutput_dir = elsewhere\n"
        "train.batch_size = 16\ntrain.mu = 3\ntrain.lr = 0.1\ntrain.tau = 0.5\n"
        "train.consistency_weight = 2\nlcgc.lambda = 0.5\nlcgc.baseline = gray\n"
        "lcgc.refine_pseudo_labels = false\nlcgc.refine_at_test = false\n"
        "lcgc.ig_steps = 16\nlcgc.double_subtract = true\n"
        "remix.temperature = 0.25\nremix.ema_decay = 0.9\nremix.align = false\n"
    ),
}

# Configs that break one field's declared rule, or the rule that seeds
# are distinct: their train exits 2, and its config error line is
# compared.
BAD_CONFIGS = {
    "bad-bound": "train.tau = 1.5\n",
    "bad-spec": "dataset.gamma_labeled = 0.5\n",
    "bad-choice": "lcgc.baseline = purple\n",
    "bad-seeds": "seeds = 1, 1\n",
}

# (run name, config name, lcgclab arguments), where {cfg} stands for the
# config file, {out} for the run's output directory and {out.parent} for
# the directory of every run's output directory on its side.
RUNS = [
    *(
        (name, name, ["train", "{cfg}", "--output", "{out}"])
        for name in [*CONFIGS, *BAD_CONFIGS]
    ),
    ("sweep-lambda", "lcgc",
     ["sweep-lambda", "{cfg}", "--output", "{out}", "--values", "0,0.5"]),
    ("ablate-baseline", "lcgc",
     ["ablate-baseline", "{cfg}", "--output", "{out}", "--colors", "black,gray"]),
    ("ablate-components", "lcgc",
     ["ablate-components", "{cfg}", "--output", "{out}"]),
    ("export-bin", "lcgc", ["export-dataset", "{cfg}", "{out}/dataset.bin"]),
    ("export-csv", "lcgc", ["export-dataset", "{cfg}", "{out}/dataset.csv"]),
    # Two that exit 2, paths under the lcgc run's aggregate.json (a
    # regular file by now): their config error lines are compared.
    ("train-under-file", "lcgc",
     ["train", "{cfg}", "--output", "{out.parent}/lcgc/aggregate.json/o"]),
    ("export-under-file", "lcgc",
     ["export-dataset", "{cfg}", "{out.parent}/lcgc/aggregate.json/x.bin"]),
]


_ABSENT = "<absent>"  # stands in for a key one side lacks


def json_diffs(a, b, where: str = "") -> list[str]:
    """Where two parsed JSON values differ, ``wall_time_s`` keys aside:
    one ``path: base ..., head ...`` message per differing leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted((a.keys() | b.keys()) - {"wall_time_s"})
        return [
            d for k in keys
            for d in json_diffs(a.get(k, _ABSENT), b.get(k, _ABSENT), f"{where}.{k}")
        ]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [
            d for i, (x, y) in enumerate(zip(a, b))
            for d in json_diffs(x, y, f"{where}[{i}]")
        ]
    x, y = json.dumps(a), json.dumps(b)  # NaN equals NaN here
    return [] if x == y else [f"{where or '.'}: base {x[:60]}, head {y[:60]}"]


def compare_trees(base: Path, head: Path) -> list[str]:
    """Differences between two output trees: files on one side only,
    differing values of JSON files (``json_diffs``) and other files that
    differ in any byte."""
    files = {
        side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
        for side, root in (("base", base), ("head", head))
    }
    out = [f"only in base: {p}" for p in sorted(files["base"] - files["head"])]
    out += [f"only in head: {p}" for p in sorted(files["head"] - files["base"])]
    for p in sorted(files["base"] & files["head"]):
        x, y = (base / p).read_bytes(), (head / p).read_bytes()
        if x == y:
            continue
        if p.suffix == ".json":
            try:
                x, y = json.loads(x), json.loads(y)
            except ValueError:  # malformed: compared as bytes
                pass
            else:
                out += [f"{p}: {d}" for d in json_diffs(x, y)]
                continue
        out.append(f"differs: {p}")
    return out


def source_size(tree: Path, sub: str = "src/lcgclab") -> tuple[int, int]:
    """(lines, ``ast`` statements) of the ``.py`` files under
    ``tree/sub``."""
    lines = statements = 0
    for path in sorted((tree / sub).rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        statements += sum(isinstance(n, ast.stmt) for n in ast.walk(ast.parse(text)))
    return lines, statements


def _lcgclab(
    tree: Path, args: list[str], cfg: Path, out: Path
) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``lcgclab *args`` run from ``tree``,
    with {cfg} and {out} in ``args`` filled in."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("LCGCLAB_OUTPUT_ROOT", None)
    cmd = [sys.executable, "-m", "lcgclab.cli"]
    cmd += [a.format(cfg=cfg, out=out) for a in args]
    r = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)

    def scrub(text: str) -> str:
        text = text.replace(str(out), "<out>").replace(str(out.parent), "<runs>")
        return text.replace(str(tree), "<tree>")

    return r.returncode, scrub(r.stdout), scrub(r.stderr)


def config_text(text: str) -> str:
    """A config's text after the lines of ``COMMON`` whose key it does
    not set itself (a key set twice is a config error)."""
    own = {line.split("=")[0].strip() for line in text.splitlines()}
    common = COMMON.splitlines(keepends=True)
    return "".join(ln for ln in common if ln.split("=")[0].strip() not in own) + text


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base_rev", help="revision to compare against, e.g. HEAD~1")
    args = p.parse_args(argv)

    diffs = []
    with worktree(args.base_rev) as base_tree, tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in (CONFIGS | BAD_CONFIGS).items():
            (tmp / f"{name}.cfg").write_text(config_text(text))
        for name, config, cli_args in RUNS:
            cfg = tmp / f"{config}.cfg"
            runs = {
                side: _lcgclab(tree, cli_args, cfg, tmp / side / name)
                for side, tree in (("base", base_tree), ("head", ROOT))
            }
            found = [
                f"{what} differs: base {b!r}, head {h!r}"
                for what, b, h in zip(
                    ("exit code", "stdout", "stderr"), runs["base"], runs["head"]
                )
                if b != h
            ]
            found += compare_trees(tmp / "base" / name, tmp / "head" / name)
            print(f"{name}: exit {runs['head'][0]}, {len(found)} difference(s)")
            diffs += [f"  {name}: {d}" for d in found]
        sizes = {
            (sub, side): source_size(tree, sub)
            for sub in SIZED
            for side, tree in (("base", base_tree), ("head", ROOT))
        }
    print("\n".join(diffs) if diffs else f"same bytes as {args.base_rev}")
    for (sub, side), (lines, statements) in sizes.items():
        print(f"{sub}/ at {side}: {lines} lines, {statements} statements")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
