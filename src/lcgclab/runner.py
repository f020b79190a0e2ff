"""Multi-seed experiment driver, sweeps, and ablations.

Every entry point writes its artifacts (per-step CSVs, per-seed JSON,
aggregate JSON/CSV) under the config's output root and also returns
them. Seeds are isolated: an unexpected failure in one seed is recorded
and the remaining seeds still run. All files are written atomically
with sorted JSON keys, so repeated runs of the same config produce
byte-identical artifacts except for wall-clock fields.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .data import SynthDataset, synthesize
from .debias import BASELINE_COLORS, RunRecord, StepRecord, run_training
from .errors import ConfigError
from .fileio import atomic_write_text, dump_json

_STEP_COLUMNS = tuple(f.name for f in fields(StepRecord))

# Aggregate fields copied into every sweep and ablation table row.
_TABLE_STATS = ("bacc_mean", "bacc_se", "gm_mean", "gm_se", "n_completed")

# Table row order for the lambda sweep: 0.0 to 1.4 in steps of 0.2.
DEFAULT_LAMBDAS = tuple(round(0.2 * i, 1) for i in range(8))


def _steps_csv(run: RunRecord) -> str:
    return _table_csv([vars(r) for r in run.steps], _STEP_COLUMNS)


def _mean_se(vals) -> tuple[float, float]:
    v = np.asarray(list(vals), dtype=np.float64)
    if v.size == 0:
        return float("nan"), float("nan")
    if v.size == 1:
        return float(v[0]), 0.0
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(v.size))


def run(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    dataset: SynthDataset | None = None,
) -> dict:
    """Train every seed in the config and aggregate the results.

    Returns the aggregate dict (also written to aggregate.json). A
    reusable dataset can be passed in to share one realization across
    sweep points; by default it is synthesized from the config.
    """
    t0 = time.perf_counter()
    out = Path(out_dir) if out_dir is not None else config.output_root()
    out.mkdir(parents=True, exist_ok=True)
    ds = dataset if dataset is not None else synthesize(config.spec)
    settings = config.train_settings()

    per_seed: list[dict] = []
    baccs: list[float] = []
    gms: list[float] = []
    for seed in config.seeds:
        try:
            _, record = run_training(ds, config.hidden, settings, seed)
        except Exception:
            per_seed.append(
                {
                    "seed": seed,
                    "failed": True,
                    "error": traceback.format_exc(limit=10),
                }
            )
            continue
        atomic_write_text(out / f"steps_seed{seed}.csv", _steps_csv(record))
        entry = record.to_dict()
        entry["failed"] = False
        dump_json(out / f"run_seed{seed}.json", entry)
        per_seed.append(entry)
        if not record.diverged:
            baccs.append(record.final_bacc)
            gms.append(record.final_gm)

    bacc_mean, bacc_se = _mean_se(baccs)
    gm_mean, gm_se = _mean_se(gms)
    aggregate = {
        "config": config.resolved(),
        "per_seed": per_seed,
        "n_seeds": len(config.seeds),
        "n_completed": len(baccs),
        "n_failed": sum(1 for e in per_seed if e.get("failed")),
        "n_diverged": sum(1 for e in per_seed if e.get("diverged")),
        "bacc_mean": bacc_mean,
        "bacc_se": bacc_se,
        "gm_mean": gm_mean,
        "gm_se": gm_se,
        "wall_time_s": time.perf_counter() - t0,
    }
    dump_json(out / "aggregate.json", aggregate)
    return aggregate


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)  # round-trips exactly
    return str(int(v) if isinstance(v, bool) else v)


def _table_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    """One CSV line per row dict: floats as repr, bools as 0/1."""
    lines = [",".join(columns)]
    lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _sweep(
    config: ExperimentConfig,
    variants: list[tuple[object, str, ExperimentConfig]],
    column: str,
    table_name: str,
    out_dir: str | Path | None,
) -> list[dict]:
    """Run each (label, subdirectory, config) variant on one shared dataset.

    Writes one row per variant, keyed by ``column``, to
    ``table_name``.csv and ``table_name``.json.
    """
    out = Path(out_dir) if out_dir is not None else config.output_root()
    ds = synthesize(config.spec)
    rows = []
    for label, subdir, sub in variants:
        agg = run(sub, out_dir=out / subdir, dataset=ds)
        rows.append({column: label, **{k: agg[k] for k in _TABLE_STATS}})
    atomic_write_text(
        out / f"{table_name}.csv", _table_csv(rows, (column, *_TABLE_STATS))
    )
    dump_json(out / f"{table_name}.json", rows)
    return rows


def sweep_lambda(
    config: ExperimentConfig,
    values: tuple[float, ...] | None = None,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Run the lcgc method across correction scales on a shared dataset.

    Defaults to 0.0 .. 1.4 in steps of 0.2; 0.0 is the refinement-only
    reference point. Writes lambda_sweep.csv / lambda_sweep.json.
    """
    values = DEFAULT_LAMBDAS if values is None else tuple(values)
    variants = [
        (lam, f"lambda_{lam:g}", config.override(method="lcgc", lam=lam))
        for lam in map(float, values)
    ]
    return _sweep(config, variants, "lambda", "lambda_sweep", out_dir)


def ablate_baseline_colors(
    config: ExperimentConfig,
    colors: tuple[str, ...] | None = None,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Re-run the config once per probe color on a shared dataset.

    Requires a method with refinement active (cdmad or lcgc); with the
    plain baseline method the probe is unused and the ablation would
    compare identical runs.
    """
    if config.method == "baseline":
        raise ConfigError(
            "baseline-color ablation needs refinement active; "
            "set method = cdmad or method = lcgc"
        )
    colors = BASELINE_COLORS if colors is None else tuple(colors)
    variants = [
        (color, f"baseline_{color}", config.override(baseline_color=color))
        for color in colors
    ]
    return _sweep(config, variants, "color", "baseline_colors", out_dir)


def ablate_components(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> list[dict]:
    """Switch off one mechanism at a time, starting from the full method.

    Rows: full method, pseudo-label refinement off, test-time
    refinement off, and a 0.95 confidence threshold instead of taking
    every pseudo-label. Requires method = lcgc.
    """
    if config.method != "lcgc":
        raise ConfigError("component ablation requires method = lcgc")
    variants = (
        ("full", config),
        ("no_pseudo_label_refinement", config.override(refine_pseudo_labels=False)),
        ("no_test_refinement", config.override(refine_at_test=False)),
        ("tau_0.95", config.override(tau=0.95)),
    )
    return _sweep(
        config,
        [(name, f"component_{name}", sub) for name, sub in variants],
        "variant",
        "components",
        out_dir,
    )
