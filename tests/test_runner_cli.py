"""Experiment runner artifacts and the command-line entry point."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from lcgclab.cli import main
from lcgclab.config import default_config, parse_config_text
from lcgclab.data import load_dataset, synthesize
from lcgclab.errors import ConfigError
from lcgclab.runner import (
    DEFAULT_LAMBDAS,
    ablate_baseline_colors,
    ablate_components,
    run,
    sweep_lambda,
)

TINY = """
dataset.classes = 3
dataset.dim = 6
dataset.n_max_labeled = 30
dataset.n_max_unlabeled = 40
dataset.gamma_labeled = 5
dataset.gamma_unlabeled = 5
dataset.test_per_class = 10
model.hidden = 8
seeds = 1, 2
train.steps = 3
train.batch_size = 6
train.mu = 2
"""


def tiny_config(extra: str = ""):
    return parse_config_text(TINY + extra)


class TestRun:
    def test_artifacts_and_aggregate(self, tmp_path):
        agg = run(tiny_config(), out_dir=tmp_path)
        assert (tmp_path / "aggregate.json").exists()
        for seed in (1, 2):
            assert (tmp_path / f"steps_seed{seed}.csv").exists()
            assert (tmp_path / f"run_seed{seed}.json").exists()
        assert agg["n_seeds"] == 2
        assert agg["n_completed"] == 2
        assert agg["n_failed"] == 0
        assert 0.0 <= agg["bacc_mean"] <= 1.0
        on_disk = json.loads((tmp_path / "aggregate.json").read_text())
        assert on_disk["per_seed"][0]["seed"] == 1

    def test_steps_csv_layout(self, tmp_path):
        run(tiny_config(), out_dir=tmp_path)
        lines = (tmp_path / "steps_seed1.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "step", "loss_sup", "loss_con", "loss_kl",
            "conflict", "cos_angle", "mask_rate",
        ]
        assert len(lines) == 1 + 3  # header + one row per step
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[4] in ("0", "1")

    def test_seed_json_excludes_heavy_fields(self, tmp_path):
        run(tiny_config(), out_dir=tmp_path)
        entry = json.loads((tmp_path / "run_seed1.json").read_text())
        assert entry["n_steps"] == 3
        assert not entry["diverged"]
        assert len(entry["confusion"]) == 3
        assert "steps" not in entry

    def test_shared_dataset_reused(self, tmp_path):
        cfg = tiny_config()
        ds = synthesize(cfg.spec)
        a = run(cfg, out_dir=tmp_path / "a", dataset=ds)
        b = run(cfg, out_dir=tmp_path / "b", dataset=ds)
        assert a["per_seed"][0]["final_bacc"] == b["per_seed"][0]["final_bacc"]

    def test_per_seed_failure_is_isolated(self, tmp_path, monkeypatch):
        import lcgclab.runner as R

        real = R.run_training
        calls = {"n": 0}

        def flaky(ds, hidden, settings, seed, step_callback=None):
            calls["n"] += 1
            if seed == 1:
                raise RuntimeError("synthetic failure")
            return real(ds, hidden, settings, seed, step_callback)

        monkeypatch.setattr(R, "run_training", flaky)
        agg = run(tiny_config(), out_dir=tmp_path)
        assert calls["n"] == 2
        assert agg["n_failed"] == 1
        assert agg["n_completed"] == 1
        failed = [e for e in agg["per_seed"] if e.get("failed")]
        assert failed[0]["seed"] == 1
        assert "synthetic failure" in failed[0]["error"]
        assert not (tmp_path / "run_seed1.json").exists()
        assert (tmp_path / "run_seed2.json").exists()

    def test_repeat_run_is_bit_identical_minus_timing(self, tmp_path):
        cfg = tiny_config()
        a = run(cfg, out_dir=tmp_path / "a")
        b = run(cfg, out_dir=tmp_path / "b")
        for seed in (1, 2):
            csv_a = (tmp_path / "a" / f"steps_seed{seed}.csv").read_bytes()
            csv_b = (tmp_path / "b" / f"steps_seed{seed}.csv").read_bytes()
            assert csv_a == csv_b

        def strip(obj):
            if isinstance(obj, dict):
                return {
                    k: strip(v)
                    for k, v in obj.items()
                    if k != "wall_time_s"
                }
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        assert strip(a) == strip(b)


class TestSweeps:
    def test_default_lambda_grid(self):
        assert DEFAULT_LAMBDAS == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)

    def test_sweep_writes_table(self, tmp_path):
        rows = sweep_lambda(
            tiny_config(), values=(0.0, 1.0), out_dir=tmp_path
        )
        assert [r["lambda"] for r in rows] == [0.0, 1.0]
        assert (tmp_path / "lambda_sweep.csv").exists()
        assert (tmp_path / "lambda_0" / "aggregate.json").exists()
        assert (tmp_path / "lambda_1" / "aggregate.json").exists()
        csv_lines = (tmp_path / "lambda_sweep.csv").read_text().splitlines()
        assert csv_lines[0].startswith("lambda,bacc_mean")
        assert len(csv_lines) == 3

    def test_sweep_rejects_negative(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_lambda(tiny_config(), values=(-0.5,), out_dir=tmp_path)

    def test_color_ablation(self, tmp_path):
        rows = ablate_baseline_colors(
            tiny_config("method = cdmad\n"),
            colors=("black", "white"),
            out_dir=tmp_path,
        )
        assert [r["color"] for r in rows] == ["black", "white"]
        assert (tmp_path / "baseline_black" / "aggregate.json").exists()
        assert (tmp_path / "baseline_colors.json").exists()

    def test_color_ablation_guards(self, tmp_path):
        with pytest.raises(ConfigError):
            ablate_baseline_colors(
                tiny_config("method = baseline\n"), out_dir=tmp_path
            )
        with pytest.raises(ConfigError):
            ablate_baseline_colors(
                tiny_config("method = cdmad\n"),
                colors=("mauve",),
                out_dir=tmp_path,
            )

    def test_component_ablation(self, tmp_path):
        rows = ablate_components(tiny_config(), out_dir=tmp_path)
        names = [r["variant"] for r in rows]
        assert names == [
            "full",
            "no_pseudo_label_refinement",
            "no_test_refinement",
            "tau_0.95",
        ]
        assert (tmp_path / "components.csv").exists()
        for name in names:
            assert (tmp_path / f"component_{name}" / "aggregate.json").exists()

    def test_component_ablation_requires_lcgc(self, tmp_path):
        with pytest.raises(ConfigError):
            ablate_components(tiny_config("method = cdmad\n"), out_dir=tmp_path)


class TestCli:
    def write_cfg(self, tmp_path, extra=""):
        p = tmp_path / "exp.cfg"
        p.write_text(TINY + extra)
        return p

    def test_train_exits_zero_and_writes(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        code = main(["train", str(cfg), "--output", str(out)])
        assert code == 0
        assert (out / "aggregate.json").exists()
        stdout = capsys.readouterr().out
        assert "seed 1" in stdout and "bacc" in stdout

    def test_bad_config_exits_two(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text("train.step = 5\n")
        code = main(["train", str(p)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "model.hidden = 0",
            "model.hidden = -3",
            "seeds = 1,1",
            "remix.temperature = 0",
            "remix.ema_decay = 1.0",
        ],
    )
    def test_out_of_range_value_exits_two(self, tmp_path, capsys, line):
        p = tmp_path / "exp.cfg"
        p.write_text(f"backbone = remix-lite\n{line}\n")
        code = main(["train", str(p), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "none.cfg")])
        assert code == 2

    def test_guard_violation_exits_two(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "method = baseline\n")
        code = main(
            ["ablate-baseline", str(cfg), "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_values_flag(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            ["sweep-lambda", str(cfg), "--values", "0.0,0.4",
             "--output", str(out)]
        )
        assert code == 0
        rows = json.loads((out / "lambda_sweep.json").read_text())
        assert [r["lambda"] for r in rows] == [0.0, 0.4]

    def test_export_binary_roundtrip(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        path = tmp_path / "pool.bin"
        code = main(["export-dataset", str(cfg), str(path)])
        assert code == 0
        back = load_dataset(path)
        fresh = synthesize(tiny_config().spec)
        np.testing.assert_array_equal(back.labeled_x, fresh.labeled_x)

    def test_export_csv_by_extension(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        path = tmp_path / "pool.csv"
        code = main(["export-dataset", str(cfg), str(path)])
        assert code == 0
        assert path.read_text().startswith("split,label,x1")

    def test_all_seeds_failing_exits_one(self, tmp_path, monkeypatch, capsys):
        import lcgclab.runner as R

        def always_fail(ds, hidden, settings, seed, step_callback=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(R, "run_training", always_fail)
        cfg = self.write_cfg(tmp_path)
        code = main(["train", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
