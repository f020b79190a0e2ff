"""Experiment runner artifacts and the command-line entry point."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from lcgclab.cli import main
from lcgclab.config import parse_config_text
from lcgclab.data import load_dataset, synthesize
from lcgclab.errors import ConfigError, ContractError
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
        assert "divergence" not in entry
        assert len(entry["confusion"]) == 3
        assert "steps" not in entry

    def test_divergence_diagnostics_in_seed_json(self, tmp_path):
        text = TINY.replace("train.steps = 3", "train.steps = 40")
        cfg = parse_config_text(text + "train.lr = 1e6\n")
        agg = run(cfg, out_dir=tmp_path)
        assert agg["n_diverged"] == 2
        for seed in (1, 2):
            entry = json.loads((tmp_path / f"run_seed{seed}.json").read_text())
            assert entry["diverged"]
            diag = entry["divergence"]
            values = {**diag["losses"], **diag["grad_norms"]}
            assert set(values) == {
                "loss_sup", "loss_con", "loss_kl", "g_b", "g_d", "g_sup"
            }
            assert diag["non_finite"]
            for name, value in values.items():
                assert (value is None) == (name in diag["non_finite"])

    def test_numpy_overrides_hold_python_values(self, tmp_path):
        """An override stores what the field converters return: numpy
        scalars, and an int for a float, give the config a file of the
        same values parses to, type for type, and its run writes the
        aggregate without a warning. Once an np.float32 lr trained every
        seed and then failed to serialize the aggregate, and tau=1
        echoed as 1 where a file's 1 echoes as 1.0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            given = tiny_config().override(
                steps=np.int64(2), seeds=tuple(np.arange(1, 3)),
                lr=np.float32(0.25), tau=1, remix_align=np.bool_(False),
            )
            parsed = parse_config_text(
                TINY.replace("train.steps = 3", "train.steps = 2")
                + "train.lr = 0.25\ntrain.tau = 1\nremix.align = false\n"
            )
            assert given == parsed
            echo = parsed.resolved()
            assert {k: type(v) for k, v in given.resolved().items()} == {
                k: type(v) for k, v in echo.items()
            }
            assert json.dumps(given.resolved()) == json.dumps(echo)
            agg = run(given, out_dir=tmp_path)
        assert agg["n_completed"] == 2
        assert json.loads((tmp_path / "aggregate.json").read_text())["config"] == echo

    def test_shared_dataset_reused(self, tmp_path):
        cfg = tiny_config()
        ds = synthesize(cfg.spec)
        a = run(cfg, out_dir=tmp_path / "a", dataset=ds)
        b = run(cfg, out_dir=tmp_path / "b", dataset=ds)
        assert a["per_seed"][0]["final_bacc"] == b["per_seed"][0]["final_bacc"]

    def test_dataset_that_is_no_dataset_raises_and_writes_nothing(self, tmp_path):
        """Once each seed's step raised an AttributeError, which the
        per-seed isolation recorded as a failure in a written aggregate."""
        out = tmp_path / "o"
        with pytest.raises(ContractError, match="dataset"):
            run(tiny_config(), out_dir=out, dataset=5)
        assert not out.exists()

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

    def test_failed_point_writes_null_and_empty_cells(
        self, tmp_path, monkeypatch
    ):
        import lcgclab.runner as R

        def always_fail(ds, hidden, settings, seed, step_callback=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(R, "run_training", always_fail)
        rows = sweep_lambda(tiny_config(), values=(0.5,), out_dir=tmp_path)
        stats = ("bacc_mean", "bacc_se", "gm_mean", "gm_se")
        assert [rows[0][k] for k in stats] == [None] * 4
        assert json.loads((tmp_path / "lambda_sweep.json").read_text()) == rows
        csv_lines = (tmp_path / "lambda_sweep.csv").read_text().splitlines()
        assert csv_lines[1] == "0.5,,,,,0"

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
            "seeds = -1",
            "dataset.seed = -1",
            "remix.temperature = 0",
            "remix.ema_decay = 1.0",
            "lcgc.lambda = nan",
            "train.lr = inf",
            "augment.sigma_weak = nan",
            "dataset.noise_sigma = inf",
            "remix.temperature = inf",
            "lcgc.ig_steps = 0",
            "seeds = 1,,2",
            "model.hidden = 64,",
            "method = cdmad\nlcgc.lambda = -1",
        ],
    )
    def test_out_of_range_value_exits_two(self, tmp_path, capsys, line):
        p = tmp_path / "exp.cfg"
        p.write_text(f"backbone = remix-lite\n{line}\n")
        code = main(["train", str(p), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train"],
            ["ablate-baseline"],
            ["ablate-baseline", "--colors", "black,blue"],
        ],
        ids=["train", "ablate-baseline", "ablate-baseline-colors"],
    )
    def test_probe_that_lights_nothing_exits_two(self, tmp_path, capsys, argv):
        p = tmp_path / "exp.cfg"
        text = TINY.replace("dataset.dim = 6", "dataset.dim = 2")
        p.write_text(text + ("lcgc.baseline = blue\n" if argv == ["train"] else ""))
        out = tmp_path / "o"
        code = main([argv[0], str(p), "--output", str(out), *argv[1:]])
        assert code == 2
        assert "lights no coordinate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep-lambda"])
    @pytest.mark.parametrize(
        "case", ["empty", "outside-root", "nul", "flag-spaces", "flag-nul"]
    )
    def test_bad_output_dir_exits_two_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command, case
    ):
        """An empty output_dir would write into the working directory,
        an absolute one would leave LCGCLAB_OUTPUT_ROOT, and one with a
        NUL byte names no path; each stops the command before it
        creates anything. The --output flag, the runner's out_dir, keeps
        the config's rule for a NUL byte and surrounding whitespace."""
        work, root, outside = (tmp_path / d for d in ("work", "root", "abs"))
        for d in (work, root):
            d.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("LCGCLAB_OUTPUT_ROOT", str(root))
        line, flag, named = {
            "empty": ("output_dir =", [], "'output_dir'"),
            "outside-root": (f"output_dir = {outside}", [], "'output_dir'"),
            "nul": ("output_dir = out\0x", [], "'output_dir'"),
            "flag-spaces": ("", ["--output", " out "], "out_dir"),
            "flag-nul": ("", ["--output", "out\0x"], "out_dir"),
        }[case]
        cfg = self.write_cfg(tmp_path, line + "\n")
        code = main([command, str(cfg), *flag])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not any(work.iterdir()) and not any(root.iterdir())
        assert not outside.exists()

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["train", "{cfg}", "--output", "f"], "f"),
            (["train", "{file_cfg}"], "f"),
            (["sweep-lambda", "{cfg}", "--output", "f"], "f/lambda_0"),
            (["export-dataset", "{cfg}", "d"], "d"),
            (["export-dataset", "{cfg}", "f/x.bin"], "f/x.bin"),
        ],
        ids=["train-flag", "train-config", "sweep", "export-dir", "export-under-file"],
    )
    def test_unwritable_output_exits_two_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, argv, named
    ):
        """An output directory that names an existing file, an export
        that names a directory or a path under a file: the command ends
        in one config error line that names the path, and creates
        nothing."""
        work = tmp_path / "work"
        (work / "d").mkdir(parents=True)
        (work / "f").write_text("kept\n")
        (tmp_path / "c").mkdir()
        monkeypatch.chdir(work)
        monkeypatch.delenv("LCGCLAB_OUTPUT_ROOT", raising=False)
        cfg = self.write_cfg(tmp_path)
        file_cfg = self.write_cfg(tmp_path / "c", "output_dir = f\n")
        code = main([a.format(cfg=cfg, file_cfg=file_cfg) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"'{named}'" in err
        assert sorted(p.name for p in work.rglob("*")) == ["d", "f"]
        assert (work / "f").read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command,artifact",
        [("train", "run_seed1.json"), ("sweep-lambda", "lambda_sweep.csv")],
        ids=["train", "sweep"],
    )
    def test_unwritable_artifact_exits_two(
        self, tmp_path, capsys, command, artifact
    ):
        """A directory in an artifact's place: the command ends in one
        config error line that names the artifact, not a traceback."""
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        cfg = self.write_cfg(tmp_path)
        code = main([command, str(cfg), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"cannot write '{out / artifact}': " in err
        assert (out / artifact).is_dir()

    @pytest.mark.parametrize(
        "command",
        ["train", "sweep-lambda", "ablate-baseline", "ablate-components"],
    )
    def test_empty_output_flag_exits_two_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """--output "" would write into the working directory, as an
        empty output_dir would, and so would every other spelling of it,
        a runner's ``out_dir=Path("")`` among them; the runner refuses
        each before anything runs."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        cfg = self.write_cfg(tmp_path)
        why = "config error: out_dir must not be empty or name the working directory"
        for out in ("", ".", "./", "a/..", "./a/../."):
            assert main([command, str(cfg), "--output", out]) == 2
            assert f"{why}: {out!r}\n" == capsys.readouterr().err
        runner = {
            "train": run,
            "sweep-lambda": sweep_lambda,
            "ablate-baseline": ablate_baseline_colors,
            "ablate-components": ablate_components,
        }[command]
        with pytest.raises(ConfigError, match="out_dir must not be empty"):
            runner(tiny_config(), out_dir=Path(""))
        assert not any(work.iterdir())

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "none.cfg")])
        assert code == 2

    @pytest.mark.parametrize("unreadable", ["not_utf8", "directory"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, unreadable):
        path = tmp_path / "exp.cfg"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(TINY.encode() + b"# \xff\n")
        out = tmp_path / "o"
        code = main(["train", str(path), "--output", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["ablate-baseline", "--colors", "black,gray"], 2),
            (["ablate-components"], 4),
        ],
    )
    def test_ablation_commands(self, tmp_path, capsys, argv, rows):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "o"
        code = main([argv[0], str(cfg), *argv[1:], "--output", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == rows
        assert all("bacc" in line for line in lines)

    @pytest.mark.parametrize(
        "flags",
        [
            ["sweep-lambda", "--values", "0,abc"],
            ["sweep-lambda", "--values", ""],
            ["ablate-baseline", "--colors", ""],
            ["sweep-lambda", "--values", "0,nan"],
            ["sweep-lambda", "--values", "inf"],
            ["sweep-lambda", "--values", "0.2,,0.4"],
            ["ablate-baseline", "--colors", "black,"],
        ],
    )
    def test_bad_list_flag_exits_two(self, tmp_path, capsys, flags):
        """A list that does not parse is argparse's usage error, which
        names the flag; a non-finite lambda parses, and the config
        refuses it in one config error line. Nothing is written."""
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "o"
        argv = [flags[0], str(cfg), *flags[1:], "--output", str(out)]
        if flags[2] in ("0,nan", "inf"):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: lam must be a finite number")
            assert err.count("\n") == 1
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert flags[1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, subdir",
        [
            (["sweep-lambda", "--values", "0.1234561,0.1234562"], "lambda_0.123456"),
            (["ablate-baseline", "--colors", "black,black"], "baseline_black"),
        ],
    )
    def test_points_sharing_a_directory_exit_two(
        self, tmp_path, capsys, flags, subdir
    ):
        """Two points whose directory names coincide would overwrite
        each other's artifacts; they are refused before anything runs."""
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "o"
        code = main([flags[0], str(cfg), *flags[1:], "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and subdir in err
        assert not out.exists()

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

    def test_diverging_train_is_quiet(self, tmp_path, capsys):
        text = TINY.replace("seeds = 1, 2", "seeds = 1")
        text = text.replace("train.steps = 3", "train.steps = 40")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text + "train.lr = 1e6\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        entry = json.loads((tmp_path / "o" / "run_seed1.json").read_text())
        assert (entry["divergence_step"], entry["n_steps"]) == (34, 34)
        names = ["loss_sup", "loss_con", "loss_kl", "g_b", "g_d", "g_sup"]
        assert entry["divergence"] == {
            "losses": dict.fromkeys(names[:3]),
            "grad_norms": dict.fromkeys(names[3:]),
            "non_finite": [*names, "update"],
        }
        # The last finite parameters overflow on the test split: no
        # prediction, so no metrics.
        assert entry["confusion"] is None
        assert entry["final_bacc"] is None and entry["final_gm"] is None
        assert [w for w in caught if w.category is RuntimeWarning] == []
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_all_seeds_failing_exits_one(self, tmp_path, monkeypatch, capsys):
        import lcgclab.runner as R

        def always_fail(ds, hidden, settings, seed, step_callback=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(R, "run_training", always_fail)
        cfg = self.write_cfg(tmp_path)
        code = main(["train", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        text = (tmp_path / "o" / "aggregate.json").read_text()
        agg = json.loads(text, parse_constant=reject)
        for key in ("bacc_mean", "bacc_se", "gm_mean", "gm_se"):
            assert agg[key] is None
        assert "bacc n/a +- n/a over 0 seeds" in capsys.readouterr().out
