"""The four benchmark workloads and the closed loop that times them.

Each workload builds its inputs from the benchmark seed in ``setup`` and
then repeats one fixed unit of work, a *pass*, until the run time is
spent. One synchronous caller drives the public lcgclab API from this
process. A pass is made of *ops*, the unit the latency metrics count:

    train-small  pass = run_training for 250 steps on the default
                 config; op = one train step
    train-wide   pass = run_training for 100 steps with the remix-lite
                 backbone, d = 64, hidden 256,256, B = 128; op = one
                 train step
    audit        pass = verify_theorem1 on consecutive chunks of the
                 test split, then one evaluate; op = one verify call
    grid-cell    pass = one in-process ``lcgclab train`` of an
                 acceptance-grid cell (gamma_unlabeled 150, lcgc, seeds
                 1..5, 50 steps each); op = one train step

Every pass is checked, and every pass of a run must reproduce the first
one bit for bit, since the inputs are the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lcgclab import cli, config, data, debias, model, runner, tensor

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """How much work one pass and one set-up do."""

    train_small_steps: int = 250
    train_wide_steps: int = 100
    audit_train_steps: int = 300
    audit_chunk: int = 8
    audit_samples: int = 0  # 0: the whole test split
    ig_steps: int = 128  # the lcgc.ig_steps default
    grid_steps: int = 50
    setup_reps: int = 5


# A tiny size for the self-test: every code path, a fraction of the work.
TINY = Sizes(
    train_small_steps=40,
    train_wide_steps=20,
    audit_train_steps=30,
    audit_samples=16,
    ig_steps=8,
    grid_steps=6,
    setup_reps=1,
)


@dataclass
class PassResult:
    wall: float
    attempted: int
    failed: int
    latencies: list  # seconds per op
    fingerprint: str
    problems: list
    stats: dict


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _step_latencies(times: list) -> list:
    """Gaps between consecutive step callbacks; None marks the start of a
    run_training call, whose first step also carries model init."""
    out = []
    prev = None
    for t in times:
        if t is not None and prev is not None:
            out.append(t - prev)
        prev = t
    return out


class Probe:
    """A fixed plain-numpy MLP forward and backward, independent of
    lcgclab, at one workload's shapes. ``factor`` is its current time over
    ``ref_s``, its typical time on the reference machine (a 2-vCPU Intel
    Xeon VM, OpenBLAS on one thread): how much slower than that the
    machine runs right now. On a shared host the factor drifts by tens of
    percent within seconds, so each pass's times are divided by the
    factor probed on either side of it."""

    def __init__(self, rows: int, dims: tuple, iters: int, ref_s: float):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((rows, dims[0]))
        self.ws = [
            rng.standard_normal((a, b)) / np.sqrt(a) for a, b in zip(dims, dims[1:])
        ]
        self.iters = iters
        self.ref_s = ref_s
        self._once()  # first-call allocations are not machine speed

    def _once(self) -> None:
        h, acts = self.x, []
        for w in self.ws[:-1]:
            z = h @ w
            acts.append((h, z))
            h = np.maximum(z, 0.0)
        z = h @ self.ws[-1]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        h.T @ g
        g = g @ self.ws[-1].T
        for (h, z), w in zip(reversed(acts), reversed(self.ws[:-1])):
            g = np.where(z > 0.0, g, 0.0)
            h.T @ g
            g = g @ w.T

    def factor(self, reps: int = 3) -> float:
        times = []
        for _ in range(reps):
            t0 = clock()
            for _ in range(self.iters):
                self._once()
            times.append(clock() - t0)
        return sorted(times)[reps // 2] / self.ref_s


class Workload:
    name = ""
    op_root = ""
    op_label = ""  # what one op is, for the printed report
    # End-to-end metric -> (its per-workload name in the report, factor, unit)
    aliases = {
        "op_ms_p50": ("step_ms_p50", 1, "ms"),
        "op_ms_tail": ("step_ms_tail", 1, "ms"),
        "ops_per_s": ("steps_per_s", 1, "steps/s"),
    }

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.setup_ms: dict[str, list] = {}

    def _time(self, key: str, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        self.setup_ms.setdefault(key, []).append((clock() - t0) * 1e3)
        return out

    @classmethod
    def probe(cls) -> Probe:
        return Probe(192, (32, 64, 10), 20, 4.9e-3)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _Train(Workload):
    op_root = "debias.train_step"
    op_label = "train step"

    def _config(self) -> config.ExperimentConfig:
        raise NotImplementedError

    def setup(self) -> None:
        cfg = self._config()
        self.hidden = cfg.hidden
        self.settings = cfg.train_settings()
        self.ds = self._time("data.synthesize_ms", data.synthesize, cfg.spec)

    def run_pass(self) -> PassResult:
        times: list = [None]
        t0 = clock()
        params, run = debias.run_training(
            self.ds, self.hidden, self.settings, self.seed,
            step_callback=lambda p, r: times.append(clock()),
        )
        wall = clock() - t0
        attempted = self.settings.steps
        problems = []
        bad = sum(
            1 for r in run.steps
            if not np.isfinite([r.loss_sup, r.loss_con, r.loss_kl]).all()
        )
        failed = bad + attempted - len(run.steps)
        if bad:
            problems.append(f"{bad} steps with non-finite losses")
        if run.diverged:
            problems.append(f"diverged at step {run.divergence_step}")
        chance = 1.0 / self.ds.classes
        if not run.final_bacc > chance:
            problems.append(f"final bACC {run.final_bacc} not above chance {chance}")
            failed = attempted
        records = repr([tuple(vars(r).values()) for r in run.steps])
        return PassResult(
            wall=wall,
            attempted=attempted,
            failed=failed,
            latencies=_step_latencies(times),
            fingerprint=_digest(
                tensor.flatten_values(params.tensors()).tobytes(),
                records.encode(),
            ),
            problems=problems,
            stats={
                "conflict_rate": float(np.mean([r.conflict for r in run.steps])),
                "mask_rate": float(np.mean([r.mask_rate for r in run.steps])),
                "final_bacc": run.final_bacc,
            },
        )


class TrainSmall(_Train):
    name = "train-small"

    def _config(self):
        cfg = config.default_config()
        return cfg.override(
            spec=replace(cfg.spec, seed=self.seed),
            steps=self.sizes.train_small_steps,
        )


class TrainWide(_Train):
    name = "train-wide"

    @classmethod
    def probe(cls) -> Probe:
        return Probe(384, (64, 256, 256, 10), 1, 8.5e-3)

    def _config(self):
        cfg = config.default_config()
        return cfg.override(
            spec=replace(cfg.spec, dim=64, seed=self.seed),
            backbone="remix-lite",
            hidden=(256, 256),
            batch_size=128,
            mu=2,
            steps=self.sizes.train_wide_steps,
        )


class Audit(Workload):
    name = "audit"
    op_root = "debias.verify_theorem1"

    @property
    def op_label(self) -> str:
        return f"verify_theorem1 call on {self.sizes.audit_chunk} samples"

    @property
    def aliases(self):
        return {
            "op_ms_p50": ("audit_ms_p50", 1, "ms"),
            "op_ms_tail": ("audit_ms_tail", 1, "ms"),
            "ops_per_s": ("samples_per_s", self.sizes.audit_chunk, "samples/s"),
        }

    def setup(self) -> None:
        cfg = config.default_config()
        cfg = cfg.override(
            spec=replace(cfg.spec, seed=self.seed),
            steps=self.sizes.audit_train_steps,
        )
        ds = self._time("data.synthesize_ms", data.synthesize, cfg.spec)
        trained, _ = debias.run_training(
            ds, cfg.hidden, cfg.train_settings(), self.seed
        )
        path = self.workdir / "audit.ckpt"
        model.save_checkpoint(trained, path, extra={"seed": self.seed})
        params, extra = self._time(
            "model.load_checkpoint_ms", model.load_checkpoint, path
        )
        self.problems = []
        same = tensor.flatten_values(params.tensors()).tobytes() == (
            tensor.flatten_values(trained.tensors()).tobytes()
        )
        if not same or extra != {"seed": self.seed}:
            self.problems.append("checkpoint round trip changed the model")
        self.params = params
        self.ds = ds
        self.baseline = debias.make_baseline(
            cfg.baseline_color, ds.dim, ds.value_range()
        )
        n = self.sizes.audit_samples or ds.test_x.shape[0]
        k = self.sizes.audit_chunk
        self.chunks = [ds.test_x[i : i + k] for i in range(0, n - k + 1, k)]

    def run_pass(self) -> PassResult:
        latencies, parts = [], []
        failed = 0
        max_res = 0.0
        t0 = clock()
        for chunk in self.chunks:
            a = clock()
            rep = debias.verify_theorem1(
                self.params, chunk, self.baseline, self.sizes.ig_steps
            )
            latencies.append(clock() - a)
            if not np.isfinite(rep.residuals).all():
                failed += 1
            else:
                max_res = max(max_res, rep.max_residual)
            parts += [rep.residuals.tobytes(), rep.ig_sums.tobytes()]
        ev = debias.evaluate(
            self.params, self.ds.test_x, self.ds.test_y, baseline=self.baseline
        )
        wall = clock() - t0
        problems = list(self.problems)
        if failed:
            problems.append(f"{failed} calls with non-finite residuals")
        chance = 1.0 / self.ds.classes
        if not ev.bacc > chance:
            problems.append(f"test bACC {ev.bacc} not above chance {chance}")
            failed = len(self.chunks)
        if self.problems:
            failed = len(self.chunks)
        return PassResult(
            wall=wall,
            attempted=len(self.chunks),
            failed=failed,
            latencies=latencies,
            fingerprint=_digest(*parts, repr(ev.bacc).encode()),
            problems=problems,
            stats={"ig_max_residual": max_res, "test_bacc": ev.bacc},
        )


GRID_SEEDS = (1, 2, 3, 4, 5)


class GridCell(Workload):
    name = "grid-cell"
    op_root = "debias.train_step"
    op_label = "train step"

    def setup(self) -> None:
        self.cfg_path = self.workdir / "cell.cfg"
        self.out = self.workdir / "cell"
        text = (
            "# one acceptance-grid cell\n"
            "dataset.gamma_unlabeled = 150\n"
            f"dataset.seed = {self.seed}\n"
            "method = lcgc\n"
            f"seeds = {','.join(str(s) for s in GRID_SEEDS)}\n"
            f"train.steps = {self.sizes.grid_steps}\n"
        )
        self.cfg_path.write_text(text, encoding="utf-8")
        self._time("config.parse_ms", config.parse_config, self.cfg_path)
        # Time each step through run_training's public step_callback, the
        # same hook the train workloads use.
        self.times: list = []
        times = self.times

        def run_training(*args, **kwargs):
            times.append(None)
            return debias.run_training(
                *args, step_callback=lambda p, r: times.append(clock()), **kwargs
            )

        self._saved = runner.run_training
        runner.run_training = run_training

    def close(self) -> None:
        runner.run_training = self._saved

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.out, ignore_errors=True)
        self.times.clear()
        sink = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(["train", str(self.cfg_path), "--output", str(self.out)])
        wall = clock() - t0
        attempted = len(GRID_SEEDS) * self.sizes.grid_steps
        problems = []
        agg = json.loads((self.out / "aggregate.json").read_text())
        if rc != 0:
            problems.append(f"cli exit code {rc}")
        if agg["n_failed"] != 0 or agg["n_diverged"] != 0:
            problems.append(
                f"n_failed {agg['n_failed']}, n_diverged {agg['n_diverged']}"
            )
        parts, conflict, mask = [], [], []
        for f in sorted(self.out.iterdir()):
            raw = f.read_bytes()
            if f.suffix == ".json":
                raw = json.dumps(_strip_wall(json.loads(raw)), sort_keys=True).encode()
            elif f.name.startswith("steps_seed"):
                header, *rows = raw.decode().splitlines()
                ci, mi = (header.split(",").index(c) for c in ("conflict", "mask_rate"))
                for row in rows:
                    cols = row.split(",")
                    conflict.append(int(cols[ci]))
                    mask.append(float(cols[mi]))
            parts += [f.name.encode(), raw]
        steps = sum(e.get("n_steps", 0) for e in agg["per_seed"])
        return PassResult(
            wall=wall,
            attempted=attempted,
            failed=attempted if problems else attempted - steps,
            latencies=_step_latencies(self.times),
            fingerprint=_digest(*parts),
            problems=problems,
            stats={
                "conflict_rate": float(np.mean(conflict)),
                "mask_rate": float(np.mean(mask)),
                "bacc_mean": agg["bacc_mean"],
                "files": len(parts) // 2,
            },
        )


def _strip_wall(obj):
    """Drop every ``wall_time_s`` key, the only field allowed to differ
    between repeated runs of one config."""
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


WORKLOADS = {w.name: w for w in (TrainSmall, TrainWide, Audit, GridCell)}
