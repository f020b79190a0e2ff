"""Runs one workload for a given time and turns the passes into metrics.

Untraced runs give the end-to-end metrics. A traced run alternates an
untraced pass with a traced pass of the same inputs, requires the two to
agree bit for bit, and reports per-layer metrics from the traced passes
together with the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans as S
from workloads import WORKLOADS, Sizes

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_seconds() -> float:
    """Time to import lcgclab in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import lcgclab\n"
        "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    from lcgclab import kernels

    info = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "backend": kernels.backend_name(),
        "commit": _commit(),
    }
    return info


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the env setting."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = Sizes(),
    out_root: Path | None = None,
) -> dict:
    """Set up and run one workload; return the result and its details."""
    out_root = Path(out_root) if out_root is not None else ROOT / ".perfbench_out"
    workdir = out_root / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[name]
    wl = None
    try:
        # Each set-up: import in a fresh interpreter, then the in-process
        # set-up, scaled like the passes by the machine speed around it.
        probe = cls.probe()
        setups, speed = [], [probe.factor()]
        for _ in range(sizes.setup_reps):
            if wl is not None:
                wl.close()
            import_s = import_seconds()
            t0 = clock()
            wl = cls(seed, sizes, workdir)
            wl.setup()
            setups.append(import_s + clock() - t0)
            speed.append(probe.factor())
        scaled = [t * 2 / (a + b) for t, a, b in zip(setups, speed, speed[1:])]
        if trace:
            res = _traced(wl, seconds, statistics.median(setups))
        else:
            res = _untraced(wl, seconds)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    details = res["details"]
    details.update(
        workload=name,
        seed=seed,
        trace=bool(trace),
        setup_unscaled_s=setups,
        provenance=provenance(),
    )
    if not trace:
        res["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        res["metrics"] = {k: res["metrics"][k] for k, _ in END_TO_END}
    else:
        trace_file = out_root / f"trace-{name}-seed{seed}.json"
        out_root.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(details, indent=1, sort_keys=True))
        details["trace_file"] = str(trace_file)
        details.pop("spans_sample", None)
        details.pop("per_span", None)
    return res


def _check_repeats(passes, first: str, label: str, problems: list) -> int:
    failed = 0
    for i, p in enumerate(passes):
        if p.fingerprint != first:
            problems.append(f"{label} pass {i} differs from the first pass")
            failed += p.attempted - p.failed
    return failed


def _loop(seconds: float, step) -> list:
    """Call ``step`` at least once, and again while the next call is
    expected to end within ``seconds`` of the start."""
    out, took = [], []
    t_start = clock()
    while True:
        t0 = clock()
        out.append(step())
        took.append(clock() - t0)
        if clock() - t_start + statistics.median(took) > seconds:
            return out


def _beyond(n: int) -> int:
    """Samples beyond the tail: ten, or all but one of a tiny pass."""
    return min(10, n - 1)


def _timings(passes, f: list) -> dict:
    """Pass and op times, each pass divided by its speed factor."""
    walls = [p.wall / fi for p, fi in zip(passes, f)]
    lat = [np.asarray(p.latencies) / fi for p, fi in zip(passes, f)]
    k = _beyond(len(lat[0]))
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(p.attempted for p in passes) / sum(walls),
        "op_ms_p50": float(np.median(np.concatenate(lat))) * 1e3,
        "op_ms_tail": float(statistics.median(np.sort(x)[-k - 1] for x in lat)) * 1e3,
    }


def _untraced(wl, seconds: float) -> dict:
    probe = wl.probe()
    speed = [probe.factor()]

    def step():
        p = wl.run_pass()
        speed.append(probe.factor())
        return p

    passes = _loop(seconds, step)
    problems = [f"pass {i}: {m}" for i, p in enumerate(passes) for m in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failed += _check_repeats(passes, passes[0].fingerprint, "untraced", problems)

    # Each pass is scaled by the machine speed probed on either side of it.
    f = [(a + b) / 2 for a, b in zip(speed, speed[1:])]
    values = _timings(passes, f)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END if k in values}
    raw = _timings(passes, [1.0] * len(passes))
    per_pass = len(passes[0].latencies)
    stats = {k: [p.stats[k] for p in passes] for k in passes[0].stats}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "op": wl.op_label,
            "passes": len(passes),
            "latency_samples": sum(len(p.latencies) for p in passes),
            "tail": f"p{100 * (1 - _beyond(per_pass) / per_pass):.4g} of each pass "
                    f"({_beyond(per_pass)} of {per_pass} samples beyond it), "
                    "median over passes",
            "speed_factors": f,
            "error_rate": failed / attempted,
            "problems": problems[:20],
            "pass_stats": stats,
            "aliases": {
                alias: (raw[k] * factor, unit)
                for k, (alias, factor, unit) in wl.aliases.items()
            },
        },
    }


def _traced(wl, seconds: float, setup_s: float) -> dict:
    tracer = S.Tracer(wl.op_root)
    totals = S.Totals()
    untraced, traced, violations, problems = [], [], [], []
    sample = []

    def step():
        nonlocal sample
        untraced.append(wl.run_pass())
        with tracer:
            traced.append(wl.run_pass())
        spans = tracer.take()
        violations.extend(S.check_spans(spans, tracer.op_root)[:20])
        totals.add(spans, tracer.op_root)
        # Everything up to the fourth op of the last pass goes to the file.
        roots = [i for i, s in enumerate(spans) if s[0] == tracer.op_root]
        sample = spans[: roots[3] if len(roots) > 3 else len(spans)]

    _loop(seconds, step)
    passes = untraced + traced
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {m}" for m in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    first = untraced[0].fingerprint
    failed += _check_repeats(untraced, first, "untraced", problems)
    failed += _check_repeats(traced, first, "traced", problems)
    if violations:
        problems.append(f"{len(violations)} span structure violations")

    overhead = sum(p.wall for p in traced) / sum(p.wall for p in untraced)
    lat = [x for p in traced for x in p.latencies]
    stats = {k: [p.stats[k] for p in traced] for k in traced[0].stats}
    values, absent = layer_metrics(
        totals, wl, stats, overhead, float(np.mean(lat)), setup_s
    )
    n = totals.n_ops
    per_op_us = {k: d / n * 1e6 for k, d in totals.total_in.items()}
    per_op_us.update({
        f"debias.{st}": sum(
            d for k, d in totals.stage.items() if S.TRAIN_STAGES.get(k) == st
        ) / n * 1e6
        for st in S.STAGES
    } if wl.op_root == "debias.train_step" else {})
    if "debias.train_step" in totals.self_in:
        per_op_us["debias.train_step.self"] = totals.self_in["debias.train_step"] / n * 1e6
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "op": wl.op_label,
            "traced_passes": len(traced),
            "traced_ops": totals.n_ops,
            "error_rate": failed / attempted,
            "problems": problems[:20],
            "violations": violations[:20],
            "wrapped": list(S.SPAN_NAMES),
            "absent_spans": sorted(set(S.SPAN_NAMES) - totals.reached()),
            "absent_metrics": absent,
            "unstaged": (
                sorted(set(totals.stage) - set(S.TRAIN_STAGES))
                if wl.op_root == "debias.train_step" else []
            ),
            "pass_stats": stats,
            "per_op_us": per_op_us,
            "per_span": totals.per_span(),
            "spans_sample": [
                (S.SPAN_NAMES[s[0]], *s[1:]) for s in sample
            ],
        },
    }


KERNEL_SPANS = tuple(f"kernels.{k}" for k in S.KERNELS)
TRAIN_STEP = ("debias.train_step",)
CLI = ("cli.main",)

# name, unit, the spans it is built from. Times of spans that only some
# workloads reach are shares (of the op, or of the cli call for the
# cli-side layers), so that an absent one reads as a share of 0, not as
# a time: the result line must carry every name on every workload. A
# metric whose spans were never reached is listed in ``absent_metrics``.
# The report lines print the absolute times as well.
PER_LAYER: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("tensor.apply_op.calls", "calls/op", ("tensor.apply_op",)),
    ("tensor.leaf_copies", "count/op", ("tensor.Tensor.__init__",)),
    ("tensor.leaf_bytes", "B/op", ("tensor.Tensor.__init__",)),
    ("tensor.backward.calls", "calls/op", ("tensor.backward",)),
    ("tensor.self_share", "ratio", ("tensor.apply_op",)),
    *(
        m
        for k in KERNEL_SPANS
        for m in ((f"{k}.calls", "calls/op", (k,)), (f"{k}.share", "ratio", (k,)))
    ),
    ("kernels.flops_computed", "flop/op", KERNEL_SPANS),
    ("kernels.bytes_computed", "B/op", KERNEL_SPANS),
    ("kernels.share", "ratio", KERNEL_SPANS),
    ("model.forward.calls", "calls/op", ("model.forward_logits",)),
    ("model.forward.rows", "rows/op", ("model.forward_logits",)),
    ("model.forward.share", "ratio", ("model.forward_logits",)),
    ("model.apply_update.share", "ratio", ("model.ModelParams.apply_update",)),
    ("model.load_checkpoint.share", "ratio", ("setup:model.load_checkpoint_ms",)),
    *((f"debias.{st}.share", "ratio", TRAIN_STEP) for st in S.STAGES),
    ("debias.train_step.self_share", "ratio", TRAIN_STEP),
    ("debias.stages_share", "ratio", TRAIN_STEP),
    ("debias.conflict_rate", "ratio", TRAIN_STEP),
    ("debias.integrated_gradients.share", "ratio", ("debias.integrated_gradients",)),
    ("debias.ig_rows", "rows/op", ("debias.integrated_gradients",)),
    ("debias.ig_max_residual", "logit", ("debias.verify_theorem1",)),
    ("debias.evaluate_ms", "ms/call", ("debias.evaluate",)),
    ("data.sample_minibatch.share", "ratio", ("data.sample_minibatch",)),
    ("data.aug.share", "ratio", ("data.weak_aug", "data.strong_aug")),
    ("data.synthesize_ms", "ms/call", ("data.synthesize", "setup:data.synthesize_ms")),
    ("losses.pseudo_label.share", "ratio", ("losses.pseudo_label",)),
    ("losses.consistency_loss.share", "ratio", ("losses.consistency_loss",)),
    ("losses.supervised_loss.share", "ratio", ("losses.supervised_loss",)),
    ("losses.mask_rate", "ratio", ("losses.pseudo_label",)),
    (
        "losses.remix.share", "ratio",
        ("losses.ema_update", "losses.distribution_alignment", "losses.sharpen"),
    ),
    ("runner.overhead.share", "ratio", ("runner.run",)),
    ("fileio.writes", "count/call", ("fileio.atomic_write_bytes",)),
    ("fileio.bytes", "B/call", ("fileio.atomic_write_bytes",)),
    ("fileio.write.share", "ratio", ("fileio.atomic_write_bytes",)),
    ("config.parse.share", "ratio", ("config.parse_config",)),
    ("cli.main.self_share", "ratio", CLI),
    ("metrics.confusion.us", "us/call", ("metrics.confusion",)),
    ("trace.op_us", "us/op", ()),
    ("trace.overhead", "ratio", ()),
    ("trace.absent_spans", "count", ()),
)


def layer_metrics(
    t: S.Totals, wl, stats: dict, overhead: float, step_s: float, setup_s: float
):
    """Per-layer values from traced totals. Per-op values divide by the
    number of ops traced, shares by the ops' total time, ``/call`` values
    by that function's calls."""
    n = t.n_ops

    def per_op(d, names):
        return sum(d.get(x, 0) for x in names) / n

    # By unit, what a per-op metric sums over its spans and the divisor.
    by_unit = {
        "ratio": (t.total_in, t.op_time / n),
        "calls/op": (t.calls_in, 1),
        "count/op": (t.calls_in, 1),
        "rows/op": (t.x1_in, 1),
    }
    v = {
        name: per_op(by_unit[unit][0], src) / by_unit[unit][1]
        for name, unit, src in PER_LAYER
        if unit in by_unit and src
    }
    stage = {st: 0.0 for st in S.STAGES}
    for name, dur in t.stage.items():
        if name in S.TRAIN_STAGES:
            stage[S.TRAIN_STAGES[name]] += dur
    for st in S.STAGES:
        v[f"debias.{st}.share"] = stage[st] / t.op_time
    step_self = t.self_in.get("debias.train_step", 0.0)
    v.update({
        "tensor.leaf_bytes": per_op(t.x1_in, ["tensor.Tensor.__init__"]),
        "tensor.self_share": sum(
            dur for x, dur in t.self_in.items() if x.startswith("tensor.")
        ) / t.op_time,
        "kernels.flops_computed": per_op(t.x1_in, KERNEL_SPANS),
        "kernels.bytes_computed": per_op(t.x2_in, KERNEL_SPANS),
        "debias.train_step.self_share": step_self / t.op_time,
        "debias.stages_share": (sum(stage.values()) + step_self) / n / step_s,
        "trace.op_us": t.op_time / n * 1e6,
        "trace.overhead": overhead,
        "trace.absent_spans": float(len(set(S.SPAN_NAMES) - t.reached())),
    })
    if "conflict_rate" in stats:
        v["debias.conflict_rate"] = float(np.mean(stats["conflict_rate"]))
        v["losses.mask_rate"] = float(np.mean(stats["mask_rate"]))
    if "ig_max_residual" in stats:
        v["debias.ig_max_residual"] = max(stats["ig_max_residual"])
    for key, name, scale in (
        ("debias.evaluate_ms", "debias.evaluate", 1e3),
        ("metrics.confusion.us", "metrics.confusion", 1e6),
        ("data.synthesize_ms", "data.synthesize", 1e3),
    ):
        if name in t.calls_all:
            v[key] = t.total_all[name] / t.calls_all[name] * scale
    if "data.synthesize_ms" not in v:
        v["data.synthesize_ms"] = statistics.median(wl.setup_ms["data.synthesize_ms"])
    if "model.load_checkpoint_ms" in wl.setup_ms:
        load_s = statistics.median(wl.setup_ms["model.load_checkpoint_ms"]) / 1e3
        v["model.load_checkpoint.share"] = load_s / setup_s
    cli_s = t.total_all.get("cli.main", 0.0)
    if cli_s:
        cli_calls = t.calls_all["cli.main"]
        w = "fileio.atomic_write_bytes"
        v.update({
            "cli.main.self_share": t.self_all["cli.main"] / cli_s,
            "runner.overhead.share": (
                t.total_all["runner.run"] - t.total_all["debias.run_training"]
            ) / cli_s,
            "config.parse.share": t.total_all["config.parse_config"] / cli_s,
            "fileio.writes": t.calls_all[w] / cli_calls,
            "fileio.bytes": t.x1_all[w] / cli_calls,
            "fileio.write.share": t.total_all[w] / cli_s,
        })

    reached = t.reached() | {f"setup:{k}" for k in wl.setup_ms}
    absent = [
        name for name, _, src in PER_LAYER
        if name not in v or (src and not set(src) & reached)
    ]
    for name in absent:
        v.pop(name, None)
    return v, absent
