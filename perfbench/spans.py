"""Span tracing of lcgclab from outside the package.

The tracer swaps the module attributes the package looks up at call
time (``lcgclab.kernels.matmul``, ``tensor.apply_op`` and its
``from .tensor import`` copy in ``debias``, ``runner.atomic_write_text``
...) for wrappers that record one span per call: name, start, end,
parent span and the id of the workload op it ran under. Nothing under
``src/`` changes, and ``uninstall`` puts every original back.

Spans are kept in memory and turned into per-layer metrics after each
traced pass. A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

LAYERS = (
    "data", "model", "tensor", "kernels", "losses", "debias",
    "metrics", "runner", "fileio", "config", "cli",
)

KERNELS = (
    "matmul", "matmul_tn", "matmul_nt", "add_rowvec", "sum_rows",
    "relu", "relu_vjp", "log_softmax_rows", "softmax_rows",
)


# Operation counts and bytes moved are computed from operand shapes, not
# measured: 2mkn flops per matrix product, a fixed count per element
# otherwise; every operand is read once and the result written once, 8
# bytes per float64.
def _mm(a, b):
    m, k = a.shape
    n = b.shape[1]
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def _mm_tn(a, g):
    m, k = a.shape
    n = g.shape[1]
    return 2 * m * k * n, 8 * (m * k + m * n + k * n)


def _mm_nt(g, b):
    m, n = g.shape
    k = b.shape[0]
    return 2 * m * n * k, 8 * (m * n + k * n + m * k)


def _elementwise(flops_per, arrays):
    return lambda x, *_: (flops_per * x.size, 8 * arrays * x.size)


_KERNEL_COST = {
    "matmul": _mm,
    "matmul_tn": _mm_tn,
    "matmul_nt": _mm_nt,
    "add_rowvec": lambda a, v: (a.size, 8 * (2 * a.size + v.size)),
    "sum_rows": lambda g: (g.size, 8 * (g.size + g.shape[1])),
    "relu": _elementwise(1, 2),
    "relu_vjp": _elementwise(1, 3),
    "log_softmax_rows": _elementwise(5, 2),
    "softmax_rows": _elementwise(4, 2),
}


def _kernel_extra(cost):
    return lambda args, kwargs: cost(*args)


def _forward_rows(args, kwargs):
    return args[1].shape[0], 0


def _leaf_bytes(args, kwargs):
    return args[0].data.nbytes, 0


def _write_bytes(args, kwargs):
    return len(args[1]), 0


def _ig_rows(args, kwargs):
    return (args[4] if len(args) > 4 else kwargs["steps"]), 0


# (module, attribute path, extra counter) for every wrapped function.
# Attribute paths with a dot name a method on a class.
TARGETS: tuple[tuple[str, str, object], ...] = (
    ("data", "synthesize", None),
    ("data", "sample_minibatch", None),
    ("data", "weak_aug", None),
    ("data", "strong_aug", None),
    ("model", "init_mlp", None),
    ("model", "forward_logits", _forward_rows),
    ("model", "logits_array", None),
    ("model", "ModelParams.apply_update", None),
    ("model", "save_checkpoint", None),
    ("model", "load_checkpoint", None),
    ("tensor", "Tensor.__init__", _leaf_bytes),
    ("tensor", "apply_op", None),
    ("tensor", "backward", None),
    ("tensor", "zero_grads", None),
    ("tensor", "flatten_grads", None),
    ("tensor", "matmul", None),
    ("tensor", "add", None),
    ("tensor", "add_rowvec", None),
    ("tensor", "mul", None),
    ("tensor", "scale", None),
    ("tensor", "relu", None),
    ("tensor", "sum_all", None),
    ("tensor", "softmax", None),
    ("tensor", "log_softmax", None),
    ("tensor", "cross_entropy", None),
    *(("kernels", k, _kernel_extra(_KERNEL_COST[k])) for k in KERNELS),
    ("losses", "pseudo_label", None),
    ("losses", "supervised_loss", None),
    ("losses", "consistency_loss", None),
    ("losses", "distribution_alignment", None),
    ("losses", "sharpen", None),
    ("losses", "ema_update", None),
    ("debias", "run_training", None),
    ("debias", "train_step", None),
    ("debias", "_grad_d_with_loss", None),
    ("debias", "_grad_b_with_loss", None),
    ("debias", "lcgc_combine", None),
    ("debias", "baseline_logits", None),
    ("debias", "kl_consistency_loss", None),
    ("debias", "make_baseline", None),
    ("debias", "evaluate", None),
    ("debias", "integrated_gradients", _ig_rows),
    ("debias", "verify_theorem1", None),
    ("metrics", "confusion", None),
    ("metrics", "bacc", None),
    ("metrics", "gm", None),
    ("runner", "run", None),
    ("runner", "_steps_csv", None),
    ("fileio", "atomic_write_bytes", _write_bytes),
    ("fileio", "atomic_write_text", None),
    ("fileio", "dump_json", None),
    ("config", "parse_config", None),
    ("config", "parse_config_text", None),
    ("cli", "main", None),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path, _ in TARGETS)

# A span record: (name index, start, end, parent index, op id, x1, x2).
# x1/x2 carry the extra counters (rows, bytes, flops); op id is -1
# outside any workload op.


class Tracer:
    """Wraps the package's functions and records one span per call.

    ``op_root`` names the function whose calls are the workload's ops
    (``debias.train_step`` or ``debias.verify_theorem1``); every span
    opened inside one carries that op's id.
    """

    def __init__(self, op_root: str):
        if op_root not in SPAN_NAMES:
            raise ValueError(f"unknown op root {op_root!r}")
        self.op_root = SPAN_NAMES.index(op_root)
        self.spans: list = []
        self._stack: list[int] = []
        self._op = [-1, 0]  # current op id, next op id
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, extra):
        spans, stack, op = self.spans, self._stack, self._op
        clock = time.perf_counter
        is_root = nid == self.op_root

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            if is_root:
                op[0] = op[1]
                op[1] += 1
            cur = op[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, t0, clock(), parent, cur, 0, 0)
                stack.pop()
                if is_root:
                    op[0] = -1
                raise
            t1 = clock()
            stack.pop()
            if is_root:
                op[0] = -1
            x1, x2 = extra(args, kwargs) if extra is not None else (0, 0)
            spans[idx] = (nid, t0, t1, parent, cur, x1, x2)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self) -> None:
        """Replace every binding of every target, in every lcgclab module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("lcgclab")
        mods = [pkg] + [importlib.import_module(f"lcgclab.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        for nid, (mod, path, extra) in enumerate(TARGETS):
            owner = importlib.import_module(f"lcgclab.{mod}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(nid, fn, extra))
                continue
            fn = getattr(owner, path)
            wrappers[id(fn)] = self._wrap(nid, fn, extra)
        for m in mods:
            for attr, val in list(vars(m).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._undo.append((m, attr, val))
                    setattr(m, attr, w)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def take(self) -> list:
        """Hand over the recorded spans and start an empty record."""
        out = list(self.spans)
        self.spans.clear()
        return out


def check_spans(spans: list, op_root: int) -> list[str]:
    """Structural checks: each span lies inside its parent's interval,
    carries its parent's op id (or is an op root), and has a
    non-negative self time. Returns one message per violation."""
    bad: list[str] = []
    child = [0.0] * len(spans)
    for i, (nid, t0, t1, parent, op, _, _) in enumerate(spans):
        if parent < 0:
            if op >= 0 and nid != op_root:
                bad.append(f"span {i} ({SPAN_NAMES[nid]}) in op {op} has no parent")
            continue
        p = spans[parent]
        child[parent] += t1 - t0
        if t0 < p[1] or t1 > p[2]:
            bad.append(f"span {i} ({SPAN_NAMES[nid]}) leaves its parent's interval")
        if nid == op_root:
            continue
        if op != p[4]:
            bad.append(f"span {i} ({SPAN_NAMES[nid]}) op {op} != parent op {p[4]}")
    for i, s in enumerate(spans):
        if (s[2] - s[1]) - child[i] < -1e-9:
            bad.append(f"span {i} ({SPAN_NAMES[s[0]]}) has negative self time")
    return bad


@dataclass
class Totals:
    """Per-span-name sums, split into inside workload ops and overall."""

    n_ops: int = 0
    op_time: float = 0.0
    calls_in: dict = field(default_factory=dict)
    total_in: dict = field(default_factory=dict)
    self_in: dict = field(default_factory=dict)
    x1_in: dict = field(default_factory=dict)
    x2_in: dict = field(default_factory=dict)
    calls_all: dict = field(default_factory=dict)
    total_all: dict = field(default_factory=dict)
    self_all: dict = field(default_factory=dict)
    x1_all: dict = field(default_factory=dict)
    stage: dict = field(default_factory=dict)  # direct children of op roots

    def add(self, spans: list, op_root: int) -> None:
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, parent, op, x1, x2) in enumerate(spans):
            name = SPAN_NAMES[nid]
            dur = t1 - t0
            self_t = dur - child[i]
            _inc(self.calls_all, name, 1)
            _inc(self.total_all, name, dur)
            _inc(self.self_all, name, self_t)
            _inc(self.x1_all, name, x1)
            if nid == op_root:
                self.n_ops += 1
                self.op_time += dur
            if op < 0:
                continue
            _inc(self.calls_in, name, 1)
            _inc(self.total_in, name, dur)
            _inc(self.self_in, name, self_t)
            _inc(self.x1_in, name, x1)
            _inc(self.x2_in, name, x2)
            if parent >= 0 and spans[parent][0] == op_root:
                _inc(self.stage, name, dur)

    def reached(self) -> set[str]:
        return set(self.calls_all)

    def per_span(self) -> dict:
        """Calls, total and self seconds per span name, for the trace file."""
        return {
            n: {
                "calls": self.calls_all[n],
                "total_s": self.total_all[n],
                "self_s": self.self_all[n],
                "calls_in_ops": self.calls_in.get(n, 0),
            }
            for n in sorted(self.calls_all)
        }


def _inc(d: dict, k: str, v) -> None:
    d[k] = d.get(k, 0) + v


# Direct children of debias.train_step, grouped into the stages of a
# step. Together with train_step's self time they cover the whole step;
# a direct child missing from this table shows up in ``unstaged``.
TRAIN_STAGES = {
    "data.sample_minibatch": "sample_aug",
    "data.weak_aug": "sample_aug",
    "model.logits_array": "pseudo_forward",
    "debias.baseline_logits": "pseudo_forward",
    "losses.pseudo_label": "pseudo_forward",
    "kernels.softmax_rows": "pseudo_forward",
    "losses.ema_update": "pseudo_forward",
    "losses.distribution_alignment": "pseudo_forward",
    "losses.sharpen": "pseudo_forward",
    "debias._grad_d_with_loss": "grad_d",
    "debias._grad_b_with_loss": "grad_b",
    "tensor.zero_grads": "grad_sup",
    "losses.supervised_loss": "grad_sup",
    "tensor.backward": "grad_sup",
    "tensor.flatten_grads": "grad_sup",
    "debias.lcgc_combine": "combine",
    "model.ModelParams.apply_update": "combine",
}
STAGES = ("sample_aug", "pseudo_forward", "grad_d", "grad_b", "grad_sup", "combine")
