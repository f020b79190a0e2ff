"""Tiny-size self-test of the benchmark.

    python3 -m pytest perfbench/tests

Runs every workload once untraced and once traced at the ``TINY`` size
and checks the result against BENCHMARK.json: every metric appears with
its unit, self times are non-negative, and each op's spans nest under
the op.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

from lcgclab import config, data, debias, kernels, tensor  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in BENCH[k]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (n, u) for n, u, _ in harness.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_with_its_unit(name, trace, tmp_path):
    res = harness.run(
        name, seed=3, seconds=0.0, trace=trace, sizes=TINY,
        out_root=tmp_path,
    )
    d = res["details"]
    assert res["correct"], d["problems"]
    assert res["failed"] == 0 and res["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    for v in res["metrics"].values():
        assert isinstance(v["value"], float) and math.isfinite(v["value"])
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
        return
    assert d["violations"] == []
    assert set(d["absent_metrics"]) <= set(res["metrics"])
    # An absent metric reads 0 on every run, which must never be a time.
    for name in d["absent_metrics"]:
        assert res["metrics"][name]["unit"].split("/")[0] not in ("s", "ms", "us")
    assert set(d["absent_spans"]) <= set(spans.SPAN_NAMES)
    assert d["unstaged"] == []
    assert Path(d["trace_file"]).is_file()


def test_absent_metrics_follow_the_code_path(tmp_path):
    small = harness.run("train-small", 3, 0.0, True, TINY, tmp_path)
    wide = harness.run("train-wide", 3, 0.0, True, TINY, tmp_path)
    assert "losses.remix.share" in small["details"]["absent_metrics"]
    assert "losses.remix.share" not in wide["details"]["absent_metrics"]
    assert "cli.main" in small["details"]["absent_spans"]


def test_spans_nest_under_their_op():
    cfg = config.default_config()
    ds = data.synthesize(replace(cfg.spec, n_max_labeled=40, n_max_unlabeled=80,
                                 gamma_labeled=4.0, gamma_unlabeled=4.0))
    settings = replace(cfg.train_settings(), steps=3)
    original = kernels.matmul
    with spans.Tracer("debias.train_step") as tr:
        assert kernels.matmul is not original
        debias.run_training(ds, (8,), settings, seed=1)
    assert kernels.matmul is original
    assert tensor.Tensor.__init__.__name__ == "__init__"
    sp = tr.take()
    assert spans.check_spans(sp, tr.op_root) == []
    roots = {s[4]: i for i, s in enumerate(sp) if s[0] == tr.op_root}
    assert sorted(roots) == [0, 1, 2]
    for i, s in enumerate(sp):
        if s[4] < 0:
            continue
        j = i
        while sp[j][0] != tr.op_root:
            j = sp[j][3]
        assert j == roots[s[4]]
        assert sp[j][1] <= s[1] and s[2] <= sp[j][2]
    totals = spans.Totals()
    totals.add(sp, tr.op_root)
    assert totals.n_ops == 3
    assert min(totals.self_all.values()) >= -1e-9
    assert set(totals.stage) <= set(spans.TRAIN_STAGES)


def test_check_spans_flags_a_span_outside_its_parent():
    root = spans.SPAN_NAMES.index("debias.train_step")
    mm = spans.SPAN_NAMES.index("kernels.matmul")
    good = [(root, 0.0, 1.0, -1, 0, 0, 0), (mm, 0.2, 0.4, 0, 0, 0, 0)]
    assert spans.check_spans(good, root) == []
    bad = [(root, 0.0, 1.0, -1, 0, 0, 0), (mm, 0.5, 1.5, 0, 0, 0, 0)]
    assert spans.check_spans(bad, root)
