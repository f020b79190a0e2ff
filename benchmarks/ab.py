#!/usr/bin/env python3
"""Paired A/B recorder: the benchmark on a base revision against this checkout.

    python3 benchmarks/ab.py <base-rev> [--workload all] [--seed 1]

Checks ``base-rev`` out into a temporary ``git worktree`` (local, removed
afterwards) and runs ``perfbench/run.py --trace 0`` in both trees once per
pair, ten pairs, alternating which side goes first. The count is fixed:
the claim rule below needs at least ten pairs to mean anything. The run length is BENCHMARK.json's
``run_seconds``, the same on both sides. The head side is this checkout as it
is on disk, uncommitted changes included.

Writes ``BENCH_<head-short-sha>.json`` at the repository root, with
``-dirty`` after the sha when the checkout has uncommitted changes. For every
workload and end-to-end metric it holds the per-pair values of both sides,
each side's median and quartiles, the pairs each side won, the median change
against the metric's BENCHMARK.json bound, and a verdict:

    improved      the head side is better in at least 9 of every 10 pairs
                  (ties count for neither side) and the two medians differ
                  by more than the base side's interquartile range
    worse         the same rule with the sides swapped
    within noise  anything else

Beside each verdict it prints and stores ``sign_p``, the exact two-sided
sign-test p-value of the pair wins, ties dropped: 10 wins of 10 give
2/1024 (about 0.002), 9 of 10 give 22/1024 (about 0.021). It does not
enter the verdict.

Run against the checkout's own HEAD (an A/A run), every verdict should read
"within noise"; a rule that finds gains there would manufacture them.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def wins(base, head, better: str) -> tuple[int, int]:
    """Pairs won by (head, base); a tie counts for neither."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (h - b) for b, h in zip(base, head)]
    return sum(g > 0 for g in gains), sum(g < 0 for g in gains)


def sign_test_p(head_wins: int, base_wins: int) -> float:
    """Exact two-sided sign-test p-value of the pairs each side won
    (ties already dropped): twice the binomial(n, 1/2) tail at the
    smaller count, at most 1."""
    n, k = head_wins + base_wins, min(head_wins, base_wins)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n)


def verdict(base, head, better: str) -> str:
    """The claim rule of the module docstring, for one metric's pairs."""
    head_wins, base_wins = wins(base, head, better)
    q1, base_med, q3 = quartiles(base)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (quartiles(head)[1] - base_med)
    if abs(gain) > q3 - q1:
        if gain > 0 and 10 * head_wins >= 9 * len(base):
            return "improved"
        if gain < 0 and 10 * base_wins >= 9 * len(base):
            return "worse"
    return "within noise"


def summarize(pairs: list, metrics: dict) -> dict:
    """Per workload and metric: values, medians, quartiles and verdicts.

    ``pairs`` holds one ``{"base": results, "head": results}`` per pair,
    where results maps a workload to its perfbench result line;
    ``metrics`` maps a metric name to its BENCHMARK.json entry.
    """
    out = {}
    for wl in pairs[0]["base"]:
        runs = {s: [p[s][wl] for p in pairs] for s in ("base", "head")}
        row = {
            s: {
                "correct": [r["correct"] for r in rs],
                "attempted": sum(r["attempted"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
            }
            for s, rs in runs.items()
        }
        for name, m in metrics.items():
            base = [r["metrics"][name]["value"] for r in runs["base"]]
            head = [r["metrics"][name]["value"] for r in runs["head"]]
            bq1, bmed, bq3 = quartiles(base)
            hq1, hmed, hq3 = quartiles(head)
            change = hmed / bmed - 1.0
            worse_by = change if m["better"] == "lower" else -change
            row[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "base": base,
                "head": head,
                "base_median": bmed,
                "base_q1": bq1,
                "base_q3": bq3,
                "head_median": hmed,
                "head_q1": hq1,
                "head_q3": hq3,
                "head_wins": wins(base, head, m["better"])[0],
                "sign_p": sign_test_p(*wins(base, head, m["better"])),
                "median_change": change,
                "bound": m["bound"],
                "within_bound": worse_by <= m["bound"],
                "verdict": verdict(base, head, m["better"]),
            }
        out[wl] = row
    return out


def _git(*args: str) -> str:
    out = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


@contextmanager
def worktree(rev: str):
    """Revision ``rev`` checked out in a temporary ``git worktree``,
    which is removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="lcgclab-base-"))
    tree = tmp / "base"
    _git("worktree", "add", "--detach", str(tree), rev)
    try:
        yield tree
    finally:
        _git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)


def _run_side(tree: Path, command: list, workload: str, seed: int, seconds) -> tuple:
    """One benchmark run in ``tree``: (results by workload, provenance)."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"ab: {' '.join(cmd)} failed in {tree}")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    results = last["workloads"] if workload == "all" else {workload: last}
    tag = "# provenance "
    prov = next(
        (json.loads(ln[len(tag):]) for ln in out.stdout.splitlines()
         if ln.startswith(tag)),
        None,
    )
    return results, prov


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base_rev", help="revision to compare against, e.g. HEAD~1")
    p.add_argument("--workload", choices=[*workloads, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base_sha = _git("rev-parse", "--verify", f"{args.base_rev}^{{commit}}")
    head_sha = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain"))
    name = f"BENCH_{head_sha[:7]}{'-dirty' if dirty else ''}.json"

    pairs, provenance = [], {}
    with worktree(base_sha) as base_tree:
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"first": order[0]}
            for side in order:
                tree = base_tree if side == "base" else ROOT
                pair[side], provenance[side] = _run_side(
                    tree, bench["command"], args.workload, args.seed,
                    bench["run_seconds"],
                )
            pairs.append(pair)
            print(f"pair {i + 1}/{PAIRS} done ({order[0]} first)", flush=True)

    summary = summarize(pairs, metrics)
    record = {
        "base": {"rev": args.base_rev, "commit": base_sha},
        "head": {"commit": head_sha, "uncommitted_changes": dirty},
        "pairs": PAIRS,
        "first": [pr["first"] for pr in pairs],
        "run_seconds": bench["run_seconds"],
        "seed": args.seed,
        "command": bench["command"],
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": provenance,
        "workloads": summary,
    }
    (ROOT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for wl, row in summary.items():
        print(f"{wl}: failed base {row['base']['failed']} head {row['head']['failed']}")
        for m in metrics:
            r = row[m]
            print(f"  {m:<12} base {r['base_median']:.6g} [{r['base_q1']:.6g}, "
                  f"{r['base_q3']:.6g}]  head {r['head_median']:.6g}  "
                  f"{r['median_change']:+.1%}  wins {r['head_wins']}/{PAIRS}  "
                  f"{r['verdict']} (sign p {r['sign_p']:.3f})"
                  f"{'' if r['within_bound'] else '  BEYOND BOUND'}")
    print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
