#!/usr/bin/env python3
"""lcgclab benchmark: four closed-loop workloads, one synchronous caller.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload all`` runs each workload in its own process and prints a
table. Otherwise the report lines come first and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones from a traced
run (see harness.py and spans.py), whose spans are also written to
``.perfbench_out/trace-<workload>-seed<n>.json``.

End-to-end metrics, for every workload (an op is one train step on the
train workloads and grid-cell, one verify_theorem1 call on audit):

    setup_s      median of 5 set-ups, each an import of lcgclab in a
                 fresh interpreter plus the in-process set-up: config,
                 synthesize, and on audit training, checkpoint save and
                 load
    wall_s       median wall time of one pass (see workloads.py)
    ops_per_s    ops per second of pass time
    op_ms_p50    median op latency
    op_ms_tail   per pass, the op latency with ten samples beyond it (the
                 highest percentile with at least ten); median over passes
    peak_rss_mb  peak resident set of this process

Times are scaled to a reference machine speed. The host is shared and
its speed drifts by tens of percent within seconds, so a fixed
plain-numpy probe (workloads.Probe) runs before and after every pass and
set-up, and each is divided by the probe's slowdown against its
reference time. The report lines also print the unscaled times.

Failed and attempted ops are the result line's ``failed`` and
``attempted``; their ratio is printed as ``error_rate``.

BLAS runs on one thread on every commit, set below before numpy loads.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("train-small", "train-wide", "audit", "grid-cell")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_package() -> None:
    """Import lcgclab from this checkout's src/, and only from there."""
    if not (SRC / "lcgclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lcgclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lcgclab

    if Path(lcgclab.__file__).resolve().parent != (SRC / "lcgclab").resolve():
        raise SystemExit(f"perfbench: imported lcgclab from {lcgclab.__file__}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    rows = []
    for name in NAMES:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        sys.stdout.write(out.stdout.rsplit("\n", 2)[0] + "\n")
        rows.append((name, json.loads(out.stdout.strip().splitlines()[-1])))
    print()
    for name, res in rows:
        rate = res["failed"] / res["attempted"]
        print(f"{name:<12} correct={res['correct']} error_rate={rate:g} "
              f"({res['failed']}/{res['attempted']})")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
    ok = all(res["correct"] for _, res in rows)
    print(json.dumps({"correct": ok, "workloads": {n: r for n, r in rows}}))
    return 0


def _report(res: dict) -> None:
    d = res["details"]
    print(f"# workload {d['workload']}  seed {d['seed']}  trace {int(d['trace'])}")
    print(f"# provenance {json.dumps(d['provenance'], sort_keys=True)}")
    print(f"# op = {d['op']}")
    print(f"# error_rate = {d['error_rate']:g} "
          f"({res['failed']} failed of {res['attempted']} ops)")
    for p in d["problems"]:
        print(f"# problem: {p}")
    if d["trace"]:
        print(f"# traced ops {d['traced_ops']} in {d['traced_passes']} passes; "
              f"spans in {d['trace_file']}")
        print(f"# wrapped {len(d['wrapped'])} functions: {', '.join(d['wrapped'])}")
        print(f"# never reached: {', '.join(d['absent_spans']) or 'none'}")
        print(f"# absent metrics (reported as 0): "
              f"{', '.join(d['absent_metrics']) or 'none'}")
        for v in d["violations"]:
            print(f"# span violation: {v}")
        print("# time per op, us (spans inside ops, and the train-step stages):")
        for name, us in sorted(d["per_op_us"].items()):
            print(f"#   {name:<36} {us:12.3f}")
    else:
        print(f"# passes {d['passes']}, latency samples {d['latency_samples']}; "
              f"tail = {d['tail']}")
        print(f"# machine speed factors {[round(f, 3) for f in d['speed_factors']]}")
        print("# unscaled times (the metrics below are divided by the factors):")
        for alias, (value, unit) in d["aliases"].items():
            print(f"{alias} {value:.6g} {unit}")
    print(f"# pass stats {json.dumps(d['pass_stats'])[:400]}")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    args = _parse(argv)
    _load_package()
    if args.workload == "all":
        return _run_all(args)
    import harness

    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
