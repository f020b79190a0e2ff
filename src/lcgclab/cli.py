"""Command-line entry points.

    lcgclab train <config>
    lcgclab sweep-lambda <config> [--values 0,0.2,...]
    lcgclab ablate-baseline <config> [--colors red,blue,...]
    lcgclab ablate-components <config>
    lcgclab export-dataset <config> <path>

Exports pick their format from the extension: .csv writes the readable
view, anything else the binary container.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import comma_list, parse_config
from .data import export_csv, save_dataset, synthesize
from .errors import ConfigError
from .runner import ablate_baseline_colors, ablate_components, run, sweep_lambda


def _comma_list(item):
    """argparse type: ``config.comma_list`` of ``item`` values, which the
    runner checks (so a non-finite lambda is a config error)."""

    def parse(text: str) -> tuple:
        try:
            return comma_list(text, item)
        except ConfigError as e:  # an empty entry
            raise argparse.ArgumentTypeError(str(e)) from None

    parse.__name__ = f"comma-separated {item.__name__}"  # named in errors
    return parse


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="path to a key = value config file")
    p.add_argument(
        "--output",
        default=None,
        help=(
            "override the config's output directory; used as given, "
            "neither prefixed by nor checked against LCGCLAB_OUTPUT_ROOT"
        ),
    )


# command -> (help, runner, row column, list flag or None). A list flag
# is (name, item type, help): option --name, passed to the runner as name=.
_SWEEPS: dict[str, tuple] = {
    "sweep-lambda": (
        "sweep the conflict-correction scale",
        sweep_lambda,
        "lambda",
        (
            "values",
            float,
            "comma-separated lambda values (default 0.0..1.4 step 0.2)",
        ),
    ),
    "ablate-baseline": (
        "compare probe colors for refinement",
        ablate_baseline_colors,
        "color",
        ("colors", str, "comma-separated subset of colors"),
    ),
    "ablate-components": (
        "switch off one mechanism at a time",
        ablate_components,
        "variant",
        None,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcgclab",
        description=(
            "Debiased semi-supervised training on synthetic long-tailed data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config(sub.add_parser("train", help="train all seeds in the config"))
    for command, (help_text, _, _, flag) in _SWEEPS.items():
        p = sub.add_parser(command, help=help_text)
        _add_config(p)
        if flag:
            name, item, flag_help = flag
            p.add_argument(
                f"--{name}", type=_comma_list(item), default=None, help=flag_help
            )
    p_export = sub.add_parser(
        "export-dataset", help="materialize the config's dataset to a file"
    )
    p_export.add_argument("config")
    p_export.add_argument(
        "path", help="output file; .csv for the readable view, else binary"
    )
    return parser


def _num(v: float | None) -> str:
    """An aggregate statistic to 4 decimals; n/a when no seed completed."""
    return "n/a" if v is None else f"{v:.4f}"


def _fmt_row(row: dict, key: str) -> str:
    return (
        f"  {row[key]:>28}  bacc {_num(row['bacc_mean'])} +- {_num(row['bacc_se'])}"
        f"  gm {_num(row['gm_mean'])}"
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.command == "train":
            agg = run(config, out_dir=args.output)
            for entry in agg["per_seed"]:
                if entry.get("failed"):
                    print(f"  seed {entry['seed']}: FAILED")
                elif entry.get("diverged"):
                    print(
                        f"  seed {entry['seed']}: diverged at step "
                        f"{entry['divergence_step']}"
                    )
                else:
                    print(
                        f"  seed {entry['seed']}: bacc {entry['final_bacc']:.4f}"
                        f"  gm {entry['final_gm']:.4f}"
                    )
            print(
                f"{config.method}: bacc {_num(agg['bacc_mean'])} "
                f"+- {_num(agg['bacc_se'])} over {agg['n_completed']} seeds"
            )
            return 0 if agg["n_completed"] > 0 else 1

        if args.command in _SWEEPS:
            _, runner, column, flag = _SWEEPS[args.command]
            kw = {flag[0]: getattr(args, flag[0])} if flag else {}
            for row in runner(config, out_dir=args.output, **kw):
                print(_fmt_row(row, column))
            return 0

        # export-dataset, the one command left
        ds = synthesize(config.spec)
        path = Path(args.path)
        write = export_csv if path.suffix.lower() == ".csv" else save_dataset
        write(ds, path)
        print(
            f"wrote {path} ({ds.labeled_x.shape[0]} labeled, "
            f"{ds.unlabeled_x.shape[0]} unlabeled, "
            f"{ds.test_x.shape[0]} test)"
        )
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
