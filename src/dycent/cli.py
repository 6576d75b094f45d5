"""Command-line front end: run / compare / theory / angles subcommands."""

import argparse
import dataclasses
import json
import sys

from .harness import ConfigError, parse_config_file, run_angle_experiment, run_comparison, run_experiment, run_theory_suite
from .optimizer import NonFiniteStepError

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _apply_overrides(cfgs, args):
    out = []
    for c in cfgs:
        if args.seed is not None:
            c = dataclasses.replace(c, seed=args.seed)
        if args.iters is not None:  # epoch-mode sections count their budget in epochs
            c = dataclasses.replace(c, **{"max_iters" if c.epochs is None else "epochs": args.iters})
        out.append(c)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dycent",
        description="Angle-probed dynamic step sizes for gradient descent: "
        "experiments, comparisons, and theory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
        ("run", "execute each run section of a config file"),
        ("compare", "head-to-head table over the sections of a config file"),
        ("theory", "constrained-mode descent and Wolfe report"),
        ("angles", "angle-logging run on the two-moons MLP"),
    ):
        p = sub.add_parser(name, help=help_)
        if name in ("run", "compare"):
            p.add_argument("--config", required=True, help="run-section config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default="results", help="output directory")
        if name != "theory":  # the theory suite's step counts are fixed
            p.add_argument("--iters", type=int, default=None, help="override the iteration budget (epochs in epoch mode)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfgs = _apply_overrides(parse_config_file(args.config), args)
            for cfg in cfgs:
                summary = run_experiment(cfg, out_dir=args.out)
                print(json.dumps(summary, sort_keys=True, indent=2))
        elif args.command == "compare":
            cfgs = _apply_overrides(parse_config_file(args.config), args)
            result = run_comparison(cfgs, out_dir=args.out)
            with open(result["files"]["comparison_txt"]) as fh:
                print(fh.read(), end="")
            print(f"written: {result['files']['comparison_csv']}")
        elif args.command == "theory":
            report = run_theory_suite(seed=args.seed if args.seed is not None else 0, out_dir=args.out)
            print(json.dumps(report, sort_keys=True, indent=2))
        elif args.command == "angles":
            summary = run_angle_experiment(
                seed=args.seed if args.seed is not None else 0,
                out_dir=args.out,
                epochs=args.iters if args.iters is not None else 60,
            )
            print(json.dumps(summary["angle_band"], sort_keys=True, indent=2))
            print(f"written: {summary['files']['trajectory_csv']}")
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteStepError as exc:
        print(f"error[numerical]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
