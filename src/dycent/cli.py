"""Command-line front end: run / compare / theory / angles subcommands."""

import argparse
import dataclasses
import json
import sys

from .harness import (
    ANGLE_EPOCHS, ConfigError, DivergedError, _prepare, parse_config_file, run_angle_experiment, run_comparison,
    run_experiment, run_theory_suite,
)
from .optimizer import NonFiniteStepError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _apply_overrides(cfgs, args):
    out = []
    for c in cfgs:
        changes = {} if args.seed is None else {"seed": args.seed}
        if args.iters is not None:  # epoch-mode sections count their budget in epochs
            changes["max_iters" if c.epochs is None else "epochs"] = args.iters
        try:
            out.append(dataclasses.replace(c, **changes))
        except ConfigError as exc:
            raise ConfigError(f"[{c.output_prefix}] {exc}") from None
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
        if getattr(args, "iters", None) is not None and args.iters < 1:  # theory takes no --iters
            raise ConfigError(f"--iters must be >= 1, got {args.iters}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "run":
            cfgs = _apply_overrides(parse_config_file(args.config), args)
            prepared = [_prepare(c) for c in cfgs]  # every section is built and checked before any run
            for cfg, p in zip(cfgs, prepared):
                summary = run_experiment(cfg, out_dir=args.out, prepared=p)
                print(json.dumps(summary, sort_keys=True, indent=2))
        elif args.command == "compare":
            cfgs = _apply_overrides(parse_config_file(args.config), args)
            result = run_comparison(cfgs, out_dir=args.out)
            print(result["table"], end="")
            print(f"written: {result['files']['comparison_csv']}")
        elif args.command == "theory":
            report = run_theory_suite(seed=args.seed if args.seed is not None else 0, out_dir=args.out)
            print(json.dumps(report, sort_keys=True, indent=2))
        elif args.command == "angles":
            summary = run_angle_experiment(
                seed=args.seed if args.seed is not None else 0,
                out_dir=args.out,
                epochs=args.iters if args.iters is not None else ANGLE_EPOCHS,
            )
            print(json.dumps(summary["angle_band"], sort_keys=True, indent=2))
            print(f"written: {summary['files']['trajectory_csv']}")
    except ConfigError as exc:
        kind, code, msg = "config", EXIT_CONFIG, str(exc)
    except (NonFiniteStepError, DivergedError) as exc:
        kind, code, msg = "numerical", EXIT_NUMERICAL, str(exc)
    except OSError as exc:
        kind, code, msg = "io", EXIT_IO, str(exc)
    else:
        return EXIT_OK
    # a message may quote a section name or path from the input, so non-printable characters are escaped
    msg = "".join(c if c.isprintable() else repr(c)[1:-1] for c in msg)
    print(f"error[{kind}]: {msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
