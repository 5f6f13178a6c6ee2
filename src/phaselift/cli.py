"""Command-line entry point for the experiment runners.

Exit codes: 0 success, 2 configuration error, 3 when --strict is set
and at least one trial failed to converge (failures are always recorded
in the CSV either way).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiments import CHOICES, GRID_ITEMS, ConfigError, ExperimentConfig, run_experiment


def _comma_list(item: type):
    return lambda text: [item(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phaselift",
        description="Phaseless-measurement recovery experiments with CSV output. Each flag "
        "sets the config field of its name (--m-over-n sets m_over_n); grids are comma-separated.",
    )
    p.add_argument("--config", help="JSON config file; flags below override its values")
    for f in dataclasses.fields(ExperimentConfig):
        item = GRID_ITEMS.get(f.name)
        default = getattr(ExperimentConfig, f.name, "")  # `experiment` has none: a string
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            type=_comma_list(item) if item else type(default),
            choices=CHOICES.get(f.name),
        )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 3 if any recorded trial failed to converge",
    )
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's values (if any) with every given flag on top, checked as one."""
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "strict") and v is not None}
    if args.config:
        return ExperimentConfig.from_file(args.config, **flags)
    return ExperimentConfig.from_dict(flags)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"phaselift: config error: {exc}", file=sys.stderr)
        return 2
    failed = run_experiment(cfg)
    if failed:
        print(f"phaselift: {failed} trial(s) did not converge (recorded)", file=sys.stderr)
        if args.strict:
            return 3
    print(f"phaselift: wrote {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
