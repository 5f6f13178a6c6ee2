"""Command-line entry point for the experiment runners.

Exit codes: 0 success, 2 configuration error, 3 when --strict is set
and at least one trial failed to converge (failures are always recorded
in the CSV either way).
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, run_experiment
from .hermitian import DTYPES
from .measurement import NOISE_MODELS


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phaselift",
        description="Phaseless-measurement recovery experiments with CSV output.",
    )
    p.add_argument("--config", help="JSON config file; flags below override its values")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=_int_list, help="comma-separated m grid")
    p.add_argument("--m-over-n", type=_int_list, help="comma-separated m/n grid")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--snr-db", type=_float_list, help="comma-separated SNR grid in dB")
    p.add_argument("--noise", choices=NOISE_MODELS)
    p.add_argument("--field", choices=tuple(DTYPES))
    p.add_argument("--mc-samples", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--out", help="output CSV path")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 3 if any recorded trial failed to converge",
    )
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("config", "strict") and v is not None
    }
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        for k, v in overrides.items():
            setattr(cfg, k, v)
    else:
        if "experiment" not in overrides:
            raise ConfigError("either --config or --experiment is required")
        cfg = ExperimentConfig(**overrides)
    cfg.validate()
    return cfg


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
