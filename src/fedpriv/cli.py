"""Command-line interface: train, attack, report, overhead."""

from __future__ import annotations

import argparse
import sys

from . import experiment
from .config import ConfigError, parse_config


def _add_common(parser: argparse.ArgumentParser, need_config: bool) -> None:
    parser.add_argument(
        "--config", required=need_config, help="path to a key = value config file"
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override fl.seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpriv",
        description=(
            "Deterministic federated-learning simulator with a collaborative "
            "membership-inference defense and a trajectory-based attack harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run federated training, record snapshots")
    _add_common(p_train, need_config=True)

    p_attack = sub.add_parser("attack", help="score membership attacks on a finished run")
    _add_common(p_attack, need_config=False)

    p_report = sub.add_parser("report", help="write summary.csv for a finished run")
    _add_common(p_report, need_config=False)
    p_report.add_argument(
        "--baseline", default=None, help="undefended run directory for the accuracy delta"
    )

    p_over = sub.add_parser("overhead", help="print the coordination byte estimate")
    p_over.add_argument("--config", required=True)
    return parser


def _pin_one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, where reruns are
    byte-identical (a product's bits move with its thread split); where
    that library or its setter is missing, say so on stderr."""
    import ctypes
    import glob
    import os

    import numpy

    libs = glob.glob(os.path.dirname(numpy.__file__) + ".libs/libscipy_openblas64_*.so")
    try:
        ctypes.CDLL(libs[0]).scipy_openblas_set_num_threads64_(1)
    except (IndexError, OSError, AttributeError):
        note = "numpy's bundled OpenBLAS not found; BLAS threads not pinned"
        print(f"fedpriv: note: {note}", file=sys.stderr)


def main(argv=None) -> int:
    _pin_one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "overhead":
            cfg = parse_config(args.config)
            if cfg.source == "csv":
                from .data import load_csv

                num_classes = load_csv(cfg.csv_path).num_classes
            else:
                num_classes = cfg.num_classes
            print(experiment.comm_overhead_estimate(num_classes, cfg.rounds))
            return 0

        cfg = experiment.load_run_config(args.out, args.config)
        cfg = experiment.with_overrides(cfg, seed=args.seed, out_dir=args.out)
        if args.command == "train":
            experiment.stage_train(cfg, args.out)
        elif args.command == "attack":
            experiment.stage_attack(cfg, args.out)
        elif args.command == "report":
            experiment.stage_report(cfg, args.out, baseline_dir=args.baseline)
        return 0
    except (ConfigError, OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"fedpriv {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
