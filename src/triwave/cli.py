"""Command line entry point: run one scenario or a batch of seeds.

Usage:
    triwave run --config scenario.json [--seed N] [--check-level LEVEL] [--out DIR]
    triwave batch --config scenario.json --seeds A..B [--out DIR] [--workers N]

Set WAVEFRONT_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .scenario import ScenarioConfig, batch, run_scenario
from .verifier import CHECK_LEVELS


def _setup_logging() -> None:
    level = os.environ.get("WAVEFRONT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_seeds(text: str) -> list[int]:
    """The seeds ``--seeds`` names: an inclusive range ``A..B`` or a comma
    list of integers."""
    try:
        if ".." in text:
            a, b = text.split("..")
            seeds = list(range(int(a), int(b) + 1))
        else:
            seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--seeds takes A..B or a comma list of integers such as 1,4,7; "
                         f"got {text!r}") from None
    if not seeds:
        raise ValueError(f"--seeds {text!r} is an empty range: A..B needs A <= B")
    return seeds


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="triwave")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--check-level", choices=CHECK_LEVELS, default=None)
    p_run.add_argument("--out", default=None)

    p_batch = sub.add_parser("batch", help="run a seed range of one scenario")
    p_batch.add_argument("--config", required=True)
    p_batch.add_argument("--seeds", required=True, help="A..B or comma list")
    p_batch.add_argument("--out", default=None)
    p_batch.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    # replace, not assign: the config checks the values it is given
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "check_level", None):
        config = replace(config, check_level=args.check_level)

    if args.command == "run":
        result = run_scenario(config, out_dir=args.out)
        n_fail = sum(1 for c in result.checks if not c.passed)
        print(
            f"seed={config.seed} events={len(result.trajectory.events)} "
            f"checks={len(result.checks)} failed={n_fail} "
            f"{'PASS' if result.passed else 'FAIL'}"
        )
        return 0 if result.passed else 1

    summary = batch(config, _parse_seeds(args.seeds), out_dir=args.out,
                    workers=args.workers)
    for name, agg in sorted(summary["checks"].items()):
        slack = agg["min_slack"]
        slack_txt = ("n/a" if slack is None
                     else f"{slack:.3e} worst={agg['worst']} worst_seed={agg['worst_seed']}")
        print(f"{name:36s} count={agg['count']:6d} min_slack={slack_txt} "
              f"{'PASS' if agg['passed'] else 'FAIL'}")
    print(f"seeds={len(summary['seeds'])} {'PASS' if summary['passed'] else 'FAIL'}")
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
