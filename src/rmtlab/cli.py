"""Command line front-end: `rmtlab <kind> --config <path> --out <dir>`.

Exit codes: 0 success, 2 config error, 3 numeric failure; any other error
is a bug and ends with its traceback.  Several replicates run
concurrently on a thread pool sized at import to numpy's OpenBLAS pool,
each solving on a one-thread BLAS pool while the caller waits; after a
failure no replicate starts, and the lowest-index failure is raised (see
`rmtlab.experiments`).  One replicate runs on the whole pool.
A two-part ensemble whose intra law is the point mass at 0 samples only
its cross block and gets its spectrum from the block's singular values,
-sigma, the |n1 - n2| exact zeros and +sigma, instead of from a full
eigensolve.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import KINDS, ConfigError, NumericError, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmtlab",
        description="Spectral experiments for block random matrices and "
                    "random graph energy.")
    parser.add_argument("kind", choices=KINDS, help="experiment kind")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--replicates", type=int, default=None,
                        help="override the replicate count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    # ValueError covers JSONDecodeError, bad UTF-8 and the 4,300-digit limit
    # on integers
    except (OSError, ValueError) as exc:
        print(f"config error: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return 2
    if isinstance(config, dict) and "kind" not in config:
        config = {**config, "kind": args.kind}
    elif isinstance(config, dict) and config.get("kind") != args.kind:
        print(f"config error: kind: config says {config.get('kind')!r} but "
              f"command line says {args.kind!r}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config, args.out, seed=args.seed,
                                replicates=args.replicates)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"kind": report["kind"], "out": str(args.out),
                      "wall_clock_s": report["wall_clock_s"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
