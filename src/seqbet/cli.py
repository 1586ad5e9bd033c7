"""Command-line entry point: simulate, backtest, compare.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
An internal error (a bug, or a pool worker that died) also exits 2, after
printing its traceback to stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .errors import ConfigError, DataError, SeqbetError, UsageError
from .experiments import parse_config, run_backtest, run_compare, run_simulate


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="seqbet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("simulate", "run strategies on generated series"),
        ("backtest", "run strategies on a price file"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="declarative experiment file")
        cmd.add_argument("--out", required=True, help="output directory for artifacts")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    cmd = sub.add_parser("compare", help="merge summary tables of finished runs")
    cmd.add_argument("dirs", nargs="+", help="run directories to merge")
    cmd.add_argument("--out", default=None, help="write the merged table as CSV here")
    return parser


def _run(args) -> int:
    if args.command in ("simulate", "backtest"):
        config = parse_config(args.config, seed_override=args.seed)
        runner = run_simulate if args.command == "simulate" else run_backtest
        report = runner(config, args.out, jobs=args.jobs)
        sys.stdout.write(report.table.render())
        sys.stdout.write(
            f"# wrote {report.out_dir}  ({report.total_seconds:.1f}s strategy time)\n"
        )
        return 0
    sys.stdout.write(run_compare(args.dirs, out_path=args.out).render())
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _run(args)
    except (ConfigError, UsageError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SeqbetError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
