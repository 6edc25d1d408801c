"""Command-line scenario runner.

    segalsim run <config.json> [--seed N] [--events N]
                 [--format json|csv] [--out PATH] [--quiet]

Exit codes: 0 success, 1 usage/config/validation/output error or out of
memory, 2 numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import InvariantViolation
from .scenarios import ConfigError, load_document, parse_scenario, run_scenario
from .serialize import emit_report


class _Parser(argparse.ArgumentParser):
    """Command-line usage errors exit 1 with one line, like config errors."""

    def error(self, message: str):
        self.exit(1, f"usage error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segalsim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("config", help="path to a JSON scenario document")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--events", type=int, default=None, help="override the event count")
    run.add_argument("--format", choices=("json", "csv"), default=None, help="report format")
    run.add_argument("--out", default=None, help="write the report here instead of stdout")
    run.add_argument("--quiet", action="store_true", help="suppress progress notes on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    overrides = {"seed": args.seed, "n_events": args.events, "output_format": args.format}
    try:
        raw = load_document(text)
        raw.update((key, value) for key, value in overrides.items() if value is not None)
        cfg = parse_scenario(raw)
        del text, raw  # the run reads only cfg: free the document before it
        report = run_scenario(cfg)
        out = args.out
        if out is None and cfg.output_format == "csv":
            out = sys.stdout.buffer  # the log streams, a block at a time
        try:
            document = emit_report(report, fmt=cfg.output_format, out=out)
            if args.out is None:
                sys.stdout.write(document)  # "" once the csv log has streamed
                sys.stdout.flush()
        except BrokenPipeError:
            # downstream consumer (head, etc.) closed the pipe; not an error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(
            f"{cfg.scenario}: done in {report.wall_time_s:.3f}s"
            + (f", report at {args.out}" if args.out else ""),
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
