"""Command-line interface.

`check FILE` checks one program and prints its verdict (exit code 0
Typed, 1 IllTyped, 2 Unknown, 3 Malformed). `corpus DIR` checks every
`.lama` file against its sibling `.expected` file, comparing verdicts and
(when given) reported types modulo recursive-type unfolding. A file or
directory that cannot be read, or a program that is not UTF-8, ends the
run with one line on standard error and exit code 4. A usage error (an
unknown flag, a missing argument, or an option value out of range, such
as `--max-answers 0`) prints the usage and the error on standard error
and exits with code 5, which no verdict uses. Output cut short because
standard output was closed (`shapecheck check ... | head -1`) ends the
run silently with exit code 6.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .checker import CheckOptions, Report, check_file, DEFAULT_FUEL, TYPED
from .types import TypeParseError, parse_type, pretty_type, types_equal

EXIT_IO_ERROR = 4
EXIT_USAGE = 5
EXIT_CLOSED_OUTPUT = 6


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_USAGE, not
    argparse's 2, which is the exit code of Unknown."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    return convert


def _add_common_flags(p):
    p.add_argument("--max-steps", type=_int_at_least(1), default=DEFAULT_FUEL,
                   help="engine step budget before giving up (Unknown); at least 1")
    p.add_argument("--max-answers", type=_int_at_least(1), default=1,
                   help="how many solver answers to request; at least 1")
    p.add_argument("--max-constructors", type=_int_at_least(0), default=None,
                   help="override the S-expression constructor-list bound; at least 0")
    p.add_argument("--stats", action="store_true", help="print run statistics")
    p.add_argument("--emit-constraints", action="store_true",
                   help="print the generated constraints before solving")
    p.add_argument("--no-prune", action="store_true",
                   help="disable call/constructor-list pruning")


def _options(args) -> CheckOptions:
    return CheckOptions(
        fuel=args.max_steps,
        max_answers=args.max_answers,
        max_constructors=args.max_constructors,
        prune=not args.no_prune,
        emit_constraints=args.emit_constraints,
    )


def _print_report(report: Report, args, out):
    if report.constraints_rendered:
        for line in report.constraints_rendered:
            print(f"constraint: {line}", file=out)
    print(report.verdict, file=out)
    if report.verdict == TYPED:
        for line in report.render_bindings():
            print(line, file=out)
    elif report.message:
        print(report.message, file=out)
    if args.stats:
        for k, v in report.stats.items():
            print(f"{k}={v}", file=out)


def cmd_check(args, out) -> int:
    report = check_file(args.file, _options(args))
    _print_report(report, args, out)
    return report.exit_code


def _parse_expected(text: str):
    """First line: expected verdict; remaining nonempty lines: `name : type`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] not in ("Typed", "IllTyped", "Unknown", "Malformed"):
        raise ValueError("first line must be a verdict")
    expected_types = []
    for ln in lines[1:]:
        name, sep, ty = ln.partition(":")
        if not sep:
            raise ValueError(f"bad type line: {ln!r}")
        expected_types.append((name.strip(), ty.strip()))
    return lines[0], expected_types


def cmd_corpus(args, out) -> int:
    root = Path(args.dir)
    # Listing (not globbing) fails on a missing directory instead of
    # finding nothing in it.
    files = sorted(p for p in root.iterdir() if p.match("*.lama"))
    failures = 0
    checked = 0
    options = _options(args)
    for f in files:
        expected_path = f.with_suffix(".expected")
        if not expected_path.exists():
            print(f"{f.name}: SKIP (no expectation file)", file=out)
            continue
        try:
            verdict, expected_types = _parse_expected(expected_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            print(f"{f.name}: SKIP (bad expectation file: {exc})", file=out)
            continue
        checked += 1
        report = check_file(str(f), options)
        problems = []
        if report.verdict != verdict:
            problems.append(f"verdict {report.verdict}, expected {verdict}")
        else:
            got = dict(report.bindings)
            for name, ty_text in expected_types:
                if name not in got:
                    problems.append(f"no binding for {name}")
                    continue
                try:
                    want = parse_type(ty_text, report.table)
                except TypeParseError as exc:
                    problems.append(f"bad expected type for {name}: {exc}")
                    continue
                if not types_equal(got[name], want):
                    problems.append(
                        f"{name} : {pretty_type(got[name], report.table)}, expected {ty_text}"
                    )
        if problems:
            failures += 1
            print(f"{f.name}: FAIL ({'; '.join(problems)})", file=out)
        else:
            print(f"{f.name}: PASS ({report.verdict})", file=out)
        if args.stats:
            for k, v in report.stats.items():
                print(f"  {k}={v}", file=out)
    print(f"checked={checked} failed={failures}", file=out)
    return 1 if failures else 0


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _Parser(prog="shapecheck", description="Static shape checker for mini-Lama programs")
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="check one program")
    p_check.add_argument("file")
    _add_common_flags(p_check)
    p_corpus = sub.add_parser("corpus", help="check a directory of programs")
    p_corpus.add_argument("dir")
    _add_common_flags(p_corpus)
    args = parser.parse_args(argv)
    try:
        code = cmd_check(args, out) if args.command == "check" else cmd_corpus(args, out)
        out.flush()  # a closed output stream fails here, not at exit
        return code
    except BrokenPipeError:
        if out is sys.stdout:
            # The interpreter flushes stdout again at exit; point it at
            # the null device so that flush has nowhere to fail.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except OSError as exc:
        if exc.filename is None:
            raise  # not a path that was read, e.g. a closed output stream
        print(f"shapecheck: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
