"""Command-line interface.

Exit codes separate verdicts from failures so scripts can branch on them:
0 means the property holds (opaque, enforceable, oracles agree), 2 means not
opaque, 3 means not enforceable, 4 means a construction/search disagreement,
and 1 means the run itself failed (bad usage, unreadable or malformed input).
"""
from __future__ import annotations

import argparse
import errno
import functools
import os
import stat
import sys
import tempfile
from typing import Iterable, Optional, Sequence

from . import __version__
from .constrained import InsertionConstraints, check_eic_enforceable
from .dot import _ranked_digraph
from .insertion import _count, check_ei_enforceable
from .observer import _decide, _estimate_name
from .oracle import (
    oracle_eic_enforceable,
    oracle_ei_enforceable,
    random_constraints,
    random_dfa,
)
from .report import _BOOLS, _displays, _opacity_payload, _oracle_payload, _verify_payload, to_json
from .textio import AutomatonDocument, ParseError, parse_document

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_OPAQUE = 2
EXIT_NOT_ENFORCEABLE = 3
EXIT_DISAGREE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors surface as exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it."""
    parser = _Parser(prog="veiler", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"veiler {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_op = sub.add_parser("check-opacity", help="decide current-state opacity")
    p_op.add_argument("file")
    p_op.add_argument("--json", action="store_true", help="emit a JSON report")

    p_ei = sub.add_parser("verify-ei", help="decide enforceability by extended insertion")
    p_ei.add_argument("file")
    p_ei.add_argument("--json", action="store_true", help="emit a JSON report")
    p_ei.add_argument("--dot", metavar="PATH", help="write the coloured indicator as DOT")

    p_eic = sub.add_parser(
        "verify-eic", help="decide enforceability under event insertion constraints"
    )
    p_eic.add_argument("file")
    p_eic.add_argument(
        "--insert-before",
        default="",
        metavar="EVENTS",
        help="comma-separated events insertable before an output ('' for none)",
    )
    p_eic.add_argument(
        "--insert-after",
        default="",
        metavar="EVENTS",
        help="comma-separated events insertable after an output ('' for none)",
    )
    p_eic.add_argument("--json", action="store_true", help="emit a JSON report")
    p_eic.add_argument("--dot", metavar="PATH", help="write the coloured indicator as DOT")

    p_or = sub.add_parser(
        "oracle-check",
        help="compare the constructions against a brute-force oracle on random systems",
    )
    p_or.add_argument("--eic", action="store_true", help="exercise the constrained pipeline")
    p_or.add_argument(
        "--insert-before",
        default=None,
        metavar="EVENTS",
        help="fix the before-insertion alphabet (default: randomised per seed)",
    )
    p_or.add_argument(
        "--insert-after",
        default=None,
        metavar="EVENTS",
        help="fix the after-insertion alphabet (default: randomised per seed)",
    )
    p_or.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    p_or.add_argument("--count", type=int, default=25, help="number of instances (default 25)")
    p_or.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def _split_events(text: str) -> frozenset:
    """The comma-separated events of ``text``, stripped; empty ones skipped."""
    return frozenset(filter(None, map(str.strip, text.split(","))))


def _constraints(before: str, after: str) -> InsertionConstraints:
    """The constraints of the comma-separated events ``before`` and ``after``."""
    return InsertionConstraints.of(_split_events(before), _split_events(after))


def _read_document(path: str) -> AutomatonDocument:
    """The document in the UTF-8 file ``path``, which may start with a byte
    order mark; a byte that is no UTF-8 is a parse error on its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # Lines are numbered as the parser numbers them; the bad byte
        # continues the last line of the text before it.  The error's
        # offsets index its own bytes, which lack the mark.
        data = exc.object
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ParseError(line, message) from exc
    return parse_document(text)


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text of ``chunks``, one chunk at a time, where ``open(path,
    "w")`` would: through symbolic links, and into an existing FIFO or
    device in place.  A regular file, or a new one, is replaced by a file
    written beside it first and given the mode ``open`` leaves: an existing
    file's own, else 0o666 less the umask.  An error of the operating
    system names ``path``, not the file written; an empty path fails as
    ``open`` fails it, before anything is written."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    target = os.path.realpath(path)
    tmp = None
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | 0o666 & ~umask
        out: int | str = target
        if stat.S_ISREG(mode):
            out, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".veiler-tmp-")
        # In 64 KiB writes, a fifth of the calls the default buffer makes.
        with open(out, "w", encoding="utf-8", buffering=1 << 16) as handle:
            handle.writelines(chunks)
        if tmp is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _cmd_check_opacity(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    observable = frozenset(e.symbol for e in doc.automaton.events) - doc.unobservable
    estimates, witness = _decide(doc.automaton, observable)
    names = sorted(map(_estimate_name, estimates))
    opaque = witness is None
    if args.json:
        sys.stdout.write(to_json(_opacity_payload(doc.name, opaque, names, witness)))
    else:
        print(f"automaton {doc.name}: {'opaque' if opaque else 'not opaque'}")
        if not opaque:
            text = " ".join(e.display() for e in witness) or "(empty)"
            print(f"witness observation: {text}")
            print(f"violating estimates: {' '.join(names)}")
    return EXIT_OK if opaque else EXIT_NOT_OPAQUE


def _cmd_verify(args: argparse.Namespace) -> int:
    """Decide EI, or EIC for ``verify-eic``, then write the DOT file and the
    report, both from the report's bitmasks."""
    doc = _read_document(args.file)
    if doc.unobservable:
        names = " ".join(sorted(doc.unobservable))
        raise _UsageError(
            f"insertion verification needs a fully observable system;"
            f" unobservable events declared: {names}"
        )
    if args.command == "verify-eic":
        constraints = _constraints(args.insert_before, args.insert_after)
        report = check_eic_enforceable(doc.automaton, constraints)
    else:
        constraints = None
        report = check_ei_enforceable(doc.automaton)
    if args.dot is not None:
        _write_atomic(args.dot, _ranked_digraph(doc.name, report))
    if args.json:
        sys.stdout.write(to_json(_verify_payload(doc.name, report, constraints)))
    else:
        print(f"automaton {doc.name}: enforceable={_BOOLS[report.enforceable]}")
        if constraints is not None:
            print(f"insertable before: {' '.join(sorted(constraints.before)) or '(none)'}")
            print(f"insertable after: {' '.join(sorted(constraints.after)) or '(none)'}")
        print(f"verifier states: {_count(report.verifier_masks)}")
        print(f"staying-nonblocking pairs: {_count(report.staying_masks)}")
        print(f"admissible pairs: {_count(report.admissible_masks)}")
        uncovered = report.uncovered_actual_states
        if uncovered:
            print(f"uncovered actual states: {' '.join(_displays(uncovered))}")
    return EXIT_OK if report.enforceable else EXIT_NOT_ENFORCEABLE


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise _UsageError("--count must be at least 1")
    fixed = None
    if args.insert_before is not None or args.insert_after is not None:
        if not args.eic:
            raise _UsageError("--insert-before/--insert-after only apply with --eic")
        fixed = _constraints(args.insert_before or "", args.insert_after or "")
    trials = []
    for seed in range(args.seed, args.seed + args.count):
        g = random_dfa(seed, live=True)
        if args.eic:
            if fixed is None:
                constraints = random_constraints(seed, sorted(e.symbol for e in g.events))
            else:
                constraints = fixed
            lhs = check_eic_enforceable(g, constraints).enforceable
            rhs = oracle_eic_enforceable(g, constraints)
        else:
            lhs = check_ei_enforceable(g).enforceable
            rhs = oracle_ei_enforceable(g)
        trials.append((seed, lhs, rhs))
    name = f"random[{args.seed}:{args.seed + args.count}]"
    if args.json:
        sys.stdout.write(to_json(_oracle_payload(name, args.eic, trials)))
    else:
        for seed, lhs, rhs in trials:
            mark = "" if lhs == rhs else "  <- disagree"
            print(f"seed {seed}: construction={_BOOLS[lhs]} search={_BOOLS[rhs]}{mark}")
        agreeing = sum(1 for _, lhs, rhs in trials if lhs == rhs)
        print(f"{agreeing}/{len(trials)} agree")
    return EXIT_OK if all(lhs == rhs for _, lhs, rhs in trials) else EXIT_DISAGREE


_COMMANDS = {
    "check-opacity": _cmd_check_opacity,
    "verify-ei": _cmd_verify,
    "verify-eic": _cmd_verify,
    "oracle-check": _cmd_oracle_check,
}


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK


main = cli_main


if __name__ == "__main__":
    raise SystemExit(main())
