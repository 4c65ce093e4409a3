"""Command-line interface.

Exit codes separate verdicts from failures so scripts can branch on them:
0 means the property holds (opaque, enforceable, oracles agree), 2 means not
opaque, 3 means not enforceable, 4 means a construction/search disagreement,
and 1 means the run itself failed (bad usage, unreadable or malformed input).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from typing import Optional, Sequence

from . import __version__
from .constrained import InsertionConstraints, check_eic_enforceable
from .dot import _digraph
from .fsm import state_display, sorted_states
from .insertion import EnforcementReport, _count, check_ei_enforceable
from .observer import check_current_state_opacity
from .oracle import (
    oracle_eic_enforceable,
    oracle_ei_enforceable,
    random_constraints,
    random_dfa,
)
from .report import _verify_payload, opacity_report, oracle_report, to_json
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


def _write_atomic(path: str, text: str) -> None:
    """Replace ``path`` by a file holding ``text``, written beside it first.
    An error of the operating system names ``path``, not that file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".veiler-tmp-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _require_fully_observable(doc: AutomatonDocument) -> None:
    if doc.unobservable:
        names = " ".join(sorted(doc.unobservable))
        raise _UsageError(
            f"insertion verification needs a fully observable system;"
            f" unobservable events declared: {names}"
        )


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_check_opacity(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    observable = frozenset(e.symbol for e in doc.automaton.events) - doc.unobservable
    verdict = check_current_state_opacity(doc.automaton, observable)
    if args.json:
        sys.stdout.write(to_json(opacity_report(doc.name, verdict)))
    else:
        word = "opaque" if verdict.opaque else "not opaque"
        print(f"automaton {doc.name}: {word}")
        if verdict.witness_observation is not None:
            text = " ".join(e.display() for e in verdict.witness_observation) or "(empty)"
            print(f"witness observation: {text}")
            estimates = " ".join(
                state_display(x) for x in sorted_states(verdict.violating_estimates)
            )
            print(f"violating estimates: {estimates}")
    return EXIT_OK if verdict.opaque else EXIT_NOT_OPAQUE


# The DOT fill of an ``EnforcementReport.rows`` code: red for a staying
# pair, else green outside the verifier.
_FILL_OF_CODE = [1 if code >> 1 & 3 else 0 if code & 1 else 2 for code in range(16)]


def _report_decision(
    args: argparse.Namespace,
    name: str,
    report: EnforcementReport,
    constraints: Optional[InsertionConstraints] = None,
) -> int:
    """Write the DOT file and the report of a verify run, from its bitmasks."""
    if args.dot:
        rows = report.rows()  # DOT names every reachable pair
        kernel = report.kernel
        edges = functools.partial(kernel.edge_keys, report.reachable)
        dot = _digraph(name, rows, _FILL_OF_CODE, (kernel.start,), kernel.edge_labels(), edges)
        _write_atomic(args.dot, dot)
    if args.json:
        sys.stdout.write(to_json(_verify_payload(name, report, constraints)))
    else:
        print(f"automaton {name}: enforceable={_bool(report.enforceable)}")
        if constraints is not None:
            print(f"insertable before: {' '.join(sorted(constraints.before)) or '(none)'}")
            print(f"insertable after: {' '.join(sorted(constraints.after)) or '(none)'}")
        print(f"verifier states: {_count(report.verifier_masks)}")
        print(f"staying-nonblocking pairs: {_count(report.staying_masks)}")
        print(f"admissible pairs: {_count(report.admissible_masks)}")
        uncovered = report.uncovered_actual_states
        if uncovered:
            listed = " ".join(state_display(x) for x in sorted_states(uncovered))
            print(f"uncovered actual states: {listed}")
    return EXIT_OK if report.enforceable else EXIT_NOT_ENFORCEABLE


def _cmd_verify_ei(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    _require_fully_observable(doc)
    return _report_decision(args, doc.name, check_ei_enforceable(doc.automaton))


def _cmd_verify_eic(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    _require_fully_observable(doc)
    g = doc.automaton
    constraints = InsertionConstraints.of(
        _split_events(args.insert_before), _split_events(args.insert_after)
    )
    return _report_decision(args, doc.name, check_eic_enforceable(g, constraints), constraints)


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise _UsageError("--count must be at least 1")
    fixed = args.insert_before is not None or args.insert_after is not None
    if fixed and not args.eic:
        raise _UsageError("--insert-before/--insert-after only apply with --eic")
    trials = []
    for seed in range(args.seed, args.seed + args.count):
        g = random_dfa(seed, live=True)
        if args.eic:
            symbols = sorted(e.symbol for e in g.events)
            if fixed:
                constraints = InsertionConstraints.of(
                    _split_events(args.insert_before or ""),
                    _split_events(args.insert_after or ""),
                )
            else:
                constraints = random_constraints(seed, symbols)
            lhs = check_eic_enforceable(g, constraints).enforceable
            rhs = oracle_eic_enforceable(g, constraints)
        else:
            lhs = check_ei_enforceable(g).enforceable
            rhs = oracle_ei_enforceable(g)
        trials.append((seed, lhs, rhs))
    name = f"random[{args.seed}:{args.seed + args.count}]"
    if args.json:
        sys.stdout.write(to_json(oracle_report(name, args.eic, trials)))
    else:
        for seed, lhs, rhs in trials:
            mark = "" if lhs == rhs else "  <- disagree"
            print(f"seed {seed}: construction={_bool(lhs)} search={_bool(rhs)}{mark}")
        agreeing = sum(1 for _, lhs, rhs in trials if lhs == rhs)
        print(f"{agreeing}/{len(trials)} agree")
    return EXIT_OK if all(lhs == rhs for _, lhs, rhs in trials) else EXIT_DISAGREE


_COMMANDS = {
    "check-opacity": _cmd_check_opacity,
    "verify-ei": _cmd_verify_ei,
    "verify-eic": _cmd_verify_eic,
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
