"""Output checks: every request's exit code and JSON report are validated.

``check`` returns the number of failed verdicts of one request and the
reasons.  A failure is a crash or exit code 1, a broken report invariant,
output that differs from an earlier run of the same input (criterion 8), or,
in ``oracle-check``, a disagreement between the construction and the search.
"""
from __future__ import annotations

import hashlib
import json
from typing import Optional

EXIT_ERROR = 1

ORACLE_DISAGREEMENT = "oracle disagreement"


def _ei_reasons(report: dict, code: int) -> list:
    reasons = []
    verifier = set(report["verifier_states"])
    nonblocking = set(report["staying_nonblocking"])  # a list (EI) or a dict (EIC)
    if not set(report["admissible"]) <= nonblocking:
        reasons.append("admissible not within staying_nonblocking")
    if not nonblocking <= verifier:
        reasons.append("staying_nonblocking not within verifier_states")
    uncovered = report["uncovered_actual_states"]
    if report["enforceable"] != (uncovered == []):
        reasons.append("enforceable does not match uncovered_actual_states")
    if not set(report["unreachable_actual_states"]) <= set(uncovered):
        reasons.append("unreachable not within uncovered")
    if code != (0 if report["enforceable"] else 3):
        reasons.append(f"exit code {code} does not match the verdict")
    return reasons


def _opacity_reasons(report: dict, code: int) -> list:
    reasons = []
    if report["opaque"] != (report["witness_observation"] is None):
        reasons.append("opaque does not match witness_observation")
    if report["opaque"] == bool(report["violating_estimates"]):
        reasons.append("opaque does not match violating_estimates")
    if code != (0 if report["opaque"] else 2):
        reasons.append(f"exit code {code} does not match the verdict")
    return reasons


def _oracle_reasons(report: dict, code: int, request) -> tuple:
    """(disagreeing seeds, structural reasons) of an oracle-check report."""
    trials = report["trials"]
    reasons = []
    expected = list(range(request.first_seed, request.first_seed + request.verdicts))
    if [t["seed"] for t in trials] != expected:
        reasons.append("trials do not cover the requested seeds")
    if any(t["agree"] != (t["construction"] == t["search"]) for t in trials):
        reasons.append("agree does not match the two verdicts")
    disagreeing = [t["seed"] for t in trials if t["construction"] != t["search"]]
    if report["disagreements"] != disagreeing:
        reasons.append("disagreements list does not match the trials")
    if code != (0 if not disagreeing else 4):
        reasons.append(f"exit code {code} does not match the verdict")
    return disagreeing, reasons


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Validates outputs and remembers digests to catch nondeterminism."""

    def __init__(self) -> None:
        self.digests: dict = {}
        self.agreeing = 0
        self.compared = 0

    def check(
        self, request, code: Optional[int], error: Optional[str], stdout: str, dot: Optional[str]
    ) -> tuple:
        if error is not None:
            return request.verdicts, [f"exception: {error}"]
        if code == EXIT_ERROR:
            return request.verdicts, ["exit code 1"]
        key = (digest(stdout), None if dot is None else digest(dot))
        if self.digests.setdefault(request.key, key) != key:
            return request.verdicts, ["output differs from an earlier run of the same input"]
        try:
            report = json.loads(stdout)
            if request.kind == "oracle":
                disagreeing, reasons = _oracle_reasons(report, code, request)
            elif request.kind == "opacity":
                disagreeing, reasons = [], _opacity_reasons(report, code)
            else:
                disagreeing, reasons = [], _ei_reasons(report, code)
        except (ValueError, KeyError, TypeError) as exc:
            return request.verdicts, [f"malformed report: {exc!r}"]
        if dot is not None and not dot.startswith("digraph "):
            reasons.append("DOT file is not a digraph")
        if reasons:
            return request.verdicts, reasons
        if request.kind == "oracle":
            self.compared += request.verdicts
            self.agreeing += request.verdicts - len(disagreeing)
        return len(disagreeing), [ORACLE_DISAGREEMENT] * len(disagreeing)
