"""JSON report payloads for the command-line tools.

Every builder returns a plain dict of strings, numbers, bools and sorted
lists, and ``to_json`` serialises it with sorted keys, so two runs over the
same input produce byte-identical output.  Nothing time- or id-dependent is
ever included.
"""
from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional, Sequence

from . import __version__
from .constrained import InsertionConstraints
from .fsm import state_display
from .insertion import EnforcementReport
from .observer import OpacityVerdict

_TOOL = "veiler"


def _displays(states: Iterable) -> list[str]:
    return sorted(map(state_display, states))


def _base(command: str, name: str) -> dict:
    return {"tool": _TOOL, "version": __version__, "command": command, "automaton": name}


def opacity_report(name: str, verdict: OpacityVerdict) -> dict:
    payload = _base("check-opacity", name)
    payload["opaque"] = verdict.opaque
    payload["violating_estimates"] = _displays(verdict.violating_estimates)
    if verdict.witness_observation is None:
        payload["witness_observation"] = None
    else:
        payload["witness_observation"] = [e.display() for e in verdict.witness_observation]
    return payload


def _pairs_payload(
    name: str,
    report,
    names: Mapping,
    verifier: Iterable,
    constraints: Optional[InsertionConstraints] = None,
) -> dict:
    """The verify-ei / verify-eic layout of ``report``, with ``names`` naming its pairs.

    ``report`` is an ``EnforcementReport``, whose pairs are pair objects, or
    the CLI's decision, whose pairs are pair ids.  Under ``constraints``, the
    layout is verify-eic's and the staying pairs map to their type.
    """
    payload = _base("verify-ei" if constraints is None else "verify-eic", name)
    payload["enforceable"] = report.enforceable
    staying = report.staying_nonblocking
    if constraints is None:
        payload["staying_nonblocking"] = sorted(names[pair] for pair in staying)
    else:
        payload["insertable_before"] = sorted(constraints.before)
        payload["insertable_after"] = sorted(constraints.after)
        typed = [(names[pair], kind) for pair, kind in staying.items()]
        payload["staying_nonblocking"] = dict(sorted(typed, key=lambda item: item[0]))
    payload["verifier_states"] = sorted(names[pair] for pair in verifier)
    payload["admissible"] = sorted(names[pair] for pair in report.admissible)
    payload["uncovered_actual_states"] = _displays(report.uncovered_actual_states)
    payload["unreachable_actual_states"] = _displays(report.unreachable_actual_states)
    return payload


def _report_payload(
    name: str, report: EnforcementReport, constraints: Optional[InsertionConstraints] = None
) -> dict:
    # On a system that can halt, staying pairs may lie outside the verifier.
    verifier = report.verifier.states
    names = {pair: state_display(pair) for pair in verifier.union(report.staying_nonblocking)}
    return _pairs_payload(name, report, names, verifier, constraints)


def ei_report(name: str, report: EnforcementReport) -> dict:
    return _report_payload(name, report)


def eic_report(name: str, report: EnforcementReport, constraints: InsertionConstraints) -> dict:
    return _report_payload(name, report, constraints)


def oracle_report(name: str, constrained: bool, trials: Sequence[tuple[int, bool, bool]]) -> dict:
    """Summarise construction-versus-search comparison runs.

    ``trials`` holds (seed, construction verdict, search verdict) triples.
    """
    payload = _base("oracle-check", name)
    payload["constrained"] = constrained
    payload["trials"] = [
        {"seed": seed, "construction": lhs, "search": rhs, "agree": lhs == rhs}
        for seed, lhs, rhs in trials
    ]
    payload["disagreements"] = sorted(seed for seed, lhs, rhs in trials if lhs != rhs)
    payload["agree"] = not payload["disagreements"]
    return payload


def to_json(payload: Mapping) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
