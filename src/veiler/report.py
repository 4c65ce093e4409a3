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
from .constrained import EicReport, InsertionConstraints
from .fsm import state_display
from .insertion import EiReport
from .observer import OpacityVerdict

_TOOL = "veiler"


def _displays(states: Iterable) -> list[str]:
    return sorted(map(state_display, states))


def _base(command: str, name: str) -> dict:
    return {"tool": _TOOL, "version": __version__, "command": command, "automaton": name}


def opacity_report(name: str, verdict: OpacityVerdict, command: str = "check-opacity") -> dict:
    payload = _base(command, name)
    payload["opaque"] = verdict.opaque
    payload["violating_estimates"] = _displays(verdict.violating_estimates)
    if verdict.witness_observation is None:
        payload["witness_observation"] = None
    else:
        payload["witness_observation"] = [e.display() for e in verdict.witness_observation]
    return payload


def ei_report(name: str, report: EiReport, command: str = "verify-ei") -> dict:
    payload = _base(command, name)
    payload["enforceable"] = report.enforceable
    # Staying and admissible pairs are verifier pairs: one name per pair.
    names = {pair: state_display(pair) for pair in report.verifier.states}
    payload["verifier_states"] = sorted(names.values())
    payload["staying_nonblocking"] = sorted(names[pair] for pair in report.staying_nonblocking)
    payload["admissible"] = sorted(names[pair] for pair in report.admissible)
    payload["uncovered_actual_states"] = _displays(report.uncovered_actual_states)
    payload["unreachable_actual_states"] = _displays(report.unreachable_actual_states)
    return payload


def eic_report(
    name: str,
    report: EicReport,
    constraints: InsertionConstraints,
    command: str = "verify-eic",
) -> dict:
    payload = _base(command, name)
    payload["enforceable"] = report.enforceable
    payload["insertable_before"] = sorted(constraints.before)
    payload["insertable_after"] = sorted(constraints.after)
    # Staying and admissible pairs are verifier pairs: one name per pair.
    names = {pair: state_display(pair) for pair in report.eic_verifier.states}
    payload["verifier_states"] = sorted(names.values())
    staying = [(names[pair], kind) for pair, kind in report.staying_nonblocking.items()]
    payload["staying_nonblocking"] = dict(sorted(staying, key=lambda item: item[0]))
    payload["admissible"] = sorted(names[pair] for pair in report.admissible)
    payload["uncovered_actual_states"] = _displays(report.uncovered_actual_states)
    payload["unreachable_actual_states"] = _displays(report.unreachable_actual_states)
    return payload


def oracle_report(
    name: str,
    constrained: bool,
    trials: Sequence[tuple[int, bool, bool]],
    command: str = "oracle-check",
) -> dict:
    """Summarise construction-versus-search comparison runs.

    ``trials`` holds (seed, construction verdict, search verdict) triples.
    """
    payload = _base(command, name)
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
