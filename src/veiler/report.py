"""JSON report payloads for the command-line tools.

Every builder returns a plain dict of strings, numbers, bools and sorted
lists, and ``to_json`` serialises it with sorted keys, so two runs over the
same input produce byte-identical output.  Nothing time- or id-dependent is
ever included.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from . import __version__
from .constrained import InsertionConstraints
from .fsm import state_display
from .insertion import _ADMISSIBLE, _IN_VERIFIER, EnforcementReport
from .observer import OpacityVerdict

try:  # json's own C encoder, without the import of json at every CLI start
    from _json import encode_basestring_ascii as _string
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _string

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
    report: EnforcementReport,
    rows: Sequence[tuple[str, object, int]],
    constraints: Optional[InsertionConstraints] = None,
) -> dict:
    """The verify-ei / verify-eic layout of ``report``, whose pairs ``rows`` names.

    The verdict and state sets of ``report`` are read, and its pairs come
    as ``rows``: (name, key, code) triples sorted by name, coded as
    ``EnforcementReport.rows`` codes them.  Every list is ``rows`` filtered.
    Under ``constraints``, the layout is verify-eic's and the staying pairs
    map to their type; where two pairs share a name, the later row's type
    is shown.
    """
    payload = _base("verify-ei" if constraints is None else "verify-eic", name)
    payload["enforceable"] = report.enforceable
    if constraints is None:
        payload["staying_nonblocking"] = [text for text, _, code in rows if code >> 1 & 3]
    else:
        payload["insertable_before"] = sorted(constraints.before)
        payload["insertable_after"] = sorted(constraints.after)
        payload["staying_nonblocking"] = {
            text: code >> 1 & 3 for text, _, code in rows if code >> 1 & 3
        }
    payload["verifier_states"] = [text for text, _, code in rows if code & _IN_VERIFIER]
    payload["admissible"] = [text for text, _, code in rows if code & _ADMISSIBLE]
    payload["uncovered_actual_states"] = _displays(report.uncovered_actual_states)
    payload["unreachable_actual_states"] = _displays(report.unreachable_actual_states)
    return payload


def ei_report(name: str, report: EnforcementReport) -> dict:
    return _pairs_payload(name, report, report.rows(False))


def eic_report(name: str, report: EnforcementReport, constraints: InsertionConstraints) -> dict:
    return _pairs_payload(name, report, report.rows(False), constraints)


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


def _encode(value: object, indent: str, out: list[str]) -> None:
    """Append to ``out`` the text ``json.dumps(..., sort_keys=True,
    indent=2)`` gives ``value`` when nested at ``indent``.

    Dict keys must be strings.  A list of strings, the bulk of every
    report, and a map to plain ints are each written with one join.
    """
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        keys = sorted(value)
        if all(type(value[key]) is int for key in keys):
            # A map to plain ints, as the typed staying pairs, is one join.
            out.append("{\n" + ",\n".join([f"{inner}{_string(key)}: {value[key]}" for key in keys]))
        else:
            separator = "{\n"
            for key in keys:
                out.append(separator + inner + _string(key) + ": ")
                _encode(value[key], inner, out)
                separator = ",\n"
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        try:
            out.append("[\n" + inner + (",\n" + inner).join(map(_string, value)))
        except TypeError:  # an item is no string
            separator = "[\n"
            for item in value:
                out.append(separator + inner)
                _encode(item, inner, out)
                separator = ",\n"
        out.append("\n" + indent + "]")
    else:
        import json  # only for the values the branches above leave, as floats

        out.append(json.dumps(value))


def to_json(payload: Mapping) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline."""
    out: list[str] = []
    _encode(payload, "", out)
    out.append("\n")
    return "".join(out)
