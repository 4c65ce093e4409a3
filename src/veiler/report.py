"""JSON report payloads for the command-line tools.

Every builder returns a plain dict of strings, numbers, bools and sorted
lists, and ``to_json`` serialises it with sorted keys, so two runs over the
same input produce byte-identical output.  Nothing time- or id-dependent is
ever included.  The verify commands' pair lists, the bulk of their output,
are written as JSON text from the report's bitmasks instead, and
oracle-check's trials as JSON text from its triples; the library's
``ei_report``, ``eic_report`` and ``oracle_report`` read that text back.
"""
from __future__ import annotations

from itertools import compress
from typing import Iterable, Mapping, Optional, Sequence

from . import __version__
from .constrained import InsertionConstraints
from .fsm import EventLabel, state_display
from .insertion import EnforcementReport
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
    return _opacity_payload(
        name, verdict.opaque, _displays(verdict.violating_estimates), verdict.witness_observation
    )


def _opacity_payload(
    name: str, opaque: bool, estimates: list[str], witness: Optional[Sequence[EventLabel]]
) -> dict:
    """The check-opacity report of the sorted estimate names ``estimates``."""
    payload = _base("check-opacity", name)
    payload["opaque"] = opaque
    payload["violating_estimates"] = estimates
    payload["witness_observation"] = None if witness is None else [e.display() for e in witness]
    return payload


class _Json(str):
    """Text that is JSON already, which ``to_json`` writes as it is."""


# Each digit of a binary numeral as the byte 0 or 1.
_BITS = bytes.maketrans(b"01", b"\0\1")


def _column_table(masks: Sequence[int], actuals: Iterable[int], bits: int) -> bytes:
    """The ``bits`` low bits of ``masks[a]`` for each actual state a of
    ``actuals``, in turn, as the bytes 0 and 1, the highest bit first.  A
    mask of pairs holds one bit per dummy, n bits, or several such parts
    stacked; the bytes from ``n - 1 - d`` at a stride of n are then dummy
    d's column, one byte per (actual state, part), the higher parts first."""
    spec = f"0{bits}b"
    return "".join([format(masks[a], spec) for a in actuals]).encode().translate(_BITS)


def _pair_lists(report: EnforcementReport) -> list:
    """The JSON values of the staying, verifier and admissible pairs of
    ``report``, by name; where the kernel has more actual states than
    system states, the constrained one's, each staying pair maps to its type.

    Each value is its JSON text at the report's top level, written from the
    masks in the kernel's ``name_order`` with no object per pair.  As the
    JSON escape of a string is its parts' escapes joined, each opening and
    closing is escaped once, and each dummy d, in order, is one join over
    the closings, in order, that a 0/1 column of the list's masks picks,
    joined by the separator and d's opening, over only the actual states
    with a pair; the admissible pairs read the staying pairs' table.
    """
    kernel = report.kernel
    n = kernel.n
    dummies, actuals = kernel.name_order
    openings, closings = kernel.name_parts
    heads = [_string(openings[d])[:-1] for d in dummies]
    tails = [_string(closings[a])[1:] for a in actuals]
    columns = list(zip(heads, dummies))
    values: list = []
    for i, masks in enumerate((report.staying_masks, report.verifier_masks, None)):
        items, brackets = tails, "[]"
        if i == 0 and kernel.width > n:
            items = [tail + (": 1" if a < n else ": 2") for tail, a in zip(tails, actuals)]
            brackets = "{}"
        if masks is None:  # the admissible pairs: the staying ones of no secret dummy
            ordered, table = staying
            columns = [(head, d) for head, d in columns if d not in kernel.secret]
        else:
            ordered = [masks[a] for a in actuals]
            table = _column_table(masks, compress(actuals, ordered), n)
            if i == 0:
                staying = ordered, table
        items = list(compress(items, ordered))
        chunks = []
        for head, d in columns:
            text = (",\n    " + head).join(compress(items, table[n - 1 - d :: n]))
            if text:
                chunks.append(head + text)
        if chunks:
            text = f"{brackets[0]}\n    " + ",\n    ".join(chunks) + f"\n  {brackets[1]}"
        else:
            text = brackets
        values.append(_Json(text))
    return values


def _verify_payload(
    name: str, report: EnforcementReport, constraints: Optional[InsertionConstraints] = None
) -> dict:
    """The verify-ei layout of ``report``, or under ``constraints`` the
    verify-eic one, whose staying pairs map to their type; ``to_json`` of it
    is the report the CLI prints.  Its pair lists may be JSON text."""
    payload = _base("verify-ei" if constraints is None else "verify-eic", name)
    payload["enforceable"] = report.enforceable
    if constraints is not None:
        payload["insertable_before"] = sorted(constraints.before)
        payload["insertable_after"] = sorted(constraints.after)
    lists = _pair_lists(report)
    payload["staying_nonblocking"], payload["verifier_states"], payload["admissible"] = lists
    payload["uncovered_actual_states"] = _displays(report.uncovered_actual_states)
    payload["unreachable_actual_states"] = _displays(report.unreachable_actual_states)
    return payload


def _read(payload: dict) -> dict:
    """``payload`` with its JSON text read: the plain values ``to_json`` prints."""
    import json  # only the library's reports read their text back

    return json.loads(to_json(payload))


def ei_report(name: str, report: EnforcementReport) -> dict:
    return _read(_verify_payload(name, report))


def eic_report(name: str, report: EnforcementReport, constraints: InsertionConstraints) -> dict:
    return _read(_verify_payload(name, report, constraints))


def oracle_report(name: str, constrained: bool, trials: Sequence[tuple[int, bool, bool]]) -> dict:
    """Summarise construction-versus-search comparison runs.

    ``trials`` holds (seed, construction verdict, search verdict) triples.
    """
    return _read(_oracle_payload(name, constrained, trials))


# One trial's object, nested in the report's list; its keys in sorted order.
_TRIAL = (
    '{\n      "agree": %s,\n      "construction": %s,\n      "search": %s,\n'
    '      "seed": %d\n    }'
)
_BOOLS = ("false", "true")


def _oracle_payload(
    name: str, constrained: bool, trials: Sequence[tuple[int, bool, bool]]
) -> dict:
    """The oracle-check layout of ``trials``; ``to_json`` of it is the report
    the CLI prints.  The trials are written as JSON text, one object each."""
    payload = _base("oracle-check", name)
    payload["constrained"] = constrained
    objects = [
        _TRIAL % (_BOOLS[lhs == rhs], _BOOLS[lhs], _BOOLS[rhs], seed) for seed, lhs, rhs in trials
    ]
    payload["trials"] = _Json("[\n    " + ",\n    ".join(objects) + "\n  ]" if objects else "[]")
    payload["disagreements"] = sorted(seed for seed, lhs, rhs in trials if lhs != rhs)
    payload["agree"] = not payload["disagreements"]
    return payload


def _encode(value: object, indent: str, out: list[str]) -> None:
    """Append to ``out`` the text ``json.dumps(..., sort_keys=True,
    indent=2)`` gives ``value`` when nested at ``indent``.

    Dict keys must be strings.  A list of strings is written with one
    join, and ``_Json`` text as it is.
    """
    if isinstance(value, str):
        out.append(value if type(value) is _Json else _string(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append(_BOOLS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n"
        for key in sorted(value):
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
