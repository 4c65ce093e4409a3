"""JSON report payloads for the command-line tools.

Every builder returns a plain dict of strings, numbers, bools and sorted
lists, and ``to_json`` serialises it with sorted keys, so two runs over the
same input produce byte-identical output.  Nothing time- or id-dependent is
ever included.  The verify commands' pair lists, the bulk of their output,
are written as JSON text from the report's bitmasks instead, and the
library's ``ei_report`` / ``eic_report`` read that text back.
"""
from __future__ import annotations

from itertools import compress
from operator import eq
from typing import Iterable, Mapping, Optional, Sequence

from . import __version__
from .constrained import InsertionConstraints
from .fsm import state_display
from .insertion import EnforcementReport, _PairKernel
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


class _Json(str):
    """Text that is JSON already, which ``to_json`` writes as it is."""


# Each digit of a binary numeral as the byte 0 or 1.
_BITS = bytes.maketrans(b"01", b"\0\1")


def _name_order(kernel: _PairKernel) -> Optional[tuple[list[int], list[int]]]:
    """The dummies and the actual states of ``kernel`` in the order that
    sorts the pair names, or None where the names do not sort by their parts.

    The name of the pair (d, a) is its prefix ``"(" + name + ","`` of d,
    then its suffix ``name + ")"`` of a, and each part is ranked by one
    stable sort.  When no prefix is a prefix of another, two names of
    different dummies differ first inside their prefixes, so the names sort
    as (prefix rank, suffix rank).  A comma in a state name or two states of
    one display break that; two actual states of one name would give two
    pairs one name.  Either gives None.  The suffixes keep the ``)``, as a
    name may hold characters that sort below it.
    """
    prefixes = [f"({name}," for name in kernel.state_names]
    suffixes = [name + ")" for name in kernel.actual_names]
    dummies = sorted(range(kernel.n), key=prefixes.__getitem__)
    actuals = sorted(range(kernel.width), key=suffixes.__getitem__)
    firsts = [prefixes[d] for d in dummies]
    lasts = [suffixes[a] for a in actuals]
    if any(map(str.startswith, firsts[1:], firsts)) or any(map(eq, lasts[1:], lasts)):
        return None
    return dummies, actuals


def _pair_lists(report: EnforcementReport, typed: bool) -> list:
    """The JSON values of the staying, verifier and admissible pairs of
    ``report``, by name; ``typed`` maps each staying pair to its type.

    Where the names sort by their parts (``_name_order``), each value is
    its JSON text at the report's top level, written from the masks with no
    object per pair.  As the escape of a string is its parts' escapes
    joined, each prefix and suffix is escaped once, and each dummy d, in
    prefix order, is one join over the suffixes, in suffix order, that a
    0/1 column of the list's masks picks, joined by the separator and d's
    prefix.  Where names collide, the pairs are named one by one and sorted
    by name, then id, and the staying map keeps the type of the later pair.
    """
    kernel = report.kernel
    n, width = kernel.n, kernel.width
    lists = report.staying_masks, report.verifier_masks, report.admissible_masks
    ranked = _name_order(kernel)
    values: list = []
    if ranked is None:
        for i, masks in enumerate(lists):
            named = sorted(
                (f"({kernel.state_names[p // width]},{kernel.actual_names[p % width]})", p)
                for p in kernel.ids(masks)
            )
            if typed and i == 0:
                values.append({name: 1 if p % width < n else 2 for name, p in named})
            else:
                values.append([name for name, _ in named])
        return values
    dummies, actuals = ranked
    heads = [_string(f"({kernel.state_names[d]},")[:-1] for d in dummies]
    tails = [_string(kernel.actual_names[a] + ")")[1:] for a in actuals]
    spec = f"0{n}b"
    for i, masks in enumerate(lists):
        # Per actual state, in suffix order, a byte per dummy, the last for
        # dummy 0: the bytes at a stride of n are then a dummy's column.
        table = "".join([format(masks[a], spec) for a in actuals]).encode().translate(_BITS)
        items, brackets = tails, "[]"
        if typed and i == 0:
            items = [tail + (": 1" if a < n else ": 2") for tail, a in zip(tails, actuals)]
            brackets = "{}"
        chunks = []
        for head, d in zip(heads, dummies):
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
    lists = _pair_lists(report, constraints is not None)
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

    Dict keys must be strings.  A list of strings and a map to plain ints
    are each written with one join, and ``_Json`` text as it is.
    """
    if isinstance(value, str):
        out.append(value if type(value) is _Json else _string(value))
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
