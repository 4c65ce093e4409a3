"""Graphviz output.

Solid arrows carry actual events, dashed arrows carry inserted ones, so a
rendered indicator shows the two move kinds the way the constructions treat
them.  Output is byte-deterministic: nodes and edges are emitted in sorted
display order and nothing date- or id-dependent goes into the file.
"""
from __future__ import annotations

from typing import Collection, Iterable

from .fsm import Automaton, state_display


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(
    a: Automaton,
    name: str = "g",
    nonblocking: Collection = (),
    pruned: Collection = (),
) -> str:
    """Render an automaton as a DOT digraph.

    States in ``nonblocking`` are filled red, states in ``pruned`` are filled
    green; the two sets are drawn even if they reference states that are not
    in ``a`` (a pruned state is usually absent from the pruned automaton, so
    callers pass the pre-pruning automaton when they want both).
    """
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", '  node [shape=circle];']
    lines.append('  __start [shape=point, label=""];')
    nonblocking = set(nonblocking)
    pruned = set(pruned)
    names = {x: state_display(x) for x in a.states}
    quoted = {name: _quote(name) for name in names.values()}
    for x in sorted(a.states, key=names.__getitem__):
        attrs = []
        if x in nonblocking:
            attrs.append('style=filled, fillcolor="#e05a4e"')
        elif x in pruned:
            attrs.append('style=filled, fillcolor="#66bb6a"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {quoted[names[x]]}{suffix};")
    for x in sorted(a.initial, key=names.__getitem__):
        lines.append(f"  __start -> {quoted[names[x]]};")
    rows = []
    for (src, label), targets in a.transitions.items():
        for dst in targets:
            rows.append((names[src], names[dst], label.display(), label.inserted))
    for src, dst, text, inserted in sorted(rows):
        style = ', style=dashed' if inserted else ""
        lines.append(f"  {quoted[src]} -> {quoted[dst]} [label={_quote(text)}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
