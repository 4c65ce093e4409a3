"""Graphviz output.

Solid arrows carry actual events, dashed arrows carry inserted ones, so a
rendered indicator shows the two move kinds the way the constructions treat
them.  Output is byte-deterministic: nodes and edges are emitted in sorted
display order and nothing date- or id-dependent goes into the file.
"""
from __future__ import annotations

from operator import itemgetter
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
    for x, name in sorted(names.items(), key=itemgetter(1)):
        if x in nonblocking:
            lines.append(f'  {quoted[name]} [style=filled, fillcolor="#e05a4e"];')
        elif x in pruned:
            lines.append(f'  {quoted[name]} [style=filled, fillcolor="#66bb6a"];')
        else:
            lines.append(f"  {quoted[name]};")
    for x in sorted(a.initial, key=names.__getitem__):
        lines.append(f"  __start -> {quoted[names[x]]};")
    labels = {}
    for e in a.events:
        text = e.display()
        style = ", style=dashed" if e.inserted else ""
        labels[e] = (text, e.inserted, f" [label={_quote(text)}{style}];")
    # Edges sort by (source, target, label text, inserted); the attributes
    # follow from the last two, so they never decide the order.
    rows = []
    for src, src_name in names.items():
        for label, targets in a.outgoing(src).items():
            text, inserted, attrs = labels[label]
            for dst in targets:
                rows.append((src_name, names[dst], text, inserted, attrs))
    rows.sort()
    for src, dst, _, _, attrs in rows:
        lines.append(f"  {quoted[src]} -> {quoted[dst]}{attrs}")
    lines.append("}")
    return "\n".join(lines) + "\n"
