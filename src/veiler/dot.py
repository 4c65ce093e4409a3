"""Graphviz output.

Solid arrows carry actual events, dashed arrows carry inserted ones, so a
rendered indicator shows the two move kinds the way the constructions treat
them.  Output is byte-deterministic: nodes and edges are emitted in sorted
display order and nothing date- or id-dependent goes into the file.
"""
from __future__ import annotations

from typing import Collection, Container, Iterable, Mapping, Sequence

from .fsm import Automaton, EventLabel, sorted_labels, state_display


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# Node attributes: plain, staying-nonblocking (red), pruned (green).
_FILLS = ("", ' [style=filled, fillcolor="#e05a4e"]', ' [style=filled, fillcolor="#66bb6a"]')


def _digraph(
    name: str,
    names: Mapping,
    initial: Iterable,
    edges: Iterable[tuple],
    labels: Sequence[EventLabel],
    nonblocking: Container,
    pruned: Container,
) -> str:
    """The DOT text of the nodes ``names`` names and the ``edges`` between them.

    An edge is a (source, label index, target) triple over ``labels``.  Nodes
    in ``nonblocking`` are filled red, other nodes in ``pruned`` green.
    """
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", '  node [shape=circle];']
    lines.append('  __start [shape=point, label=""];')
    nodes = sorted(
        (text, 1 if x in nonblocking else 2 if x in pruned else 0) for x, text in names.items()
    )
    quoted = {text: _quote(text) for text, _ in nodes}
    for text, fill in nodes:
        lines.append(f"  {quoted[text]}{_FILLS[fill]};")
    for text in sorted(names[x] for x in initial):
        lines.append(f"  __start -> {quoted[text]};")
    styles = []
    for e in labels:
        text = e.display()
        style = ", style=dashed" if e.inserted else ""
        styles.append((text, e.inserted, f" [label={_quote(text)}{style}];"))
    # Edges sort by (source, target, label text, inserted); the attributes
    # follow from the last two, so they never decide the order.
    rows = sorted((names[src], names[dst], *styles[j]) for src, j, dst in edges)
    for src, dst, _, _, attrs in rows:
        lines.append(f"  {quoted[src]} -> {quoted[dst]}{attrs}")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    labels = sorted_labels(a.events)
    index = {e: j for j, e in enumerate(labels)}
    edges = ((x, index[e], y) for (x, e), targets in a.transitions.items() for y in targets)
    names = {x: state_display(x) for x in a.states}
    return _digraph(name, names, a.initial, edges, labels, set(nonblocking), set(pruned))
