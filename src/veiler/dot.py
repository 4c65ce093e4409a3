"""Graphviz output.

Solid arrows carry actual events, dashed arrows carry inserted ones, so a
rendered indicator shows the two move kinds the way the constructions treat
them.  Output is byte-deterministic: nodes and edges are emitted in sorted
display order and nothing date- or id-dependent goes into the file.
"""
from __future__ import annotations

from typing import Callable, Collection, Hashable, Iterable, Iterator, Sequence

from .fsm import Automaton, EventLabel, sorted_labels, state_display


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# Node attributes: plain, staying-nonblocking (red), pruned (green).
_FILLS = ("", ' [style=filled, fillcolor="#e05a4e"]', ' [style=filled, fillcolor="#66bb6a"]')


def _digraph(
    name: str,
    rows: Iterable[tuple[str, Hashable, int]],
    fills: Sequence[int],
    initial: Iterable[Hashable],
    moves: Callable[[Hashable], Iterable[tuple[int, Hashable]]],
    labels: Sequence[EventLabel],
) -> str:
    """The DOT text of the nodes ``rows`` names and of their ``moves``.

    ``rows`` holds a (name, node, code) row per node, sorted by name, and
    node x is filled as ``_FILLS[fills[code]]`` says.  ``moves(x)`` lists
    x's edges as (label index, target) pairs over ``labels``.  Nodes sort
    by (name, fill) and edges by (source, target, label text, inserted),
    all by name.  So the nodes of one name are drawn as one source, and
    each source sorts only its own edges, on the rank of the target's name.
    """
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", '  node [shape=circle];']
    lines.append('  __start [shape=point, label=""];')
    width = len(labels) or 1  # ranks are divided by it, also with no label
    quoted: list[str] = []  # per name
    groups: list[list] = []  # per name, its nodes as (fill, node) pairs
    rank: dict = {}  # per node, the rank of its name times ``width``
    last = None
    for text, x, code in rows:
        if text != last:
            last = text
            quoted.append(_quote(text))
            groups.append([])
        rank[x] = (len(quoted) - 1) * width
        groups[-1].append((fills[code], x))
    for q, group in zip(quoted, groups):
        if len(group) > 1:
            group.sort()
        for fill, _ in group:
            lines.append(f"  {q}{_FILLS[fill]};")
    for r in sorted(rank[x] for x in initial):
        lines.append(f"  __start -> {quoted[r // width]};")
    # An edge's key adds its label's rank by (text, inserted) to its
    # target's; the attributes follow from the label, so they never decide
    # the order.
    label_rank = [0] * width
    attrs = []
    ranked = sorted((e.display(), e.inserted, j) for j, e in enumerate(labels))
    for r, (text, inserted, j) in enumerate(ranked):
        label_rank[j] = r
        attrs.append(f" [label={_quote(text)}{', style=dashed' if inserted else ''}];")
    for q, group in zip(quoted, groups):
        keys = []
        for _, x in group:
            for j, t in moves(x):
                keys.append(rank[t] + label_rank[j])
        keys.sort()
        head = f"  {q} -> "
        for key in keys:
            lines.append(head + quoted[key // width] + attrs[key % width])
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
    green; the two sets may name states that are not in ``a``, which are not
    drawn (a pruned state is usually absent from the pruned automaton, so
    callers pass the pre-pruning automaton when they want both).
    """
    labels = sorted_labels(a.events)
    index = {e: j for j, e in enumerate(labels)}
    nonblocking, pruned = set(nonblocking), set(pruned)
    states = list(a.states)
    ids = {x: i for i, x in enumerate(states)}
    rows = sorted(
        (state_display(x), i, 1 if x in nonblocking else 2 if x in pruned else 0)
        for i, x in enumerate(states)
    )

    def moves(i: int) -> Iterator[tuple[int, int]]:
        for e, targets in a.outgoing(states[i]).items():
            for y in targets:
                yield index[e], ids[y]

    return _digraph(name, rows, range(3), (ids[x] for x in a.initial), moves, labels)
