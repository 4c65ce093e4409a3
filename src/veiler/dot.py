"""Graphviz output.

Solid arrows carry actual events, dashed arrows carry inserted ones, so a
rendered indicator shows the two move kinds the way the constructions treat
them.  Output is byte-deterministic: nodes and edges are emitted in sorted
display order and nothing date- or id-dependent goes into the file.  One
renderer draws every file, the library's ``emit_dot`` and the CLI's
indicators alike: its caller lists the edges as integer keys that order
them by name, and it sorts them once.  It gives the text in chunks, so the
CLI writes a file without holding its whole text.
"""
from __future__ import annotations

from itertools import compress
from operator import eq
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .fsm import Automaton, EventLabel, sorted_labels, state_display


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _quote_all(texts: list[str]) -> list[str]:
    """``_quote`` of every text; in one pass over their join when no text
    holds the newline that joins them."""
    joined = "\n".join(texts)
    if joined.count("\n") != len(texts) - 1:
        return [_quote(text) for text in texts]
    escaped = joined.replace("\\", "\\\\").replace('"', '\\"')
    return ('"' + escaped.replace("\n", '"\n"') + '"').split("\n")


# Node attributes: plain, staying-nonblocking (red), pruned (green).
_FILLS = ("", ' [style=filled, fillcolor="#e05a4e"]', ' [style=filled, fillcolor="#66bb6a"]')

# Edge lines per chunk of ``_digraph``: the text of one chunk is held at a time.
_EDGES_PER_CHUNK = 4096


def _digraph(
    name: str,
    rows: Sequence[tuple[str, int, int]],
    fills: Sequence[int],
    initial: Iterable[int],
    labels: Sequence[EventLabel],
    edges: Callable[[list[int], list[int], int], list[int]],
) -> Iterator[str]:
    """The DOT text of the nodes ``rows`` names and of the edges ``edges`` keys,
    in chunks: the header and the nodes, the edges ``_EDGES_PER_CHUNK`` at a
    time, then the closing brace.  ``edges`` is called after the first chunk.

    ``rows`` holds a (name, node, code) row per node, sorted by name, nodes
    being small ints, and node x is filled as ``_FILLS[fills[code]]`` says.
    Nodes sort by (name, fill) and edges by (source, target, label text,
    inserted), all by name.  ``rank``, a list over the nodes, ranks x's
    name, by the index of its first row, times the number of labels (at
    least 1), and ``label_rank[j]`` ranks ``labels[j]`` by (text, inserted).
    ``edges(rank, label_rank, scale)`` gives every edge, from s to t over
    ``labels[j]``, as the int ``rank[s] * scale + rank[t] + label_rank[j]``,
    so one sort of the keys orders the edges.  Nodes of one name share its
    rank, so they are drawn as one source.
    """
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", '  node [shape=circle];']
    lines.append('  __start [shape=point, label=""];')
    width = len(labels) or 1  # ranks are divided by it, also with no label
    texts = [text for text, _, _ in rows]
    ids = [x for _, x, _ in rows]
    quoted = _quote_all(texts)
    ends = [f"{_FILLS[fill]};" for fill in fills]
    nodes = [f"  {q}{ends[code]}" for q, (_, _, code) in zip(quoted, rows)]
    # A name's rank is the index of its first row, times ``width``.
    rank = [0] * (max(ids, default=-1) + 1)
    for r, x in zip(range(0, len(ids) * width, width), ids):
        rank[x] = r
    shared = list(compress(range(1, len(texts)), map(eq, texts, texts[1:])))
    if shared:
        # Rows that repeat the name before them take its rank; the nodes of
        # one name are drawn in fill order.
        for i in shared:
            rank[ids[i]] = rank[ids[i - 1]]
        drawn = sorted(
            zip([rank[x] for x in ids], [fills[code] for _, _, code in rows], quoted)
        )
        nodes = [f"  {q}{_FILLS[fill]};" for _, fill, q in drawn]
    lines += nodes
    lines += [f"  __start -> {quoted[r // width]};" for r in sorted(rank[x] for x in initial)]
    yield "\n".join(lines) + "\n"
    # The attributes follow from the label, so they never decide the order.
    label_rank = [0] * width
    attrs = []
    ranked = sorted((e.display(), e.inserted, j) for j, e in enumerate(labels))
    for r, (text, inserted, j) in enumerate(ranked):
        label_rank[j] = r
        attrs.append(f" [label={_quote(text)}{', style=dashed' if inserted else ''}];\n")
    keys = edges(rank, label_rank, len(rows))
    keys.sort()
    span = len(rows) * width
    for start in range(0, len(keys), _EDGES_PER_CHUNK):
        yield "".join([
            f"  {quoted[key // span]} -> {quoted[key % span // width]}{attrs[key % width]}"
            for key in keys[start:start + _EDGES_PER_CHUNK]
        ])
    yield "}\n"


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

    def edges(rank: list[int], label_rank: list[int], scale: int) -> list[int]:
        return [
            rank[ids[x]] * scale + rank[ids[y]] + label_rank[index[e]]
            for (x, e), targets in a.transitions.items()
            for y in targets
        ]

    return "".join(_digraph(name, rows, range(3), [ids[x] for x in a.initial], labels, edges))
