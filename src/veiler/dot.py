"""Graphviz output.

Solid arrows carry actual events, dashed arrows carry inserted ones, so a
rendered indicator shows the two move kinds the way the constructions treat
them.  Output is byte-deterministic: nodes and edges are emitted in sorted
display order and nothing date- or id-dependent goes into the file.  Two
renderers give the text in one layout.  ``_ranked_digraph`` draws the
CLI's indicators a dummy at a time, in name order, straight from the
report's bitmasks, with no sort of the edges, and in chunks, so the CLI
writes a file without holding its whole text.  The library's ``emit_dot``
draws any automaton, whose states may share a name, by sorting its nodes
by name and then its edges by the ranks of their ends and labels.
"""
from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Collection, Iterator, Sequence

from .fsm import Automaton, EventLabel, sorted_labels, state_display
from .insertion import EnforcementReport
from .report import _column_table


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# Node attributes: plain, staying-nonblocking (red), pruned (green).
_FILLS = ("", ' [style=filled, fillcolor="#e05a4e"]', ' [style=filled, fillcolor="#66bb6a"]')


def _header(name: str) -> str:
    """The lines of a drawing before its nodes."""
    return (
        f"digraph {_quote(name)} {{\n  rankdir=LR;\n  node [shape=circle];\n"
        '  __start [shape=point, label=""];\n'
    )


def _label_attrs(labels: Sequence[EventLabel]) -> tuple[list[int], list[str]]:
    """The rank of each of ``labels`` by (text, inserted), and in rank order
    the end of an edge line over each.  The attributes follow from the
    label, so they never decide the order."""
    label_rank = [0] * len(labels)
    attrs = []
    ranked = sorted((e.display(), e.inserted, j) for j, e in enumerate(labels))
    for r, (text, inserted, j) in enumerate(ranked):
        label_rank[j] = r
        attrs.append(f" [label={_quote(text)}{', style=dashed' if inserted else ''}];\n")
    return label_rank, attrs


def _ranked_digraph(name: str, report: EnforcementReport) -> Iterator[str]:
    """The DOT text of the reachable pairs of ``report`` and their moves,
    in ``emit_dot``'s layout, in the order of their names (its kernel's
    ``name_order``): the header, then a chunk per dummy d, in order, of d's
    nodes, the start arrow, a chunk per dummy of d's edges, and the
    closing brace.

    A quoted pair name is its dummy's opening and its actual state's
    closing (``name_parts``), each quoted once.  The nodes of d are one
    join of closings, with their fills, that d's 0/1 column of the three
    fill classes' stacked masks picks.  Every move of a pair (d, a) on the
    event e goes to the dummy delta(d, e), whatever a is, so d's edges to
    the dummy t are the kernel's ``arcs`` of a over the events E that take
    d to t, and their order, by (actual state, label), depends on a and E
    alone: each (a, E) list of line ends is made once, and each (source, t)
    group is one join by ``'  "(d,a)" -> "(t,'``.
    """
    kernel = report.kernel
    n, width, solid, arcs = kernel.n, kernel.width, kernel.solid, kernel.arcs
    dummies, actuals = kernel.name_order
    openings = [_quote(opening)[:-1] for opening in kernel.name_parts[0]]
    closings = [_quote(closing)[1:] for closing in kernel.name_parts[1]]
    yield _header(name)
    # Staying pairs red, other verifier pairs plain, the rest green: the
    # three parts of a stacked mask, pruned ones highest.
    reachable, staying, verifier = report.reachable, report.staying_masks, report.verifier_masks
    stacked = [
        (shown & ~(kept | stays)) << 2 * n | stays << n | kept & ~stays
        for shown, kept, stays in zip(reachable, verifier, staying)
    ]
    table = _column_table(stacked, actuals, 3 * n)
    nodes = [closings[a] + _FILLS[fill] + ";\n" for a in actuals for fill in (2, 1, 0)]
    for d in dummies:
        head = "  " + openings[d]
        text = head.join(compress(nodes, table[n - 1 - d :: n]))
        if text:
            yield head + text
    yield f"  __start -> {openings[kernel.x0]}{closings[kernel.x0]};\n"
    label_rank, attrs = _label_attrs(kernel.edge_labels())
    ends = [attrs[r] for r in label_rank]
    dummy_rank, actual_rank = [0] * n, [0] * width
    for r, d in enumerate(dummies):
        dummy_rank[d] = r
    for r, a in enumerate(actuals):
        actual_rank[a] = r

    def tails(a: int, events: int) -> list[str]:
        """The line ends of the edges of a pair (d, a) over ``events``, a
        bitmask, in order, after an empty one, so a join by a group's
        opening puts it before each; empty where there is no edge."""
        found = sorted(
            (actual_rank[b], label_rank[j], closings[b] + ends[j])
            for j, e, b in arcs[a]
            if events >> e & 1
        )
        return [""] + [tail for _, _, tail in found] if found else []

    known: list[dict[int, list[str]]] = [{} for _ in range(width)]
    sources = [(closings[a], a, known[a]) for a in actuals]
    table = _column_table(reachable, actuals, n)
    for d in dummies:
        events: dict[int, int] = {}
        for e, t in solid[d]:
            events[t] = events.get(t, 0) | 1 << e
        targets = sorted(events, key=dummy_rank.__getitem__)
        groups = [(" -> " + openings[t], events[t]) for t in targets]
        head = "  " + openings[d]
        lines = []
        for closing, a, cache in compress(sources, table[n - 1 - d :: n]):
            source = head + closing
            for arrow, mask in groups:
                found = cache.get(mask)
                if found is None:
                    found = cache[mask] = tails(a, mask)
                lines.append((source + arrow).join(found))
        yield "".join(lines)
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

    Nodes sort by (name, fill).  A state's rank is that of its name: the
    index of the name's first node, so states of one name are drawn as one
    source.  Edges sort by (source rank, target rank, label rank).
    """
    labels = sorted_labels(a.events)
    label_rank, attrs = _label_attrs(labels)
    rank_of_label = dict(zip(labels, label_rank))
    nonblocking, pruned = set(nonblocking), set(pruned)
    nodes = [
        (state_display(x), 1 if x in nonblocking else 2 if x in pruned else 0, x)
        for x in a.states
    ]
    nodes.sort(key=itemgetter(0, 1))
    quoted = [_quote(text) for text, _, _ in nodes]
    first: dict[str, int] = {}
    rank = {x: first.setdefault(text, r) for r, (text, _, x) in enumerate(nodes)}
    edges = sorted(
        (rank[x], rank[y], rank_of_label[e])
        for e, move in a.moves.items()
        for x, targets in move.items()
        for y in targets
    )
    lines = [_header(name)]
    lines += [f"  {q}{_FILLS[fill]};\n" for q, (_, fill, _) in zip(quoted, nodes)]
    lines += [f"  __start -> {quoted[r]};\n" for r in sorted(rank[x] for x in a.initial)]
    lines += [f"  {quoted[s]} -> {quoted[t]}{attrs[j]}" for s, t, j in edges]
    lines.append("}\n")
    return "".join(lines)
