"""Unconstrained event-insertion analysis.

Builds the insertion automaton (fictitious self-loops), the indicator product
tracking (dummy, actual) state pairs and the paper's pruned verifier, and
decides, by a relay game on the system graph, whether opacity can be enforced
by inserting fictitious events around every real output.

The dummy component of a pair is the state the outside observer believes the
system is in; the actual component is where the system really is.  Dashed
(inserted) moves advance only the dummy; solid moves advance both.
"""
from __future__ import annotations

from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fsm import (
    Automaton,
    EventLabel,
    FrozenValue,
    State,
    Tag,
    _tarjan,
    sorted_labels,
    sorted_states,
    state_display,
    strongly_connected_components,
)


def _actual_labels(a: Automaton) -> list[EventLabel]:
    return sorted_labels(e for e in a.events if not e.inserted)


def build_insertion_automaton(g: Automaton) -> Automaton:
    """The system plus a fictitious self-loop for every symbol at every state.

    The self-loops model the fact that an inserted event never moves the
    system itself, only the observer's belief.
    """
    if not g.deterministic:
        raise ValueError("insertion analysis requires a deterministic automaton")
    actual = _actual_labels(g)
    inserted = [EventLabel(e.symbol, Tag.INSERTED) for e in actual]
    transitions = dict(g.transitions)
    for x in g.states:
        for label in inserted:
            transitions[(x, label)] = frozenset({x})
    return Automaton(
        g.states,
        g.events | frozenset(inserted),
        transitions,
        g.initial,
        g.secret,
    )


class IndicatorState(FrozenValue):
    """A (dummy, actual) pair: believed state versus true state."""

    __slots__ = _fields = ("dummy", "actual")
    dummy: State
    actual: State

    def display(self) -> str:
        return f"({state_display(self.dummy)},{state_display(self.actual)})"


def _tables(succ: Sequence[int]) -> list[list[int]]:
    """Lookup tables for the image of a bitmask under ``succ``, one bitmask
    of targets per bit: table i maps the value of the mask's bits 8i..8i+7
    to the union of their targets, and the last one only the bits left."""
    tables = []
    for base in range(0, len(succ), 8):
        table = [0]
        for mask in succ[base:base + 8]:
            table += [t | mask for t in table]
        tables.append(table)
    return tables


def _apply(tables: list[list[int]], mask: int) -> int:
    """The image of ``mask`` under the lookup ``tables`` of ``_tables``."""
    if mask < 256:
        return tables[0][mask]
    image = 0
    for i, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little")):
        if byte:
            image |= tables[i][byte]
    return image


def _union(mask: int, parts: Sequence[int]) -> int:
    """The union of ``parts[i]`` over the set bits i of ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        mask ^= low
        union |= parts[low.bit_length() - 1]
    return union


# Moves as relations on dummies: one bitmask of targets per dummy for every
# relation, the chunked image tables of each, filled by the first
# ``_closure``, and the moves of every actual state as (relation, target
# actual state).  A pair is the id ``d*width + a``, width being the number
# of actual states.
_Relations = tuple[list[list[int]], list[list[list[int]]], list[list[tuple[int, int]]]]


def _closure(relations: _Relations, start: int) -> list[int]:
    """The pairs reachable from the pair ``start``, as one bitmask of
    dummies per actual state.

    A worklist passes on each actual state's new dummies only.  The actual
    states from the dummy count n on are in an insertion phase, entered only
    through one kind's relation, which is closed under the kind's alphabet:
    a move of such a state to itself adds no dummy, so the worklist skips it.
    """
    succ, images, arcs = relations
    if not images:
        images += map(_tables, succ)
    plain, width = len(succ[0]), len(arcs)
    found = [0] * width
    new = [0] * width
    d, a = divmod(start, width)
    found[a] = new[a] = 1 << d
    stack = [a]
    while stack:
        a = stack.pop()
        fresh, new[a] = new[a], 0
        itself = a if a >= plain else -1
        for r, t in arcs[a]:
            if t == itself:
                continue
            # A single lookup while the new dummies fit in the first chunk.
            image = images[r][0][fresh] if fresh < 256 else _apply(images[r], fresh)
            mask = image & ~found[t]
            if mask:
                if not new[t]:
                    stack.append(t)
                new[t] |= mask
                found[t] |= mask
    return found


def _trim(relations: _Relations, reachable: list[int]) -> list[int]:
    """The paper's verifier: the pairs of ``reachable`` that are not dead
    ends, as one bitmask of dummies per actual state.

    ``reachable`` holds the pairs some start reaches, so it is closed under
    moves.  A pair is a dead end when none of its moves leads to a pair that
    is not, so a pair is kept iff it has an infinite path; every pair on a
    path from the start to a kept pair has one too, so the start reaches
    every kept pair through kept pairs, or falls with all of them.

    (d, a) stays while d is in the pre-image of the staying dummies at t of
    some move (r, t) of a.  Until the dummies at t shrink, that pre-image is
    the relation's domain; afterwards it is cached per (r, t), and only the
    sources of t are re-tested.  With no pair lacking a move, this is
    ``reachable`` itself.
    """
    succ, _, arcs = relations
    n, width = len(succ[0]), len(arcs)
    pre = [[sum(1 << d for d, mask in enumerate(row) if mask)] * width for row in succ]
    kept = reachable[:]
    queue: set[int] = set()

    def test(a: int) -> None:
        live = 0
        for r, t in arcs[a]:
            live |= pre[r][t]
        if kept[a] & ~live:
            kept[a] &= live
            queue.add(a)

    for a, mask in enumerate(reachable):
        if mask:
            test(a)
    if not queue:
        return reachable
    sources: list[list[int]] = [[] for _ in range(width)]
    into: list[set[int]] = [set() for _ in range(width)]
    for a, out in enumerate(arcs):
        if kept[a]:
            for r, t in out:
                sources[t].append(a)
                into[t].add(r)
    preimages: dict[int, list[list[int]]] = {}
    while queue:
        t = queue.pop()
        for r in into[t]:
            if r not in preimages:
                # Each row as n binary digits, the last dummy's row first:
                # the digits at a stride of n from i are then, as a
                # bitmask, the dummies whose row holds target n-1-i.
                rows = "".join([format(mask, f"0{n}b") for mask in reversed(succ[r])])
                preimages[r] = _tables([int(rows[i::n], 2) for i in range(n - 1, -1, -1)])
            pre[r][t] = _apply(preimages[r], kept[t])
        for a in sources[t]:
            if kept[a]:
                test(a)
    return kept


class _PairKernel:
    """The indicator of a deterministic system on dense integer ids.

    States of g, in display order, become ids 0..n-1 and its actual labels
    ids 0..k-1; ``delta[x][e]`` is the successor of x on e, or -1 where the
    move is undefined.  An actual state is a system state x in an insertion
    phase f, the id ``f*n + x``, and the pair (dummy d, actual a) is the id
    ``d*width + a``.  A solid move relays e: both components step and the
    phase resets to plain, 0.  An insertion kind steps only the dummy, on an
    event of its alphabet, and shifts the phase through its table, where -1
    means forbidden.  Label index ``j*k + e`` over ``edge_labels`` names a
    move on e of kind j, kind 0 being solid.  Unconstrained insertion has
    one phase and one kind: every event, the phase unchanged.  ``moves``
    lists the moves of one pair, for the library's search and
    ``automaton``; ``edge_keys`` lists those of many pairs, one actual state
    at a time, for the DOT file; ``relations`` holds the same moves per
    actual state, each kind's insertions walked out within its alphabet,
    and ``condensed`` those of EI's dashed components, for ``_closure`` and
    ``_trim``.  A set of pairs is held as one bitmask of dummies per actual
    state, bit d of entry a for the pair ``d*width + a``.  Pair objects are
    made only by ``objects``, when a report's pair field is first read.
    """

    def __init__(self, g: Automaton) -> None:
        if not g.deterministic:
            raise ValueError("insertion analysis requires a deterministic automaton")
        self.states = sorted_states(g.states)
        self.state_names = [state_display(x) for x in self.states]
        self.labels = _actual_labels(g)
        n, k = self.n, self.k = len(self.states), len(self.labels)
        index = {x: i for i, x in enumerate(self.states)}
        label_index = {e: i for i, e in enumerate(self.labels)}
        self.delta = [[-1] * k for _ in range(n)]
        for (x, e), (y,) in g.transitions.items():
            if e in label_index:
                self.delta[index[x]][label_index[e]] = index[y]
        (x0,) = g.initial
        self.x0 = index[x0]
        self.secret = {index[x] for x in g.secret}
        self._reaches: dict[tuple, tuple] = {}
        self.actual_names = self.state_names
        self._phases(1, [(range(k), list(range(n)))])

    # The tag of a move of kind j, kind 0 being solid.
    _TAGS = (Tag.ACTUAL, Tag.INSERTED)

    def _phases(self, phases: int, kinds: list[tuple[Sequence[int], list[int]]]) -> None:
        """Give every system state ``phases`` phases and the insertion
        ``kinds``, numbered from 1 as (label ids, phase table) pairs."""
        width = self.width = phases * self.n
        self.kinds = kinds
        self.start = self.x0 * width + self.x0

    @cached_property
    def _move_tables(self) -> tuple[list, list]:
        """The solid moves of every dummy d, and each kind's phase table with
        the insertions of every dummy d, as (label index, target dummy times
        width): built on the first call of ``moves``, the one reader."""
        width = self.width
        solid = [[(e, y * width) for e, y in enumerate(row) if y >= 0] for row in self.delta]
        inserts = [
            (shift, [[(j * self.k + e, row[e] * width) for e in symbols if row[e] >= 0]
                     for row in self.delta])
            for j, (symbols, shift) in enumerate(self.kinds, 1)
        ]
        return solid, inserts

    def edge_labels(self) -> list[EventLabel]:
        """The label of every label index, made only for output."""
        return [EventLabel(label.symbol, tag) for tag in self._TAGS for label in self.labels]

    def pair(self, d: int, x: int) -> IndicatorState:
        return IndicatorState(self.states[d], self.states[x])

    def moves(self, p: int) -> Iterator[tuple[int, int]]:
        """The moves of the pair ``p``, as (label index, target) pairs."""
        solid, inserts = self._move_tables
        d, a = divmod(p, self.width)
        row_x = self.delta[a % self.n]
        for e, dummy in solid[d]:
            if row_x[e] >= 0:
                yield e, dummy + row_x[e]
        for shift, table in inserts:
            b = shift[a]
            if b >= 0:
                for j, dummy in table[d]:
                    yield j, dummy + b

    def edge_keys(
        self, masks: Sequence[int], rank: list[int], label_rank: list[int], scale: int
    ) -> list[int]:
        """The moves of the pairs of ``masks``, one bitmask of dummies per
        actual state, as ``_digraph``'s edge keys: ``rank[p] * scale +
        rank[t] + label_rank[j]`` for a move of the pair p to t with label
        index j.

        One actual state a at a time: every move of a, to the actual state
        b, pairs each dummy of a that the event moves with its target's
        entry in column b of ``rank``, in one comprehension.
        """
        n, k, width = self.n, self.k, self.width
        full = (1 << n) - 1
        # Per event, its defined moves of the dummies as (dummy, target) pairs.
        steps = [[(d, t) for d, t in enumerate(column) if t >= 0] for column in zip(*self.delta)]
        keys: list[int] = []
        for a, mask in enumerate(masks):
            if not mask:
                continue
            mine = steps if mask == full else [
                [(d, t) for d, t in step if mask >> d & 1] for step in steps
            ]
            sources = [r * scale for r in rank[a::width]]
            # Each target actual state with the (label index, event) of its moves.
            targets = [(y, [(e, e)]) for e, y in enumerate(self.delta[a % n]) if y >= 0]
            for kind, (symbols, shift) in enumerate(self.kinds, 1):
                if shift[a] >= 0:
                    targets.append((shift[a], [(kind * k + e, e) for e in symbols]))
            for b, labelled in targets:
                column = rank[b::width]
                for j, e in labelled:
                    label = label_rank[j]
                    keys += [sources[d] + column[t] + label for d, t in mine[e]]
        return keys

    def search(self) -> dict[int, list[int]]:
        """The pairs reachable from the initial pair, each mapped to its
        move targets."""
        targets: dict[int, list[int]] = {}
        stack = [self.start]
        seen = {self.start}
        while stack:
            p = stack.pop()
            out = targets[p] = [t for _, t in self.moves(p)]
            for t in out:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return targets

    def relations(self) -> _Relations:
        """The pairs' moves as relations on dummies.

        Relation e < k is the solid move on e; relation k + i is insertion
        kind i + 1, one or more events of its alphabet at once: d goes to
        the reach of every delta(d, s) in the subgraph of g on that
        alphabet.  A kind's phase table fixes every phase it leads to, so
        this reaches the pairs that single insertions reach, and keeps the
        same of them on an infinite path.
        """
        n, k = self.n, self.k
        columns = list(zip(*self.delta))
        succ = [[1 << y if y >= 0 else 0 for y in column] for column in columns]
        kinds = []
        for i, (symbols, shift) in enumerate(self.kinds):
            _, scc, reach, _ = self._reach(symbols)
            then = [reach[c] for c in scc]
            row = [0] * n
            for e in symbols:
                row = [mask | then[y] if y >= 0 else mask for mask, y in zip(row, columns[e])]
            succ.append(row)
            if any(row):
                kinds.append((k + i, shift))
        solid = [[(e, y) for e, y in enumerate(row) if y >= 0] for row in self.delta]
        arcs = [moves[:] for moves in solid * (self.width // n)]
        for r, shift in kinds:
            for a, b in enumerate(shift):
                if b >= 0:
                    arcs[a].append((r, b))
        return succ, [], arcs

    def condensed(self) -> _Relations:
        """The moves of the unconstrained indicator's dashed components as
        relations on the SCCs of g, the dummies here: the component
        SCC_g(d) x {x} is the pair ``c*n + x`` for the SCC c of d.

        Relation e < k maps c to the SCCs of delta(d, e) for d in c, and
        relation k, insertion, to those one move leaves c for: a dashed move
        inside c is no escape.  Every system state x moves on (e, delta(x,
        e)) and (k, x).
        """
        k = self.k
        components, scc, _, _ = self._reach(range(k))
        succ = [[0] * len(components) for _ in range(k + 1)]
        escape = succ[k]
        arcs = []
        for x, row in enumerate(self.delta):
            c = scc[x]
            out = []
            for e, y in enumerate(row):
                if y >= 0:
                    out.append((e, y))
                    succ[e][c] |= 1 << scc[y]
                    if scc[y] != c:
                        escape[c] |= 1 << scc[y]
            out.append((k, x))
            arcs.append(out)
        return succ, [], arcs

    def ids(self, masks: Sequence[int]) -> list[int]:
        """The pair ids of ``masks``, one bitmask of dummies per actual state, in increasing order."""
        width = self.width
        pairs = []
        for a, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                mask ^= low
                pairs.append((low.bit_length() - 1) * width + a)
        pairs.sort()
        return pairs

    def objects(self, pairs: Iterable[int]) -> dict[int, State]:
        """The pair object of every pair id in ``pairs``."""
        return {p: self.pair(*divmod(p, self.width)) for p in pairs}

    def automaton(self, pairs: Collection[int]) -> Automaton:
        """The indicator restricted to ``pairs``; its labels are every solid
        one and those of each kind's alphabet."""
        k, labels = self.k, self.edge_labels()
        events = frozenset(labels[:k]).union(
            labels[j * k + e] for j, (symbols, _) in enumerate(self.kinds, 1) for e in symbols
        )
        if not pairs:
            return Automaton(frozenset(), events, {}, frozenset())
        width = self.width
        objects = self.objects(pairs)
        singletons = {p: frozenset((pair,)) for p, pair in objects.items()}
        transitions = {
            (pair, labels[j]): singletons[t]
            for p, pair in objects.items()
            for j, t in self.moves(p)
            if t in pairs
        }
        secret = frozenset(pair for p, pair in objects.items() if p // width in self.secret)
        return Automaton(
            frozenset(objects.values()),
            events,
            transitions,
            singletons[self.start],
            secret,
        )

    def _reach(self, labels: Sequence[int]) -> tuple[list, list[int], list[int], list[int]]:
        """The SCCs of g on the label ids ``labels``, successors first, the
        SCC of every state, and every SCC's reach set and members as
        bitmasks.

        A component comes after every component it reaches, so its reach set
        is its own states and theirs.  Each label set is solved once.
        """
        key = tuple(labels)
        if key not in self._reaches:
            succ = [[row[e] for e in labels if row[e] >= 0] for row in self.delta]
            components, scc = _tarjan(succ)
            reach: list[int] = []
            own: list[int] = []
            for c, members in enumerate(components):
                mine = mask = 0
                for y in members:
                    mine |= 1 << y
                    for z in succ[y]:
                        if scc[z] != c:
                            mask |= reach[scc[z]]
                reach.append(mine | mask)
                own.append(mine)
            self._reaches[key] = components, scc, reach, own
        return self._reaches[key]

    def relays(self, before: Sequence[int], after: Sequence[int]) -> list[list[int]]:
        """``relays[e][c]`` is T_e(d) = AReach(delta_e(BReach(d))) for the
        dummies d of the SCC c of the before-subgraph, as a bitmask.

        The inserter walks the believed state along before-events, relays e
        and walks on along after-events.  BReach and AReach are reach sets
        in the subgraphs of g on the label ids ``before`` and ``after``.
        """
        delta = self.delta
        components, scc, _, _ = self._reach(before)
        _, after_scc, after_reach, _ = self._reach(after)
        then_after = [after_reach[c] for c in after_scc]
        relays = []
        for e in range(self.k):
            # Successors first, so a row reuses the rows of the SCCs it reaches.
            row: list[int] = []
            for c, members in enumerate(components):
                mask = 0
                for d in members:
                    if delta[d][e] >= 0:
                        mask |= then_after[delta[d][e]]
                    for b in before:
                        y = delta[d][b]
                        if y >= 0 and scc[y] != c:
                            mask |= row[scc[y]]
                row.append(mask)
            relays.append(row)
        return relays

    def relay_game(self, before: Sequence[int], relays: list[list[int]]) -> list[int]:
        """The staying pairs of g, as one bitmask of dummies per system state.

        Bit d of entry x is set when the pair (dummy d, actual x) is in W,
        the greatest set of pairs in which every event e enabled at x has some
        d'' in T_e(d) (``relays``, on the before-subgraph's SCCs over the
        label ids ``before``) with (d'', delta_e(x)) in W: the inserter can
        relay every output forever.  A halted actual state has no event to
        relay, so all its pairs stay.  T_e is the same for all dummies of one
        SCC, so each actual state keeps the list of those SCCs still in W,
        filtered by one move at a time, and is re-tested only when a
        successor's bitmask shrinks.
        """
        n, delta = self.n, self.delta
        masks = self._reach(before)[3]
        win = [(1 << n) - 1] * n
        alive = [range(len(masks))] * n
        sources: list[set[int]] = [set() for _ in range(n)]
        for x, row in enumerate(delta):
            for y in row:
                if y >= 0:
                    sources[y].add(x)
        queue = set(range(n))
        while queue:
            x = queue.pop()
            kept = alive[x]
            for e, y in enumerate(delta[x]):
                if y >= 0:
                    row, won = relays[e], win[y]
                    kept = [c for c in kept if row[c] & won]
            if len(kept) < len(alive[x]):
                alive[x] = kept
                win[x] = sum(masks[c] for c in kept)
                queue |= sources[x]
        return win

    def forward(self, relays: list[list[int]]) -> list[int]:
        """The pairs of the unconstrained indicator reachable from the
        initial pair, as one bitmask of dummies per system state.

        Dashed moves walk the dummy anywhere in its reach, so D[x0] starts
        as Reach(x0), every D[x] is a union of SCCs of g, and a move
        x -e-> y adds T_e(c) (``relays`` with every event before and after)
        to D[y] for each SCC c in D[x].  Each SCC is relayed from x once,
        found by the bit of its first member.
        """
        n, delta = self.n, self.delta
        components, scc, reach, _ = self._reach(range(self.k))
        firsts = sum(1 << members[0] for members in components)
        found = [0] * n
        relayed = [0] * n
        found[self.x0] = reach[scc[self.x0]]
        stack = [self.x0]
        while stack:
            x = stack.pop()
            fresh = found[x] & firsts & ~relayed[x]
            if not fresh:
                continue
            relayed[x] |= fresh
            new = []
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                new.append(scc[low.bit_length() - 1])
            for e, y in enumerate(delta[x]):
                if y >= 0:
                    row = relays[e]
                    mask = found[y]
                    for c in new:
                        mask |= row[c]
                    if mask != found[y]:
                        found[y] = mask
                        stack.append(y)
        return found


def build_indicator(g: Automaton, gf: Automaton) -> Automaton:
    """Product of the system with its insertion automaton.

    Solid edges relay a real event to both components; dashed edges move the
    dummy through a real transition while the actual state stays put, which
    is exactly what inserting that event does to the observer.  Only the
    accessible part is materialized.  A pair is marked secret when its dummy
    is a secret system state.
    """
    if gf != build_insertion_automaton(g):
        raise ValueError("second argument must be the insertion automaton of the first")
    kernel = _PairKernel(g)
    return kernel.automaton(kernel.search())


class SubspacePartition(NamedTuple):
    """Indicator states grouped by actual component, then by inserted-edge SCC."""

    first_level: Mapping[State, frozenset]
    second_level: Mapping[tuple[State, int], frozenset]


def partition_subspaces(ia: Automaton) -> SubspacePartition:
    """Group pairs by their actual component and split each group into the
    SCCs of its internal dashed-edge graph.

    Dashed edges never change the actual component, so every dashed edge is
    internal to its group.
    """
    first: dict[State, set] = {}
    for pair in ia.states:
        first.setdefault(pair.actual, set()).add(pair)

    second: dict[tuple[State, int], frozenset] = {}
    for actual in sorted_states(first):
        members = first[actual]
        edges = []
        for pair in members:
            for label, targets in ia.outgoing(pair).items():
                if not label.inserted:
                    continue
                (target,) = targets
                if target in members:
                    edges.append((pair, target))
        partition = strongly_connected_components(members, edges)
        for index, component in enumerate(partition.components):
            second[(actual, index)] = component

    return SubspacePartition(
        {actual: frozenset(members) for actual, members in first.items()}, second
    )


def find_trapping_sccs(
    ia: Automaton, p: SubspacePartition, g: Automaton
) -> frozenset:
    """Second-level SCCs from which the next real output can never be relayed.

    An SCC of subspace x_k is trapping when (1) no member has a solid move
    for any event enabled at x_k in the system, and (2) every dashed move
    from a member stays inside the SCC or is undefined.  The system g is
    consulted for the enabled-event sets because pruning can remove every
    pair that would otherwise witness them.
    """
    trapping = set()
    for (actual, index), component in p.second_level.items():
        enabled = g.enabled_events(actual)
        solid_possible = any(
            ia.step(pair, e) for pair in component for e in enabled
        )
        if solid_possible:
            continue
        contained = True
        for pair in component:
            for label, targets in ia.outgoing(pair).items():
                if not label.inserted:
                    continue
                (target,) = targets
                if target not in component:
                    contained = False
                    break
            if not contained:
                break
        if contained:
            trapping.add(component)
    return frozenset(trapping)


def _restrict(a: Automaton, keep: frozenset) -> Automaton:
    transitions = {
        (x, e): targets
        for (x, e), targets in a.transitions.items()
        if x in keep and targets <= keep
    }
    return Automaton(keep, a.events, transitions, a.initial & keep, a.secret & keep)


def build_verifier(ia: Automaton, g: Automaton) -> Automaton:
    """Iteratively prune trapping SCCs, then keep the accessible part.

    Removing one SCC deletes its incident edges, which can strand another
    SCC; the loop runs to a fixpoint.  If the initial pair itself is pruned
    the verifier is empty and enforceability fails downstream.
    """
    current = ia
    while True:
        partition = partition_subspaces(current)
        trapping = find_trapping_sccs(current, partition, g)
        if not trapping:
            break
        doomed = set()
        for component in trapping:
            doomed |= component
        current = _restrict(current, current.states - frozenset(doomed))
        if not current.initial:
            return _restrict(current, frozenset())
    return current.accessible_part()


def _walk(a: Automaton, start: State, keep: Tag) -> set:
    """start and every state a walk along ``keep``-tagged moves reaches from it."""
    reached = {start}
    frontier = [start]
    while frontier:
        for label, (target,) in a.outgoing(frontier.pop()).items():
            if label.tag is keep and target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def _greatest_fixpoint(landings: Mapping[State, list]) -> frozenset:
    """Largest set of pairs each of whose landing sets meets the set itself.

    ``landings`` maps every candidate pair to one set of pairs per event it
    must relay.  Every pair is re-tested, round after round, until none falls.
    """
    alive = set(landings)
    while True:
        falling = {
            pair
            for pair in alive
            if any(alive.isdisjoint(targets) for targets in landings[pair])
        }
        if not falling:
            return frozenset(alive)
        alive -= falling


def find_staying_nonblocking(v: Automaton, g: Automaton) -> frozenset:
    """Largest set of pairs from which every next real output stays relayable.

    A pair stays when, for every event enabled at its actual state, some
    dashed walk inside its subspace (possibly empty, since the inserted
    string may be) reaches a pair whose solid move on that event lands on a
    pair that stays too.  This is a greatest fixpoint: from a staying pair
    the inserter can relay every output forever, not just the next one.
    """
    landings = {}
    for pair in v.states:
        walk = _walk(v, pair, Tag.INSERTED)
        landings[pair] = [
            {t for q in walk for t in v.step(q, e)} for e in g.enabled_events(pair.actual)
        ]
    return _greatest_fixpoint(landings)


def admissible_states(
    v: Automaton, snb: frozenset, secret: Iterable[State]
) -> frozenset:
    """Staying-nonblocking pairs whose dummy the observer would not flag."""
    secret = frozenset(secret)
    return frozenset(pair for pair in snb if pair.dummy not in secret)


# The code of a row of ``EnforcementReport.rows``: ``_IN_VERIFIER`` and
# ``_ADMISSIBLE`` are flags, and ``code >> 1 & 3`` is the staying type, 0 for
# a pair that does not stay.
_IN_VERIFIER, _ADMISSIBLE = 1, 8

# The value of each lowercase hex digit.
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


class EnforcementReport:
    """The verdict of ``check_ei_enforceable`` or ``check_eic_enforceable``,
    and the pairs behind it.

    The kernel's pairs are held as one bitmask of dummies per actual state:
    ``reachable`` the indicator's, ``staying_masks`` and
    ``admissible_masks``, off which the verdict and the uncovered states of
    g are read at once.  What only output reads is built on first read and
    kept: ``verifier_masks``, the pairs pruning keeps (the staying pairs
    need not lie in them when g can halt), from one call of ``verifier``,
    then dropped; ``unreachable_actual_states``; and the pair fields
    ``verifier``, ``staying_nonblocking`` and ``admissible``.
    ``staying_nonblocking`` is a set of pairs, or under constraints a
    mapping from each staying pair to its type: 1 in the plain phase and 2
    in the after-phase.  The CLI draws its DOT file from ``rows``, and
    ``veiler.report`` writes the JSON pair lists from the masks.
    """

    def __init__(
        self, kernel: _PairKernel, reachable: list[int], verifier: Callable, staying: list[int]
    ) -> None:
        self.kernel = kernel
        self.reachable = reachable
        self._verifier = verifier
        self.staying_masks = staying
        n, states = kernel.n, kernel.states
        secret = sum(1 << d for d in kernel.secret)
        admissible = self.admissible_masks = [mask & ~secret for mask in staying]
        # An actual state of g is covered in any of its phases.
        self.uncovered_actual_states = frozenset(
            x for i, x in enumerate(states) if not any(admissible[i::n])
        )
        self.enforceable = not self.uncovered_actual_states

    @cached_property
    def verifier_masks(self) -> list[int]:
        masks = self._verifier()
        del self._verifier  # frees what it holds, as EIC's relations and image tables
        return masks

    @cached_property
    def unreachable_actual_states(self) -> frozenset:
        kernel = self.kernel
        _, scc, reach, _ = kernel._reach(range(kernel.k))
        accessible = reach[scc[kernel.x0]]
        return frozenset(x for i, x in enumerate(kernel.states) if not accessible >> i & 1)

    @cached_property
    def verifier(self) -> Automaton:
        kernel = self.kernel
        return kernel.automaton(set(kernel.ids(self.verifier_masks)))

    @cached_property
    def staying_nonblocking(self) -> Collection:
        kernel = self.kernel
        n, width = kernel.n, kernel.width
        objects = kernel.objects(kernel.ids(self.staying_masks))
        if width == n:
            return frozenset(objects.values())
        # Under constraints, the phase gives each staying pair its type.
        return {pair: 1 if p % width < n else 2 for p, pair in objects.items()}

    @cached_property
    def admissible(self) -> frozenset:
        kernel = self.kernel
        return frozenset(kernel.objects(kernel.ids(self.admissible_masks)).values())

    def rows(self) -> list[tuple[str, int, int]]:
        """The pairs the DOT file draws, every reachable one, as (name,
        pair id, code) rows sorted by name, then id."""
        kernel = self.kernel
        n, width, names = kernel.n, kernel.width, kernel.actual_names
        order = sorted(range(width), key=names.__getitem__)
        # Per actual state, in name order, n hex digits, the last for dummy
        # 0: 0 where the pair is not shown, else its code plus one.  Its
        # shown, verifier, staying and admissible bitmasks are stacked in
        # one int and read in base 16, which gives each bit a hex digit of
        # its own; the four parts, weighted by their flags, add up without
        # a carry, as a code plus one is below 16.
        part = (1 << 4 * n) - 1
        spec = f"0{n}x"
        digits = []
        verifiers = self.verifier_masks
        for a in order:
            verifier, staying, shown = verifiers[a], self.staying_masks[a], self.reachable[a]
            stacked = shown | (shown & verifier) << n | staying << 2 * n
            x = int(f"{stacked | self.admissible_masks[a] << 3 * n:b}", 16)
            codes = (
                (x & part)
                + _IN_VERIFIER * (x >> 4 * n & part)
                + ((1 if a < n else 2) << 1) * (x >> 8 * n & part)
                + _ADMISSIBLE * (x >> 12 * n)
            )
            digits.append(format(codes, spec))
        table = "".join(digits).encode().translate(_HEX_DIGITS)
        closings = [names[a] + ")" for a in order]
        # A dummy at a time, in display order, leaves little to sort.
        rows = []
        for d, name in enumerate(kernel.state_names):
            opening, base = f"({name},", d * width
            rows += [
                (opening + closing, base + a, code - 1)
                for closing, a, code in zip(closings, order, table[n - 1 - d :: n])
                if code
            ]
        rows.sort()
        return rows


def _count(masks: Iterable[int]) -> int:
    """The number of pairs in ``masks``."""
    return sum(mask.bit_count() for mask in masks)


def check_ei_enforceable(g: Automaton) -> EnforcementReport:
    """Full pipeline: enforceable iff every actual state has an admissible pair.

    The quantifier runs over all states of g, including ones unreachable in
    g itself; those can never acquire a pair, so they are reported
    separately to make the verdict legible.

    The decision runs on bitmasks.  The reachable pairs are the forward
    closure of the relays, and the staying ones those the relay game keeps,
    with every event insertable before and after a relay.  Pruning only
    names the paper's verifier, built when ``verifier_masks`` is first read:
    ``_trim`` of the dashed components, ``condensed``'s pairs.  A component
    is reachable when the first member of its SCC is, and kept with all its
    members.
    """
    kernel = _PairKernel(g)
    everything = range(kernel.k)
    relays = kernel.relays(everything, everything)
    reachable = kernel.forward(relays)
    win = kernel.relay_game(everything, relays)
    staying = [mask & won for mask, won in zip(reachable, win)]

    def verifier() -> list[int]:
        components, scc, _, members = kernel._reach(everything)
        firsts = sum(1 << group[0] for group in components)
        bits = [1 << c for c in scc]
        groups = [_union(mask & firsts, bits) for mask in reachable]
        kept = _trim(kernel.condensed(), groups)
        return reachable if kept is groups else [_union(mask, members) for mask in kept]

    return EnforcementReport(kernel, reachable, verifier, staying)
