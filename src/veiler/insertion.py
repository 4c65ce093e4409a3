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
from itertools import compress
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .fsm import (
    Automaton,
    EventLabel,
    FrozenValue,
    State,
    Tag,
    _restrict,
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
    system itself, only the observer's belief.  It is the kernel's drawing
    of its one insertion kind, every event with the phase unchanged.
    """
    return _PairKernel(g).insertion_automaton()


# The escape of a state name inside a pair name.
_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,", "_": "\\_"})


def _plain_closing(x: State, escaped: str) -> str:
    """The closing of the pair names of the actual state x in its plain
    phase, given its escaped display name: a decorated state, of
    ``veiler.constrained``, names its base and its phase apart; any other
    state is in no phase."""
    parts = getattr(x, "phase_parts", None)
    if parts is None:
        return escaped + ")"
    name, phase = parts()
    return f"{name.translate(_ESCAPES)}{phase})"


def _pair_name_parts(
    states: Sequence[State], names: Sequence[str], phases: Sequence[str] = ("",)
) -> tuple[list[str], list[str]]:
    """The parts of the names of the pairs over ``states``, whose display
    names are ``names``: the opening ``"(" + d + ","`` of every state d as a
    dummy, and the closing ``x + phase + ")"`` of every state x in each of
    the phases ``phases``, phase by phase, the first being the plain phase.
    A pair's name is its opening, then its closing.

    Inside them a state name has a backslash before each ``\\``, ``,`` and
    ``_``, and the brackets, the comma and the phase suffix stay bare.  The
    opening ends at the first bare comma and the phase starts at the first
    bare ``_``, so where states have names of their own, so does each pair;
    and as no opening begins another, names sort as (opening, closing).
    Each name is escaped once, for its opening and all its phases.
    """
    escaped = [name.translate(_ESCAPES) for name in names]
    closings = [_plain_closing(x, name) for x, name in zip(states, escaped)]
    closings += [f"{name}{phase})" for phase in phases[1:] for name in escaped]
    return [f"({name}," for name in escaped], closings


class IndicatorState(FrozenValue):
    """A (dummy, actual) pair: believed state versus true state."""

    __slots__ = _fields = ("dummy", "actual")
    dummy: State
    actual: State

    def display(self) -> str:
        states = (self.dummy, self.actual)
        openings, closings = _pair_name_parts(states, [state_display(x) for x in states])
        return openings[0] + closings[1]


# Lookup tables for the image of a bitmask under a relation: its rows, one
# bitmask of targets per bit, and per 8 bits of the mask a table i that maps
# the value of bits 8i..8i+7 to the union of their rows, or holds None until
# ``_apply`` first looks that value up.
_Tables = tuple[Sequence[int], list[list[Optional[int]]]]


def _tables(succ: Sequence[int]) -> _Tables:
    """Empty lookup tables for the image of a bitmask under ``succ``; the
    last table is read only at the bits left.  An entry costs its union
    when it is first read, so a table read for few values costs few unions,
    not 256."""
    return succ, [[None] * 256 for _ in range(0, len(succ), 8)]


def _apply(tables: _Tables, mask: int) -> int:
    """The image of ``mask`` under ``tables``, filling the entries it reads."""
    succ, chunks = tables
    image = 0
    for i, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little")):
        if byte:
            part = chunks[i][byte]
            if part is None:
                part = chunks[i][byte] = _union(byte, succ[8 * i:8 * i + 8])
            image |= part
    return image


def _images(tables: _Tables, masks: list[int]) -> list[int]:
    """``_apply(tables, mask)`` for each of ``masks``, once per distinct mask."""
    if not any(tables[0]):
        return [0] * len(masks)
    found = {mask: _apply(tables, mask) for mask in set(masks)}
    return [found[mask] for mask in masks]


def _union(mask: int, parts: Sequence[int]) -> int:
    """The union of ``parts[i]`` over the set bits i of ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        mask ^= low
        union |= parts[low.bit_length() - 1]
    return union


# Moves as relations on dummies: one bitmask of targets per dummy for every
# relation, and each actual state's moves as (relation, target).  A pair is
# the id ``d*width + a``, width being the number of actual states.
_Relations = tuple[list[list[int]], list[list[tuple[int, int]]]]


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
    ``reachable`` itself; with no relation, as a system with no events
    has, every pair is a dead end.
    """
    succ, arcs = relations
    width = len(arcs)
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
    preimages: dict[int, _Tables] = {}
    while queue:
        t = queue.pop()
        for r in into[t]:
            if r not in preimages:
                # Each row as n binary digits, the last dummy's row first:
                # the digits at a stride of n from i are then, as a
                # bitmask, the dummies whose row holds target n-1-i.
                n = len(succ[r])
                spec = f"0{n}b"
                rows = "".join([format(mask, spec) for mask in reversed(succ[r])])
                preimages[r] = _tables([int(rows[i::n], 2) for i in range(n - 1, -1, -1)])
            pre[r][t] = _apply(preimages[r], kept[t])
        for a in sources[t]:
            if kept[a]:
                test(a)
    return kept


class _PairKernel:
    """The indicator of a deterministic system on dense integer ids, and
    the one decision of EI and EIC on it (``decide``).

    States of g, in display order, become ids 0..n-1 and its actual labels
    ids 0..k-1; ``delta[x][e]`` is the successor of x on e, or -1 where the
    move is undefined.  An actual state is a system state x in an insertion
    phase f, the id ``f*n + x``, and the pair (dummy d, actual a) is the id
    ``d*width + a``.  A solid move relays e: both components step and the
    phase resets to plain, 0.  An insertion kind steps only the dummy, on an
    event of its alphabet, and shifts the phase through its table, where -1
    means forbidden.  Label index ``j*k + e`` over ``edge_labels`` names a
    move on e of kind j, kind 0 being solid.  Unconstrained insertion has
    one phase and one kind, every event with the phase unchanged: its
    ``before`` and ``after`` alphabets are every label, and ``entered`` is
    true, as the believed state may walk from x0 before the first output.
    ``arcs`` lists the moves of every actual state (object: ``actual``),
    which ``insertion_automaton`` draws, ``moves`` filters by a dummy, for
    the library's search and ``automaton``, and the DOT file by event sets.
    ``relays`` is built once, on first read, and a report reads its pairs
    through two methods that the constrained kernel overrides,
    ``reachable_masks`` and ``verifier_masks``.  A set of pairs is held as
    one bitmask of dummies per actual state, bit d of entry a for the pair
    ``d*width + a``.  Pair objects are made only by ``objects``, when a
    report's pair field is first read, and pair names only by
    ``name_parts``, and sorted only by ``name_order``, for output.
    """

    def __init__(self, g: Automaton) -> None:
        if not g.deterministic:
            raise ValueError("insertion analysis requires a deterministic automaton")
        # Each state's name once, the states sorted by it as sorted_states does.
        named = sorted([(state_display(x), x) for x in g.states], key=itemgetter(0))
        self.state_names = [name for name, _ in named]
        self.states = [x for _, x in named]
        self.system_events = g.events
        self.labels = _actual_labels(g)
        n, k = self.n, self.k = len(self.states), len(self.labels)
        index = {x: i for i, x in enumerate(self.states)}
        self.delta = [[-1] * k for _ in range(n)]
        for e, label in enumerate(self.labels):
            for x, (y,) in g.moves.get(label, {}).items():
                self.delta[index[x]][e] = index[y]
        (x0,) = g.initial
        self.x0 = index[x0]
        self.secret = {index[x] for x in g.secret}
        self._reaches: dict[tuple, tuple] = {}
        self.before = self.after = range(k)
        self.entered = True
        width = self.width = len(self._PHASES) * n
        self.start = self.x0 * width + self.x0

    # The phases of every system state, by the suffixes they add to its
    # name, and the tag of a move of kind j, kind 0 being solid.
    _PHASES: Sequence[str] = ("",)
    _TAGS = (Tag.ACTUAL, Tag.INSERTED)

    @cached_property
    def kinds(self) -> list[tuple[Sequence[int], list[int]]]:
        """The insertion kinds, numbered from 1 as (label ids, phase table)
        pairs: for EI one, every event, the phase unchanged."""
        return [(range(self.k), list(range(self.n)))]

    @cached_property
    def name_parts(self) -> tuple[list[str], list[str]]:
        """The opening of every dummy's pair names and the closing of every
        actual state's (``_pair_name_parts``), made only for output: the
        plain phase names the states as ``IndicatorState`` does.  Two states
        of one display name would give two pairs one name, so they are a
        ValueError here, where the verdict is already made."""
        names = self.state_names  # sorted, so one display's names are adjacent
        shared = next((a for a, b in zip(names, names[1:]) if a == b), None)
        if shared is not None:
            raise ValueError(f"two states display as {shared!r}, so their pairs would share names")
        return _pair_name_parts(self.states, names, self._PHASES)

    @cached_property
    def name_order(self) -> tuple[list[int], list[int]]:
        """The dummies and the actual states in the order that sorts the
        pair names: by opening, then by closing (``name_parts``), as no
        opening begins another.  The closings keep the ``)``, as a name may
        hold characters that sort below it.  Made only for output."""
        openings, closings = self.name_parts
        dummies = sorted(range(self.n), key=openings.__getitem__)
        return dummies, sorted(range(self.width), key=closings.__getitem__)

    @cached_property
    def solid(self) -> list[list[tuple[int, int]]]:
        """Each system state's solid moves, as (event, target) pairs."""
        return [[(e, y) for e, y in enumerate(row) if y >= 0] for row in self.delta]

    @cached_property
    def arcs(self) -> list[list[tuple[int, int, int]]]:
        """The moves of every actual state a, as (label index, event, target
        actual state): the pair (d, a) makes each whose event d enables, to
        the dummy delta(d, event).  Built on first read."""
        k, n, solid = self.k, self.n, self.solid
        arcs = [[(e, e, y) for e, y in solid[a % n]] for a in range(self.width)]
        for j, (symbols, shift) in enumerate(self.kinds, 1):
            for a, b in enumerate(shift):
                if b >= 0:
                    arcs[a] += [(j * k + e, e, b) for e in symbols]
        return arcs

    def edge_labels(self) -> list[EventLabel]:
        """The label of every label index, made only for output."""
        return [EventLabel(label.symbol, tag) for tag in self._TAGS for label in self.labels]

    @cached_property
    def events(self) -> frozenset:
        """The events of ``automaton`` and ``insertion_automaton``: g's own
        and the labels of each kind's alphabet."""
        k, labels = self.k, self.edge_labels()
        return self.system_events.union(
            labels[j * k + e] for j, (symbols, _) in enumerate(self.kinds, 1) for e in symbols
        )

    def actual(self, a: int) -> State:
        """The object of the actual state ``a``."""
        return self.states[a]

    def pair(self, d: int, a: int) -> IndicatorState:
        return IndicatorState(self.states[d], self.actual(a))

    def insertion_automaton(self) -> Automaton:
        """The insertion automaton: every actual state with its ``arcs``."""
        labels = self.edge_labels()
        states = [self.actual(a) for a in range(self.width)]
        transitions = {
            (states[a], labels[j]): frozenset((states[b],))
            for a, out in enumerate(self.arcs)
            for j, _, b in out
        }
        secret = [states[x] for x in self.secret]
        return Automaton(states, self.events, transitions, (states[self.x0],), secret)

    def moves(self, p: int) -> Iterator[tuple[int, int]]:
        """The moves of the pair ``p``, as (label index, target) pairs."""
        width = self.width
        d, a = divmod(p, width)
        row = self.delta[d]
        for j, e, b in self.arcs[a]:
            if row[e] >= 0:
                yield j, row[e] * width + b

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
        """The indicator restricted to ``pairs``, over ``events``."""
        labels, width = self.edge_labels(), self.width
        objects = self.objects(pairs)
        singletons = {p: frozenset((pair,)) for p, pair in objects.items()}
        transitions = {
            (pair, labels[j]): singletons[t]
            for p, pair in objects.items()
            for j, t in self.moves(p)
            if t in pairs
        }
        secret = [pair for p, pair in objects.items() if p // width in self.secret]
        initial = singletons.get(self.start, ())
        return Automaton(objects.values(), self.events, transitions, initial, secret)

    def _reach(self, labels: Sequence[int]) -> tuple[list, list[int], list[int], list[int]]:
        """The SCCs of g on the label ids ``labels``, successors first, the
        SCC of every state, and as bitmasks every state's walk, the states
        a walk on ``labels`` reaches from it, and every SCC's members.

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
            self._reaches[key] = components, scc, [reach[c] for c in scc], own
        return self._reaches[key]

    @cached_property
    def relays(self) -> list[list[int]]:
        """``relays[e][c]`` is T_e(d) = AReach(delta_e(BReach(d))) for the
        dummies d of the SCC c of the before-subgraph, as a bitmask.

        The inserter walks the believed state along before-events, relays e
        and walks on along after-events.  BReach and AReach are reach sets
        in the subgraphs of g on the label ids ``before`` and ``after``.
        """
        delta, before, after = self.delta, self.before, self.after
        components, scc, _, _ = self._reach(before)
        after_walk = self._reach(after)[2]
        relays = []
        for e in range(self.k):
            # Successors first, so a row reuses the rows of the SCCs it reaches.
            row: list[int] = []
            for c, members in enumerate(components):
                mask = 0
                for d in members:
                    if delta[d][e] >= 0:
                        mask |= after_walk[delta[d][e]]
                    for b in before:
                        y = delta[d][b]
                        if y >= 0 and scc[y] != c:
                            mask |= row[scc[y]]
                row.append(mask)
            relays.append(row)
        return relays

    def relay_game(self) -> list[int]:
        """The staying pairs of g, as one bitmask of dummies per system state.

        Bit d of entry x is set when the pair (dummy d, actual x) is in W,
        the greatest set of pairs in which every event e enabled at x has some
        d'' in T_e(d) (``relays``, on the SCCs of the before-subgraph) with
        (d'', delta_e(x)) in W: the inserter can relay every output forever.
        A halted actual state has no event to relay, so all its pairs stay.

        T_e(d) depends on d's before-SCC and e, not on x, so a move x -e-> y
        keeps the dummies ``ok[e][W[y]]``: the SCCs whose row of
        ``relays[e]`` meets W[y], found once per distinct mask.  A first
        pass keeps at each state the SCCs with a relay on each of its
        events; whenever a mask shrinks, the moves into it are re-tested.
        """
        n, relays = self.n, self.relays
        own = self._reach(self.before)[3]
        full = (1 << n) - 1
        ok = [{full: sum(compress(own, row))} for row in relays]
        win = [full] * n
        into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for x, row in enumerate(self.delta):
            for e, y in enumerate(row):
                if y >= 0:
                    into[y].append((x, e))
                    win[x] &= ok[e][full]
        shrunk = [x for x in range(n) if win[x] != full]
        while shrunk:
            y = shrunk.pop()
            won = win[y]
            for x, e in into[y]:
                meets = ok[e].get(won)
                if meets is None:
                    meets = ok[e][won] = sum(compress(own, map(won.__and__, relays[e])))
                if win[x] & ~meets:
                    win[x] &= meets
                    shrunk.append(x)
        return win

    def forward(self, start: int) -> list[int]:
        """The resting pairs reachable from the initial pair, plain or in
        the after-phase, as one bitmask of dummies per system state.

        U[x0] starts as ``start`` and a move x -e-> y adds T_e(d) (``relays``,
        on the SCCs of the before-subgraph) to U[y] for each d in U[x].
        Under constraints the start is AReach(x0), or x0 alone when no move
        enters x0, which then has no after-phase; without them it is
        Reach(x0), and U holds every reachable pair.

        T_e(d) depends on d's before-SCC and e, not on x, so the image of
        the new dummies of x under e is ``images[e]`` of that mask, found
        once per distinct mask as the OR of the rows of its SCCs, each found
        by any member's bit.  A move to a state holding every dummy is skipped.
        """
        n, delta, relays = self.n, self.delta, self.relays
        _, scc, _, own = self._reach(self.before)
        full = (1 << n) - 1
        found = [0] * n
        relayed = [0] * n
        images: list[dict[int, int]] = [{} for _ in relays]
        found[self.x0] = start
        stack = [self.x0]
        while stack:
            x = stack.pop()
            fresh = found[x] & ~relayed[x]
            if not fresh:
                continue
            relayed[x] |= fresh
            sccs = None
            for e, y in enumerate(delta[x]):
                if y < 0 or found[y] == full:
                    continue
                image = images[e].get(fresh)
                if image is None:
                    if sccs is None:
                        sccs, left = [], fresh
                        while left:
                            c = scc[(left & -left).bit_length() - 1]
                            sccs.append(c)
                            left &= ~own[c]
                    image, row = 0, relays[e]
                    for c in sccs:
                        image |= row[c]
                    images[e][fresh] = image
                if found[y] | image != found[y]:
                    found[y] |= image
                    stack.append(y)
        return found

    def decide(self) -> EnforcementReport:
        """The verdict on g, with the pairs behind it: the resting pairs
        that ``forward`` reaches from AReach(x0), or from x0 alone where
        ``entered`` is false, and the staying dummies of ``relay_game``,
        both over the relays of the ``before`` and ``after`` alphabets."""
        start = self._reach(self.after)[2][self.x0] if self.entered else 1 << self.x0
        return EnforcementReport(self, self.forward(start), self.relay_game())

    def reachable_masks(self, resting: list[int]) -> list[int]:
        """The reachable pairs, from the resting ones: without constraints
        every pair rests."""
        return resting

    def verifier_masks(self, reachable: list[int]) -> list[int]:
        """The pairs of ``reachable`` that pruning keeps: the dashed
        components SCC_g(d) x {x} with an infinite path.  Dashed moves only
        descend g's SCCs, so such a path relays outputs forever, and this is
        ``_trim`` over the relays, g's SCCs as dummies and each state's
        moves as arcs.  A component is reachable when the first member of
        its SCC is, and kept with all its members; the masks of SCCs are
        looked up in image tables over those first members."""
        components, scc, _, members = self._reach(self.before)
        firsts = sum(1 << group[0] for group in components)
        bits = [1 << c for c in scc]
        succ = [[_union(mask & firsts, bits) for mask in row] for row in self.relays]
        groups = _images(_tables(bits), [mask & firsts for mask in reachable])
        kept = _trim((succ, self.solid), groups)
        return reachable if kept is groups else [_union(mask, members) for mask in kept]


def build_indicator(g: Automaton, gf: Automaton) -> Automaton:
    """Product of the system with its insertion automaton.

    Solid edges relay a real event to both components; dashed edges move the
    dummy through a real transition while the actual state stays put, which
    is exactly what inserting that event does to the observer.  Only the
    accessible part is materialized.  A pair is marked secret when its dummy
    is a secret system state.
    """
    kernel = _PairKernel(g)
    if gf != kernel.insertion_automaton():
        raise ValueError("second argument must be the insertion automaton of the first")
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
    for (actual, _), component in p.second_level.items():
        enabled = g.enabled_events(actual)
        if any(ia.step(pair, e) for pair in component for e in enabled):
            continue
        dashed = (
            targets for pair in component for label, targets in ia.outgoing(pair).items() if label.inserted
        )
        if all(target in component for (target,) in dashed):
            trapping.add(component)
    return frozenset(trapping)


def _prune(a: Automaton, dead: Callable[[Automaton], frozenset]) -> Automaton:
    """Remove the states ``dead`` names until it names none, then keep the
    accessible part; empty once the initial state falls."""
    while doomed := dead(a):
        a = _restrict(a, a.states - doomed)
        if not a.initial:
            return _restrict(a, frozenset())
    return a.accessible_part()


def build_verifier(ia: Automaton, g: Automaton) -> Automaton:
    """Iteratively prune trapping SCCs, then keep the accessible part.

    Removing one SCC deletes its incident edges, which can strand another
    SCC; the loop runs to a fixpoint.  If the initial pair itself is pruned
    the verifier is empty and enforceability fails downstream.
    """

    def trapped(a: Automaton) -> frozenset:
        return frozenset().union(*find_trapping_sccs(a, partition_subspaces(a), g))

    return _prune(ia, trapped)


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


class EnforcementReport:
    """The verdict of ``check_ei_enforceable`` or ``check_eic_enforceable``,
    and the pairs behind it.

    The verdict (``enforceable``) and the uncovered states of g are read
    at once off the resting pairs the kernel's ``forward`` reaches, one
    bitmask of dummies per system state, and the relay game's staying
    dummies ``win``: a state of g is covered when a resting pair on it
    stays and has a dummy the observer would not flag.  What only output
    reads is built on first read and kept.  The pairs, one bitmask of
    dummies per actual state: ``reachable``, the indicator's, the kernel's
    ``reachable_masks`` of the resting pairs; ``staying_masks``, its
    resting pairs in ``win``; ``admissible_masks``, those whose dummy is
    not secret; and ``verifier_masks``, the pairs pruning keeps (the
    staying pairs need not lie in them when g can halt), the kernel's
    ``verifier_masks`` of ``reachable``.  Then
    ``unreachable_actual_states`` and the pair fields ``verifier``,
    ``staying_nonblocking`` and ``admissible``.  ``staying_nonblocking`` is
    a set of pairs, or under constraints a mapping from each staying pair
    to its type: 1 in the plain phase and 2 in the after-phase.  The CLI
    draws its DOT file and ``veiler.report`` writes the JSON pair lists
    from the masks.
    """

    def __init__(self, kernel: _PairKernel, resting: list[int], win: list[int]) -> None:
        self.kernel = kernel
        self._resting, self._win = resting, win
        self._secret = secret = sum(1 << d for d in kernel.secret)
        self.uncovered_actual_states = frozenset(
            x for x, mask, won in zip(kernel.states, resting, win) if not mask & won & ~secret
        )
        self.enforceable = not self.uncovered_actual_states

    @cached_property
    def reachable(self) -> list[int]:
        return self.kernel.reachable_masks(self._resting)

    @cached_property
    def staying_masks(self) -> list[int]:
        n, win = self.kernel.n, self._win
        # The resting phases are the first two: plain, then after.
        return [mask & win[a % n] if a < 2 * n else 0 for a, mask in enumerate(self.reachable)]

    @cached_property
    def admissible_masks(self) -> list[int]:
        return [mask & ~self._secret for mask in self.staying_masks]

    @cached_property
    def verifier_masks(self) -> list[int]:
        return self.kernel.verifier_masks(self.reachable)

    @cached_property
    def unreachable_actual_states(self) -> frozenset:
        # The pair (x, x) of every state x that g reaches rests.
        return frozenset(x for x, mask in zip(self.kernel.states, self._resting) if not mask)

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
    ``_trim`` over the same relays keeps the dashed components that can
    relay outputs forever.
    """
    return _PairKernel(g).decide()
