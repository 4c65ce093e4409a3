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

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fsm import (
    Automaton,
    EventLabel,
    State,
    Tag,
    sorted_labels,
    sorted_states,
    state_display,
    strongly_connected_components,
)


def apply_mask_mi(s: Sequence[EventLabel]) -> tuple[EventLabel, ...]:
    """Re-tag every label as actual: inserted and real events look alike outside."""
    return tuple(label.as_actual() for label in s)


def apply_projection_pui(s: Sequence[EventLabel]) -> tuple[EventLabel, ...]:
    """Keep only the actual labels: what the system really produced."""
    return tuple(label for label in s if not label.inserted)


def apply_projection_pi(s: Sequence[EventLabel]) -> tuple[EventLabel, ...]:
    """Keep only the inserted labels."""
    return tuple(label for label in s if label.inserted)


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
        True,
    )


@dataclass(frozen=True)
class IndicatorState:
    """A (dummy, actual) pair: believed state versus true state."""

    dummy: State
    actual: State

    def display(self) -> str:
        return f"({state_display(self.dummy)},{state_display(self.actual)})"


class _InternedDfa:
    """A deterministic system on dense integer ids, shared by the pair kernels.

    States of g, in display order, become ids 0..n-1 and its actual labels
    ids 0..k-1; ``delta[x][e]`` is the successor of x on e, or -1 where the
    move is undefined.  A kernel numbers the pair (dummy d, actual a) as
    ``d*width + a``, names its actual states ``actual_names`` and lists its
    moves with ``edges``, as (source, label index, target) triples over
    ``edge_labels``.
    """

    def __init__(self, g: Automaton) -> None:
        if not g.deterministic:
            raise ValueError("insertion analysis requires a deterministic automaton")
        self.states = sorted_states(g.states)
        self.state_names = [state_display(x) for x in self.states]
        self.labels = _actual_labels(g)
        n = self.n = len(self.states)
        index = {x: i for i, x in enumerate(self.states)}
        label_index = {e: i for i, e in enumerate(self.labels)}
        self.delta = [[-1] * len(self.labels) for _ in range(n)]
        for (x, e), (y,) in g.transitions.items():
            if e in label_index:
                self.delta[index[x]][label_index[e]] = index[y]
        (x0,) = g.initial
        self.x0 = index[x0]
        self.secret = {index[x] for x in g.secret}
        self._reaches: dict[tuple, tuple] = {}

    def names(self, pairs: Iterable[int]) -> dict[int, str]:
        """The display name of every pair id in ``pairs``, as its pair object shows it."""
        width, dummy, actual = self.width, self.state_names, self.actual_names
        return {p: f"({dummy[p // width]},{actual[p % width]})" for p in pairs}

    def objects(self, pairs: Iterable[int]) -> dict[int, State]:
        """The pair object of every pair id in ``pairs``."""
        return {p: self.pair(*divmod(p, self.width)) for p in pairs}

    def automaton(self, pairs: Collection[int]) -> Automaton:
        """The indicator restricted to ``pairs``."""
        if not pairs:
            return Automaton(frozenset(), self.events, {}, frozenset(), frozenset(), False)
        width, labels = self.width, self.edge_labels
        objects = self.objects(pairs)
        singletons = {p: frozenset((pair,)) for p, pair in objects.items()}
        transitions = {(objects[p], labels[j]): singletons[t] for p, j, t in self.edges(pairs)}
        secret = frozenset(pair for p, pair in objects.items() if p // width in self.secret)
        return Automaton(
            frozenset(objects.values()),
            self.events,
            transitions,
            singletons[self.start],
            secret,
            True,
        )

    def _reach(self, labels: Sequence[int]) -> tuple[list, list[int], list[int]]:
        """The SCCs of g on the label ids ``labels``, successors first, the
        SCC of every state, and every SCC's reach set as a bitmask.

        Tarjan's algorithm, iterative, on the integer ids: a component is
        complete only after every component it reaches, so its reach set is
        its own states and theirs.  Each label set is solved once.
        """
        key = tuple(labels)
        if key in self._reaches:
            return self._reaches[key]
        n = self.n
        succ = [[row[e] for e in labels if row[e] >= 0] for row in self.delta]
        index, low, scc = [-1] * n, [0] * n, [-1] * n
        stack: list[int] = []
        components: list[list[int]] = []
        reach: list[int] = []
        visited = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = visited
            visited += 1
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                x, successors = work[-1]
                for y in successors:
                    if index[y] < 0:
                        index[y] = low[y] = visited
                        visited += 1
                        stack.append(y)
                        work.append((y, iter(succ[y])))
                        break
                    if scc[y] < 0:
                        low[x] = min(low[x], index[y])
                else:
                    work.pop()
                    if work:
                        low[work[-1][0]] = min(low[work[-1][0]], low[x])
                    if low[x] < index[x]:
                        continue
                    c, mask, members = len(components), 0, []
                    while not members or members[-1] != x:
                        members.append(stack.pop())
                        scc[members[-1]] = c
                        mask |= 1 << members[-1]
                    for y in members:
                        for z in succ[y]:
                            if scc[z] != c:
                                mask |= reach[scc[z]]
                    components.append(members)
                    reach.append(mask)
        self._reaches[key] = components, scc, reach
        return components, scc, reach

    def relay_game(self, before: Sequence[int], after: Sequence[int]) -> list[int]:
        """The staying pairs of g, as one bitmask of dummies per actual state.

        Bit d of entry x is set when the pair (dummy d, actual x) is in W,
        the greatest set of pairs in which every event e enabled at x has some
        d'' in T_e(d) = AReach(delta_e(BReach(d))) with (d'', delta_e(x)) in
        W: the inserter walks the believed state along before-events, relays
        e, walks on along after-events, and can keep this up forever.
        BReach and AReach are reach sets in the subgraphs of g on the label
        ids ``before`` and ``after``.  A halted actual state has no event to
        relay, so all its pairs stay.  T_e is the same for all dummies of one
        SCC of the before-subgraph, so each actual state keeps the list of
        those SCCs still in W, and is re-tested only when a successor's
        bitmask shrinks.
        """
        n, delta = self.n, self.delta
        components, scc, _ = self._reach(before)
        _, after_scc, after_reach = self._reach(after)
        then_after = [after_reach[c] for c in after_scc]
        # Per event e and before-SCC C, T_e of the dummies of C, successors first.
        relays = []
        for e in range(len(self.labels)):
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
        masks = [sum(1 << d for d in members) for members in components]
        win = [(1 << n) - 1] * n
        alive = [range(len(components))] * n
        sources: list[set[int]] = [set() for _ in range(n)]
        for x, row in enumerate(delta):
            for y in row:
                if y >= 0:
                    sources[y].add(x)
        queue = set(range(n))
        while queue:
            x = queue.pop()
            moves = [(relays[e], y) for e, y in enumerate(delta[x]) if y >= 0]
            kept = [c for c in alive[x] if all(row[c] & win[y] for row, y in moves)]
            if len(kept) < len(alive[x]):
                alive[x] = kept
                win[x] = sum(masks[c] for c in kept)
                queue |= sources[x]
        return win

    def decide(
        self, reachable: Collection[int], verifier: set[int], staying: Collection[int]
    ) -> _Decision:
        """The verdict read off the staying pairs ``staying``; ``reachable``
        and ``verifier`` are passed through for the report."""
        width, n = self.width, self.n
        admissible = [p for p in staying if p // width not in self.secret]
        covered = {p % width % n for p in admissible}
        _, scc, reach = self._reach(range(len(self.labels)))
        accessible = reach[scc[self.x0]]
        uncovered = frozenset(x for i, x in enumerate(self.states) if i not in covered)
        unreachable = frozenset(x for i, x in enumerate(self.states) if not accessible >> i & 1)
        return _Decision(
            not uncovered, self, reachable, verifier, staying, admissible, uncovered, unreachable
        )


class _PairKernel(_InternedDfa):
    """The indicator of a deterministic system on integer pair ids.

    The pair (dummy d, actual x) is the id ``d*n + x``.  A dashed move
    changes only the dummy, along an edge of g, and the reachable pairs are
    closed under dashed moves, so the dashed SCC of (d, x) is exactly
    SCC_g(d) x {x}.  That component is the id ``c*n + x``, where c is the
    SCC of d in g.  ``IndicatorState`` objects are made only by
    ``objects``, for library callers.
    """

    def __init__(self, g: Automaton) -> None:
        super().__init__(g)
        n = self.width = self.n
        self.actual_names = self.state_names
        inserted = [EventLabel(e.symbol, Tag.INSERTED) for e in self.labels]
        # Label index e is the solid move on event e, k + e the dashed one.
        self.edge_labels = self.labels + inserted
        self.events = frozenset(self.edge_labels)
        self.start = self.x0 * n + self.x0
        self.members, self.scc, _ = self._reach(range(len(self.labels)))
        # SCCs of g one edge of g away from each SCC: the dashed moves out
        # of every component (c, x), whatever x is.
        self.dashed = [
            {self.scc[y] for d in members for y in self.delta[d] if y >= 0} - {c}
            for c, members in enumerate(self.members)
        ]

    def reachable_pairs(self, alive: set | None = None) -> set[int]:
        """Pairs reachable from (x0, x0); with ``alive``, only through those components."""
        n, delta, scc = self.n, self.delta, self.scc
        if alive is not None and scc[self.x0] * n + self.x0 not in alive:
            return set()
        seen = {self.start}
        stack = [self.start]
        while stack:
            d, x = divmod(stack.pop(), n)
            row_x = delta[x]
            for e, dd in enumerate(delta[d]):
                if dd < 0:
                    continue
                xx = row_x[e]
                for y in (x, xx) if xx >= 0 else (x,):
                    if alive is not None and scc[dd] * n + y not in alive:
                        continue
                    target = dd * n + y
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
        return seen

    def prune(self, pairs: set[int]) -> set[int]:
        """Components of ``pairs`` that survive trapping-component pruning.

        A component is trapping when it has no dashed move out of itself and
        no solid move at all, counting only moves into surviving components.
        Each component counts its moves (its escapes), each component lists
        the moves into it, and a falling component decrements the counts of
        the components those moves come from.  This reaches the same fixpoint
        as the round-by-round removal of ``build_verifier``.
        """
        n, delta, scc = self.n, self.delta, self.scc
        components = {scc[p // n] * n + p % n for p in pairs}
        escapes: dict[int, int] = {}
        sources: dict[int, list[int]] = {}
        for key in components:
            c, x = divmod(key, n)
            row_x = delta[x]
            targets = [s * n + x for s in self.dashed[c]]
            for d in self.members[c]:
                for e, dd in enumerate(delta[d]):
                    if dd >= 0 and row_x[e] >= 0:
                        targets.append(scc[dd] * n + row_x[e])
            escapes[key] = len(targets)
            for target in targets:
                sources.setdefault(target, []).append(key)
        falling = [key for key, count in escapes.items() if not count]
        alive = set(components)
        while falling:
            key = falling.pop()
            alive.discard(key)
            for source in sources.get(key, ()):
                escapes[source] -= 1
                if not escapes[source]:
                    falling.append(source)
        return alive

    def pair(self, d: int, x: int) -> IndicatorState:
        return IndicatorState(self.states[d], self.states[x])

    def edges(self, pairs: Collection[int]) -> Iterator[tuple[int, int, int]]:
        """The moves between ``pairs``, as (source, label index, target) triples."""
        n, delta, k = self.n, self.delta, len(self.labels)
        for p in pairs:
            d, x = divmod(p, n)
            row_x = delta[x]
            for e, dd in enumerate(delta[d]):
                if dd < 0:
                    continue
                # Dashed: the insertion moves only the observer's belief.
                if dd * n + x in pairs:
                    yield p, k + e, dd * n + x
                # Solid: the real event is relayed, both components advance.
                if row_x[e] >= 0 and dd * n + row_x[e] in pairs:
                    yield p, e, dd * n + row_x[e]


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
    return kernel.automaton(kernel.reachable_pairs())


@dataclass(frozen=True)
class SubspacePartition:
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
    return Automaton(
        keep,
        a.events,
        transitions,
        a.initial & keep,
        a.secret & keep,
        a.deterministic if a.initial & keep else False,
    )


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


@dataclass(frozen=True)
class EiReport:
    enforceable: bool
    verifier: Automaton
    staying_nonblocking: frozenset
    admissible: frozenset
    uncovered_actual_states: frozenset
    unreachable_actual_states: frozenset


class _Decision(NamedTuple):
    """A kernel run's verdict and the pair ids behind it, with no pair object.

    ``reachable`` holds the indicator's pairs and ``verifier`` those pruning
    keeps, which the staying pairs need not lie in when g can halt; the
    other fields mean what they mean in ``EiReport`` and
    ``EicReport``, with pair ids for pairs.  The CLI renders its report and
    DOT file from these ids.
    """

    enforceable: bool
    kernel: _InternedDfa
    reachable: Collection[int]
    verifier: set[int]
    staying_nonblocking: Collection[int]
    admissible: list[int]
    uncovered_actual_states: frozenset
    unreachable_actual_states: frozenset


def _decide_ei(g: Automaton) -> _Decision:
    """The decision of ``check_ei_enforceable``, on pair ids.

    The staying pairs are the reachable pairs the relay game keeps, with
    every event insertable before and after a relay.  Pruning only names
    the paper's verifier.
    """
    kernel = _PairKernel(g)
    n, reachable = kernel.n, kernel.reachable_pairs()
    everything = range(len(kernel.labels))
    win = kernel.relay_game(everything, everything)
    staying = {p for p in reachable if win[p % n] >> p // n & 1}
    verifier = kernel.reachable_pairs(kernel.prune(reachable))
    return kernel.decide(reachable, verifier, staying)


def check_ei_enforceable(g: Automaton) -> EiReport:
    """Full pipeline: enforceable iff every actual state has an admissible pair.

    The quantifier runs over all states of g, including ones unreachable in
    g itself; those can never acquire a pair, so they are reported
    separately to make the verdict legible.
    """
    decision = _decide_ei(g)
    objects = decision.kernel.objects(decision.staying_nonblocking)
    return EiReport(
        decision.enforceable,
        decision.kernel.automaton(decision.verifier),
        frozenset(objects[p] for p in decision.staying_nonblocking),
        frozenset(objects[p] for p in decision.admissible),
        decision.uncovered_actual_states,
        decision.unreachable_actual_states,
    )
