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


@dataclass(frozen=True)
class IndicatorState:
    """A (dummy, actual) pair: believed state versus true state."""

    dummy: State
    actual: State

    def display(self) -> str:
        return f"({state_display(self.dummy)},{state_display(self.actual)})"


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
    one phase and one kind: every event, the phase unchanged.  ``moves`` is
    the one enumeration of a pair's moves, for the search, the pruning input
    and ``edges``.  Pair objects are made only by ``objects``, for library
    callers.
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
        inserted = [EventLabel(e.symbol, Tag.INSERTED) for e in self.labels]
        self.edge_labels = self.labels + inserted
        self.events = frozenset(self.edge_labels)
        self.actual_names = self.state_names
        self._phases(1, [(range(k), list(range(n)))])

    def _phases(self, phases: int, kinds: list[tuple[Sequence[int], list[int]]]) -> None:
        """Give every system state ``phases`` phases and the insertion
        ``kinds``, numbered from 1 as (label ids, phase table) pairs.

        ``solid[d]`` and a kind's ``inserts`` row d list the moves of dummy d
        as (label index, target dummy times width).
        """
        width = self.width = phases * self.n
        self.start = self.x0 * width + self.x0
        self.solid = [[(e, y * width) for e, y in enumerate(row) if y >= 0] for row in self.delta]
        self.inserts = [
            (shift, [[(j * self.k + e, row[e] * width) for e in symbols if row[e] >= 0]
                     for row in self.delta])
            for j, (symbols, shift) in enumerate(kinds, 1)
        ]

    def pair(self, d: int, x: int) -> IndicatorState:
        return IndicatorState(self.states[d], self.states[x])

    def moves(self, p: int) -> Iterator[tuple[int, int]]:
        """The moves of the pair ``p``, as (label index, target) pairs."""
        d, a = divmod(p, self.width)
        row_x = self.delta[a % self.n]
        for e, dummy in self.solid[d]:
            if row_x[e] >= 0:
                yield e, dummy + row_x[e]
        for shift, table in self.inserts:
            b = shift[a]
            if b >= 0:
                for j, dummy in table[d]:
                    yield j, dummy + b

    def search(self, targets: dict[int, list[int]] | None = None) -> set[int]:
        """The pairs reachable from the initial pair; each pair's move
        targets are recorded in ``targets`` when it is given."""
        seen = {self.start}
        stack = [self.start]
        while stack:
            p = stack.pop()
            # Listing every pair's targets costs EI's search about a quarter
            # of its time, so only a recording search lists them.
            if targets is None:
                for _, t in self.moves(p):
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            else:
                out = targets[p] = [t for _, t in self.moves(p)]
                for t in out:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        return seen

    def edges(self, pairs: Collection[int]) -> Iterator[tuple[int, int, int]]:
        """The moves between ``pairs``, as (source, label index, target) triples."""
        for p in pairs:
            for j, t in self.moves(p):
                if t in pairs:
                    yield p, j, t

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
            return Automaton(frozenset(), self.events, {}, frozenset())
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
        )

    def _reach(self, labels: Sequence[int]) -> tuple[list, list[int], list[int]]:
        """The SCCs of g on the label ids ``labels``, successors first, the
        SCC of every state, and every SCC's reach set as a bitmask.

        A component comes after every component it reaches, so its reach set
        is its own states and theirs.  Each label set is solved once.
        """
        key = tuple(labels)
        if key not in self._reaches:
            succ = [[row[e] for e in labels if row[e] >= 0] for row in self.delta]
            components, scc = _tarjan(succ)
            reach: list[int] = []
            for c, members in enumerate(components):
                mask = 0
                for y in members:
                    mask |= 1 << y
                    for z in succ[y]:
                        if scc[z] != c:
                            mask |= reach[scc[z]]
                reach.append(mask)
            self._reaches[key] = components, scc, reach
        return self._reaches[key]

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


@dataclass(frozen=True)
class EnforcementReport:
    """The verdict of ``check_ei_enforceable`` or ``check_eic_enforceable``.

    ``staying_nonblocking`` is a set of pairs, or under constraints a
    mapping from each staying pair to its type.
    """

    enforceable: bool
    verifier: Automaton
    staying_nonblocking: Collection
    admissible: frozenset
    uncovered_actual_states: frozenset
    unreachable_actual_states: frozenset


class _Decision(NamedTuple):
    """A kernel run's verdict and the pair ids behind it, with no pair object.

    ``reachable`` holds the indicator's pairs and ``verifier`` those pruning
    keeps, which the staying pairs need not lie in when g can halt; the
    other fields mean what they mean in ``EnforcementReport``, with pair
    ids for pairs.  The CLI renders its report and DOT file from these ids.
    """

    enforceable: bool
    kernel: _PairKernel
    reachable: Collection[int]
    verifier: set[int]
    staying_nonblocking: Collection[int]
    admissible: list[int]
    uncovered_actual_states: frozenset
    unreachable_actual_states: frozenset


def _prune(targets: Mapping[int, list[int]], start: int) -> set[int]:
    """The groups of ``targets`` that survive pruning and stay accessible
    from ``start``.

    ``targets`` lists, per group, the group each of its moves leads to,
    which is a key of ``targets`` too.  A group falls when none of its moves
    leads into a group still alive.  Each group counts its moves, each lists
    the moves into it, and a falling group decrements the counts of the
    groups those moves come from.  This reaches the same fixpoint as the
    round-by-round removal of ``build_verifier`` and ``build_eic_verifier``.
    The survivors' target lists then give the accessible part.  When every
    group has a move, nothing falls, so the callers skip this and keep the
    reachable pairs as they are.
    """
    escapes = {key: len(out) for key, out in targets.items()}
    sources: dict[int, list[int]] = {key: [] for key in targets}
    for key, out in targets.items():
        for t in out:
            sources[t].append(key)
    falling = [key for key, count in escapes.items() if not count]
    dead = set(falling)
    while falling:
        for source in sources[falling.pop()]:
            escapes[source] -= 1
            if not escapes[source]:
                dead.add(source)
                falling.append(source)
    if start in dead:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        for t in targets[stack.pop()]:
            if t not in dead and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _decide_ei(g: Automaton) -> _Decision:
    """The decision of ``check_ei_enforceable``, on pair ids.

    The staying pairs are the reachable pairs the relay game keeps, with
    every event insertable before and after a relay.  Pruning only names
    the paper's verifier.  Its groups are the dashed components: the
    reachable pairs are closed under dashed moves, so the component of
    (d, x) is SCC_g(d) x {x}, the group ``c*n + x`` for the SCC c of d, and
    a dashed move inside it is no escape.
    """
    kernel = _PairKernel(g)
    n, k, reachable = kernel.n, kernel.k, kernel.search()
    everything = range(k)
    win = kernel.relay_game(everything, everything)
    staying = {p for p in reachable if win[p % n] >> p // n & 1}
    members, scc, _ = kernel._reach(everything)

    def escapes(key: int) -> Iterator[int]:
        c, x = divmod(key, n)
        for d in members[c]:
            for j, t in kernel.moves(d * n + x):
                target = scc[t // n] * n + t % n
                if j < k or target != key:
                    yield target

    groups = {scc[p // n] * n + p % n for p in reachable}
    verifier = reachable
    # Nothing falls unless some group has no escape at all.
    if any(next(escapes(key), None) is None for key in groups):
        kept = _prune({key: list(escapes(key)) for key in groups}, scc[kernel.x0] * n + kernel.x0)
        verifier = {p for p in reachable if scc[p // n] * n + p % n in kept}
    return kernel.decide(reachable, verifier, staying)


def _report(decision: _Decision) -> EnforcementReport:
    """The report of ``decision``, with pair objects for its pair ids."""
    kernel, staying = decision.kernel, decision.staying_nonblocking
    objects = kernel.objects(staying)
    if isinstance(staying, Mapping):
        staying = {objects[p]: kind for p, kind in staying.items()}
    else:
        staying = frozenset(objects[p] for p in staying)
    return EnforcementReport(
        decision.enforceable,
        kernel.automaton(decision.verifier),
        staying,
        frozenset(objects[p] for p in decision.admissible),
        decision.uncovered_actual_states,
        decision.unreachable_actual_states,
    )


def check_ei_enforceable(g: Automaton) -> EnforcementReport:
    """Full pipeline: enforceable iff every actual state has an admissible pair.

    The quantifier runs over all states of g, including ones unreachable in
    g itself; those can never acquire a pair, so they are reported
    separately to make the verdict legible.
    """
    return _report(_decide_ei(g))
