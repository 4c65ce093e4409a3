"""Finite-automaton data model and the graph algorithms shared by every other module.

States are opaque hashable values with a stable display name; events are
(symbol, tag) labels so that fictitious copies of an event can be told apart
from the real one while still sorting next to it.  An automaton stores its
moves once, per label, as every reader steps one event at a time; moves
are partial: a state missing from a label's map has no move on it.  Every
checking constructor reads an event given as its symbol as its actual label.
"""
from __future__ import annotations

from enum import IntEnum
from functools import cached_property
from operator import attrgetter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

State = Hashable


class Tag(IntEnum):
    """How a label relates to the real system output."""

    ACTUAL = 0
    INSERTED = 1
    INSERTED_BEFORE = 2
    INSERTED_AFTER = 3


_SUFFIX = {
    Tag.ACTUAL: "",
    Tag.INSERTED: "_i",
    Tag.INSERTED_BEFORE: "_bi",
    Tag.INSERTED_AFTER: "_ai",
}
# Longest suffix first so "_bi" is not mistaken for "_i".
_SUFFIXES_BY_LENGTH = sorted(
    ((suffix, tag) for tag, suffix in _SUFFIX.items() if suffix),
    key=lambda item: -len(item[0]),
)


class EventLabel(NamedTuple):
    """An event symbol plus the tag saying whether it is real or inserted.

    A (symbol, tag) tuple, so hashing, equality and ordering run in C and a
    label equals its plain tuple.  Two labels look identical to an outside
    observer iff their symbols match; the tag only matters to the machinery
    that distinguishes real from fictitious output.
    """

    symbol: str
    tag: Tag = Tag.ACTUAL

    def display(self) -> str:
        return self.symbol + _SUFFIX[self.tag]

    def as_actual(self) -> EventLabel:
        return EventLabel(self.symbol)

    @property
    def inserted(self) -> bool:
        return self.tag is not Tag.ACTUAL


def as_label(e: str | EventLabel) -> EventLabel:
    """Coerce a bare symbol to an actual-event label."""
    if isinstance(e, EventLabel):
        return e
    return EventLabel(e)


def word(text: str) -> tuple[EventLabel, ...]:
    """Parse a test-friendly string of labels.

    Tokens are whitespace-separated; a string without whitespace is one
    token when it contains an underscore and a character per token
    otherwise.  A trailing ``_i``/``_bi``/``_ai`` marks a token as inserted.
    """
    if any(ch.isspace() for ch in text):
        tokens = text.split()
    elif "_" in text:
        tokens = [text]
    else:
        tokens = list(text)
    out: list[EventLabel] = []
    for token in tokens:
        for suffix, tag in _SUFFIXES_BY_LENGTH:
            if token.endswith(suffix) and len(token) > len(suffix):
                out.append(EventLabel(token[: -len(suffix)], tag))
                break
        else:
            out.append(EventLabel(token))
    return tuple(out)


def state_display(x: State) -> str:
    """Stable display name of a state; composite states provide display()."""
    method = getattr(x, "display", None)
    if callable(method):
        return method()
    return str(x)


def sorted_states(states: Iterable[State]) -> list[State]:
    return sorted(states, key=state_display)


def sorted_labels(labels: Iterable[EventLabel]) -> list[EventLabel]:
    return sorted(labels)


class FrozenValue:
    """Base of the immutable values that are not tuples: ``_fields`` names
    their fields, in constructor order.

    Like a frozen dataclass, and unlike a named tuple, a value equals only a
    value of its own class, so a composite state never equals a plain tuple
    state.  It hashes like its field tuple, refuses assignment, and pickles
    and copies through its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)  # one name gives the value, not a 1-tuple
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values


_EMPTY: frozenset = frozenset()


class Automaton(FrozenValue):
    """A finite automaton with a possibly partial transition relation.

    ``moves`` maps each label to its successor map, from a state to the
    nonempty set of its successors on that label, and holds no empty map.
    It is the one copy of the moves: ``transitions`` keys them by (state,
    label), derived on first read, and a table given to ``Automaton(...)``
    is read, never kept.  The secret set rides along on the automaton
    itself so there is one source of truth for it; modules that do not
    care about secrecy simply never read it.  ``deterministic`` is read off
    the data: one initial state and single-successor moves.  The per-state
    index of moves behind ``outgoing``, ``enabled_events`` and
    ``accessible_part`` is built on first use.

    ``Automaton(...)``, ``dfa`` and ``nfa`` freeze the sets and targets
    they are given, read a symbol as its actual label and check every
    move, by ``_checked_moves``; only ``_checked``, for moves its caller
    has checked already (the parser's), does not.  Pickling and copying
    rebuild through the checking constructor.
    """

    _fields = ("states", "events", "transitions", "initial", "secret")
    states: frozenset
    events: frozenset
    moves: Mapping[EventLabel, Mapping[State, frozenset]]
    initial: frozenset
    secret: frozenset

    __hash__ = None  # type: ignore[assignment]  # unhashable: moves is a dict

    def __init__(self, states, events, transitions, initial, secret=_EMPTY) -> None:
        entries = ((x, e, targets) for (x, e), targets in transitions.items())
        vars(self).update(_checked_moves(states, events, initial, secret, entries))

    @classmethod
    def _checked(
        cls, states, events, moves, initial, secret, deterministic: bool
    ) -> Automaton:
        """An automaton of fields and per-label ``moves`` that already pass
        every check of ``_checked_moves``, with the ``deterministic`` its
        caller read off them: it checks nothing, so it walks no move."""
        self = cls.__new__(cls)
        vars(self).update(
            states=states, events=events, moves=moves, initial=initial, secret=secret,
            deterministic=deterministic,
        )
        return self

    @cached_property
    def transitions(self) -> Mapping[tuple[State, EventLabel], frozenset]:
        """The moves keyed by (state, label), derived on first read."""
        return {(x, e): targets for e, row in self.moves.items() for x, targets in row.items()}

    @classmethod
    def dfa(
        cls,
        states: Iterable[State],
        events: Iterable[str | EventLabel],
        transitions: Mapping[tuple[State, str | EventLabel], State],
        initial: State,
        secret: Iterable[State] = (),
    ) -> Automaton:
        """Build a deterministic automaton from single-successor transitions.

        As ``nfa`` of the one-target table, with each declared event's label
        made once and looked up by the moves that name it.
        """
        label = {e: as_label(e) for e in events}
        entries = ((x, label.get(e, e), frozenset((y,))) for (x, e), y in transitions.items())
        return cls._checked(**_checked_moves(states, label.values(), (initial,), secret, entries))

    @classmethod
    def nfa(
        cls,
        states: Iterable[State],
        events: Iterable[str | EventLabel],
        transitions: Mapping[tuple[State, str | EventLabel], Iterable[State]],
        initial: Iterable[State],
        secret: Iterable[State] = (),
    ) -> Automaton:
        """Build a possibly nondeterministic automaton; an empty entry is dropped."""
        entries = (
            (x, e, targets) for (x, e), ys in transitions.items() if (targets := frozenset(ys))
        )
        return cls._checked(**_checked_moves(states, events, initial, secret, entries))

    # -- lookups ---------------------------------------------------------

    def _require_state(self, x: State) -> State:
        if x not in self.states:
            raise ValueError(f"unknown state {state_display(x)!r}")
        return x

    def _require_label(self, e: str | EventLabel) -> EventLabel:
        label = as_label(e)
        if label not in self.events:
            raise ValueError(f"unknown event label {label.display()!r}")
        return label

    def step(self, x: State, e: str | EventLabel) -> frozenset:
        """Successors of x under label e, or its symbol's actual label;
        empty when undefined."""
        row = self.moves.get(as_label(e))
        return row.get(x, _EMPTY) if row else _EMPTY

    @cached_property
    def _outgoing(self) -> dict[State, dict[EventLabel, frozenset]]:
        """The per-state index of moves, built on first read."""
        index: dict[State, dict[EventLabel, frozenset]] = {}
        for e, row in self.moves.items():
            for x, targets in row.items():
                index.setdefault(x, {})[e] = targets
        return index

    def outgoing(self, x: State) -> Mapping[EventLabel, frozenset]:
        """Defined moves at x as a label -> successor-set mapping."""
        return self._outgoing.get(x, {})

    def run(self, source: State, s: Sequence[str | EventLabel]) -> frozenset:
        """All states reachable from source via exactly s.

        An empty result means s is not generated from source.  For
        deterministic automata the result has at most one element.
        """
        self._require_state(source)
        current: set = {source}
        for e in s:
            label = self._require_label(e)
            nxt: set = set()
            for x in current:
                nxt |= self.step(x, label)
            current = nxt
            if not current:
                break
        return frozenset(current)

    def enabled_events(self, x: State) -> frozenset:
        """Labels with a transition defined at x."""
        self._require_state(x)
        return frozenset(self.outgoing(x))

    def accessible_part(self) -> Automaton:
        """Restriction to the states reachable from the initial set."""
        reached = set(self.initial)
        frontier = list(self.initial)
        while frontier:
            x = frontier.pop()
            for targets in self.outgoing(x).values():
                for y in targets:
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        return _restrict(self, frozenset(reached))


def _checked_moves(states, events, initial, secret, entries) -> dict:
    """The fields, as ``Automaton._checked`` takes them, of the automaton of
    ``entries``, (state, label, targets) triples, read by one rule: a symbol
    is its actual label, targets are frozen, and a later entry of a state
    and label replaces an earlier one.  A set of events that are all labels
    is kept as it is, so a rebuild iterates it in the same order.  A
    ValueError names the first fault: the initial set, the secret set, then
    the entries in order, each entry's source, label and targets."""
    states, initial, secret = frozenset(states), frozenset(initial), frozenset(secret)
    events = frozenset(events)
    if not all(isinstance(e, EventLabel) for e in events):
        events = frozenset(map(as_label, events))
    if not initial <= states:
        raise ValueError("initial states must belong to the state set")
    if not secret <= states:
        raise ValueError("secret states must belong to the state set")
    moves: dict = {}
    deterministic = len(initial) == 1
    for x, e, targets in entries:
        if x not in states:
            raise ValueError(f"transition source {state_display(x)!r} is not a state")
        if e not in events:  # a symbol never equals a label
            e = as_label(e)
            if e not in events:
                raise ValueError(f"transition label {e.display()!r} is not an event")
        if targets.__class__ is not frozenset:
            targets = frozenset(targets)
        if not targets:
            raise ValueError("transition entries must be nonempty")
        if not targets <= states:
            raise ValueError("transition target outside the state set")
        if len(targets) > 1:
            deterministic = False
        row = moves.get(e)
        if row is None:
            row = moves[e] = {}
        row[x] = targets
    return dict(
        states=states, events=events, moves=moves, initial=initial, secret=secret,
        deterministic=deterministic,
    )


def _restrict(a: Automaton, keep: frozenset) -> Automaton:
    """a on the states ``keep`` and the moves among them."""
    entries = (
        (x, e, targets)
        for e, row in a.moves.items()
        for x, targets in row.items()
        if x in keep and targets <= keep
    )
    fields = _checked_moves(keep, a.events, a.initial & keep, a.secret & keep, entries)
    return Automaton._checked(**fields)


class SccPartition(NamedTuple):
    """Partition of a node set into strongly connected components."""

    components: tuple[frozenset, ...]
    component_of: Mapping[State, int]


def _tarjan(succ: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """The SCCs of the graph on nodes 0..n-1 with successor lists ``succ``,
    and the SCC index of every node.

    Tarjan's algorithm, iterative so deep graphs cannot blow the stack.
    Roots and successors are visited in list order.  A component is complete
    only after every component it reaches, so components come successors
    first.
    """
    n = len(succ)
    index, low, scc = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    components: list[list[int]] = []
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
                c, members = len(components), []
                while not members or members[-1] != x:
                    members.append(stack.pop())
                    scc[members[-1]] = c
                components.append(members)
    return components, scc


def strongly_connected_components(
    nodes: Iterable[State], edges: Iterable[tuple[State, State]]
) -> SccPartition:
    """Tarjan's algorithm on the nodes, interned in display order.

    Nodes and adjacency lists are visited in display order, which makes the
    component order deterministic.  A single node with no self-edge is its
    own component.
    """
    order = sorted_states(set(nodes))
    ids = {x: i for i, x in enumerate(order)}
    succ: list[list[int]] = [[] for _ in order]
    for src, dst in edges:
        if src not in ids or dst not in ids:
            raise ValueError("edge endpoint outside the node set")
        succ[ids[src]].append(ids[dst])
    for row in succ:
        row.sort()
    components, scc = _tarjan(succ)
    return SccPartition(
        tuple(frozenset(order[i] for i in members) for members in components),
        {x: scc[i] for x, i in ids.items()},
    )
