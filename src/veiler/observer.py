"""Powerset observer construction and current-state opacity.

The observer tracks the set of states an outside observer considers possible
after each observable event.  Opacity holds when no reachable estimate
consists of secret states only.

One breadth-first search over estimates decides it.  Each observable label
has one successor map, from a state to its estimate after that label: the
automaton's own map of that label (``Automaton.moves``), read as it is,
when no state has a hidden move, and otherwise a new map of the closures
of its target sets under unobservable moves, built from one shared
closure per state that has a hidden move.  Each estimate's size is
tested once: the successor of a one-state estimate on each label is one
lookup, and that of a larger estimate a union.  A nonempty all-secret
estimate is flagged when it is first found.  Labels are tried in
canonical order, so the first all-secret estimate reached gives a
shortest witness, ties broken by canonical label order.  ``build_observer``
materialises the same search.  ``check_current_state_opacity`` wraps the
violating estimates in ``ObserverState`` values; the CLI names the search's
frozensets directly, through the helper that ``ObserverState.display`` uses.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .fsm import Automaton, EventLabel, FrozenValue, as_label, sorted_labels, state_display


def project(
    s: Sequence[str | EventLabel], observable: Iterable[str | EventLabel]
) -> tuple[EventLabel, ...]:
    """Erase exactly the labels outside ``observable``, preserving order."""
    keep = frozenset(as_label(e) for e in observable)
    return tuple(label for label in (as_label(e) for e in s) if label in keep)


class ObserverState(FrozenValue):
    """A state estimate: the set of source states consistent with an observation."""

    __slots__ = _fields = ("estimate",)
    estimate: frozenset

    def display(self) -> str:
        return _estimate_name(self.estimate)


def _escaped(name: str) -> str:
    """A state name inside an estimate name: a backslash before each ``\\``
    and ``,``, so distinct estimates have distinct names."""
    return name.replace("\\", "\\\\").replace(",", "\\,")


def _estimate_name(estimate: frozenset) -> str:
    """The display name of an estimate: its states' escaped names, sorted,
    joined by commas in braces."""
    if len(estimate) == 1:  # every estimate of a fully observed system
        (x,) = estimate
        return "{" + _escaped(state_display(x)) + "}"
    return "{" + ",".join(map(_escaped, sorted(map(state_display, estimate)))) + "}"


class OpacityVerdict(NamedTuple):
    opaque: bool
    violating_estimates: frozenset
    witness_observation: Optional[tuple[EventLabel, ...]]


_EMPTY: frozenset = frozenset()


def _union(sets: Sequence[frozenset]) -> frozenset:
    """The union of ``sets``: the one set itself when there is one."""
    return sets[0] if len(sets) == 1 else _EMPTY.union(*sets)


def _search(
    n: Automaton, observable: Iterable[str | EventLabel], edges: Optional[list] = None
) -> tuple:
    """The breadth-first search of the estimates of ``n``, as frozensets: the
    observable labels in canonical order; the estimates in discovery order;
    each one's link to its parent, the parent's index times the label count
    plus the label index, or -1 for the start; and the indices of the
    nonempty all-secret estimates, in discovery order.  With ``edges``
    given, every move is appended to it as (estimate index, label index,
    successor)."""
    obs = frozenset(as_label(e) for e in observable)
    if not obs <= n.events:
        raise ValueError("observable labels must be a subset of the automaton's events")
    labels = sorted_labels(obs)
    moves = [n.moves.get(e, {}) for e in labels]  # n's own maps, in canonical label order
    hidden = [row for e, row in n.moves.items() if e not in obs]
    # The closure under unobservable moves of each state that has one.
    closure = {}
    for x in {x for row in hidden for x in row}:
        reach, todo = {x}, [x]
        while todo:
            z = todo.pop()
            for row in hidden:
                for y in row.get(z, ()):
                    if y not in reach:
                        reach.add(y)
                        todo.append(y)
        closure[x] = frozenset(reach)

    def closed(ys: frozenset) -> frozenset:
        """``ys`` closed under unobservable moves: ``ys`` itself, the shared
        set, when none of its states has one."""
        if not closure or closure.keys().isdisjoint(ys):
            return ys
        return _EMPTY.union(*[closure.get(y, (y,)) for y in ys])

    if closure:  # the closed maps are new: n's own stay as they are
        moves = [{x: closed(ys) for x, ys in move.items()} for move in moves]
    start = closed(n.initial)
    secret = n.secret
    width = len(labels)
    gets = list(enumerate(move.get for move in moves))  # (label index, lookup)
    found, queue, links = {start}, [start], [-1]
    # Every successor is nonempty, as target sets are; only the start may be empty.
    violating = [0] if start and start <= secret else []
    for i, current in enumerate(queue):  # the queue grows while it is read
        link = i * width
        if len(current) == 1:  # every estimate of a fully observed system
            (x,) = current
            for k, get in gets:
                target = get(x)
                if target is None:
                    continue
                if target not in found:
                    found.add(target)
                    if target <= secret:
                        violating.append(len(queue))
                    queue.append(target)
                    links.append(link + k)
                if edges is not None:
                    edges.append((i, k, target))
        else:  # none or several states: merge their moves
            for k, move in enumerate(moves):
                targets = [move[x] for x in current if x in move]
                if not targets:
                    continue
                target = _union(targets)
                if target not in found:
                    found.add(target)
                    if target <= secret:
                        violating.append(len(queue))
                    queue.append(target)
                    links.append(link + k)
                if edges is not None:
                    edges.append((i, k, target))
    return labels, queue, links, violating


def build_observer(
    n: Automaton, observable: Iterable[str | EventLabel]
) -> Automaton:
    """Deterministic automaton over the observable labels whose states are estimates.

    The initial estimate is the unobservable reach of the initial states;
    only estimates reachable from it are materialized.  An estimate is secret
    iff it is nonempty and all secret in the source, so opacity can be read
    off the observer's own secret set.
    """
    edges: list = []
    labels, queue, _, violating = _search(n, observable, edges)
    states = [ObserverState(estimate) for estimate in queue]
    state_of = dict(zip(queue, states))
    transitions = {(states[i], labels[k]): frozenset((state_of[t],)) for i, k, t in edges}
    secret = [states[i] for i in violating]
    return Automaton(states, labels, transitions, states[:1], secret)


def _decide(n: Automaton, observable: Iterable[str | EventLabel]) -> tuple:
    """The nonempty all-secret estimates of ``n`` as frozensets, in discovery
    order, and a shortest observation reaching the first of them, ties broken
    by canonical label order; the witness is None when there are none."""
    labels, queue, links, violating = _search(n, observable)
    if not violating:
        return [], None
    witness, link = [], links[violating[0]]
    while link >= 0:
        i, k = divmod(link, len(labels))
        witness.append(labels[k])
        link = links[i]
    return [queue[i] for i in violating], tuple(reversed(witness))


def check_current_state_opacity(
    n: Automaton, observable: Iterable[str | EventLabel]
) -> OpacityVerdict:
    """Opaque iff every reachable nonempty estimate holds a non-secret state,
    so a system without initial states, whose one estimate is empty, is opaque.

    The witness is a shortest observation reaching an all-secret estimate,
    ties broken by canonical label order; it is empty when the initial
    estimate itself violates opacity.
    """
    estimates, witness = _decide(n, observable)
    if witness is None:
        return OpacityVerdict(True, frozenset(), None)
    return OpacityVerdict(False, frozenset(map(ObserverState, estimates)), witness)
