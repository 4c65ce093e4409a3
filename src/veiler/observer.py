"""Powerset observer construction and current-state opacity.

The observer tracks the set of states an outside observer considers possible
after each observable event.  Opacity holds when no reachable estimate
consists of secret states only.

One breadth-first search over estimates decides it.  Each state's closure
under unobservable moves is built once, as one shared frozenset, and so are
its observable moves, each closed the same way: the successor of a
one-state estimate is one of those sets, and that of a larger estimate is
their union.  Labels are tried in canonical order, so the first all-secret
estimate reached gives a shortest witness, ties broken by canonical label
order.  ``build_observer`` materialises the same search.
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
        return "{" + ",".join(sorted(state_display(x) for x in self.estimate)) + "}"


class OpacityVerdict(NamedTuple):
    opaque: bool
    violating_estimates: frozenset
    witness_observation: Optional[tuple[EventLabel, ...]]


_EMPTY: frozenset = frozenset()


def _union(sets: Sequence[frozenset]) -> frozenset:
    """The union of ``sets``: the one set itself when there is one."""
    return sets[0] if len(sets) == 1 else _EMPTY.union(*sets)


def _search(n: Automaton, observable: Iterable[str | EventLabel]) -> tuple:
    """The breadth-first search of the estimates of ``n``, as frozensets: the
    observable labels in canonical order; each estimate, in discovery order,
    mapped to its (parent, label index) or None; every move (estimate, label
    index, successor) in search order; and the nonempty all-secret estimates
    in discovery order."""
    obs = frozenset(as_label(e) for e in observable)
    if not obs <= n.events:
        raise ValueError("observable labels must be a subset of the automaton's events")
    labels = sorted_labels(obs)
    index = {e: k for k, e in enumerate(labels)}
    outgoing = n._outgoing
    # Each state's closure under unobservable moves, one shared set per state.
    closure = {x: frozenset((x,)) for x in n.states}
    if obs != n.events:
        hidden = {}
        for x, out in outgoing.items():
            targets = [ys for e, ys in out.items() if e not in index]
            if targets:
                hidden[x] = _union(targets)
        for x in hidden:
            reach, todo = {x}, [x]
            while todo:
                for y in hidden.get(todo.pop(), ()):
                    if y not in reach:
                        reach.add(y)
                        todo.append(y)
            closure[x] = frozenset(reach)
    # Each state's observable moves closed under unobservable ones, as its
    # row of (label index, successors) in label order.
    rows = {}
    for x, out in outgoing.items():
        row = rows[x] = []
        for e, ys in sorted(out.items()):
            k = index.get(e)
            if k is not None:
                if len(ys) == 1:  # the common case, kept free of calls
                    (y,) = ys
                    target = closure[y]
                else:
                    target = _EMPTY.union(*[closure[y] for y in ys])
                row.append((k, target))
    start = _union([closure[x] for x in n.initial])
    parent, queue, edges = {start: None}, [start], []
    for current in queue:  # the queue grows while it is read
        if len(current) == 1:
            (x,) = current
            step = rows.get(x, ())
        else:  # none or several states: merge their moves
            moved = [[] for _ in labels]
            for x in current:
                for k, target in rows.get(x, ()):
                    moved[k].append(target)
            step = [(k, _union(targets)) for k, targets in enumerate(moved) if targets]
        for k, target in step:
            edges.append((current, k, target))
            if target not in parent:
                parent[target] = (current, k)
                queue.append(target)
    violating = [estimate for estimate in queue if estimate and estimate <= n.secret]
    return labels, parent, edges, violating


def build_observer(
    n: Automaton, observable: Iterable[str | EventLabel]
) -> Automaton:
    """Deterministic automaton over the observable labels whose states are estimates.

    The initial estimate is the unobservable reach of the initial states;
    only estimates reachable from it are materialized.  An estimate is secret
    iff it is nonempty and all secret in the source, so opacity can be read
    off the observer's own secret set.
    """
    labels, parent, edges, violating = _search(n, observable)
    states = {estimate: ObserverState(estimate) for estimate in parent}
    transitions = {(states[m], labels[k]): frozenset({states[t]}) for m, k, t in edges}
    initial = frozenset({next(iter(states.values()))})
    secret = frozenset(states[estimate] for estimate in violating)
    return Automaton(frozenset(states.values()), frozenset(labels), transitions, initial, secret)


def check_current_state_opacity(
    n: Automaton, observable: Iterable[str | EventLabel]
) -> OpacityVerdict:
    """Opaque iff every reachable nonempty estimate holds a non-secret state,
    so a system without initial states, whose one estimate is empty, is opaque.

    The witness is a shortest observation reaching an all-secret estimate,
    ties broken by canonical label order; it is empty when the initial
    estimate itself violates opacity.
    """
    labels, parent, _, violating = _search(n, observable)
    if not violating:
        return OpacityVerdict(True, frozenset(), None)
    witness, step = [], parent[violating[0]]
    while step is not None:
        witness.append(labels[step[1]])
        step = parent[step[0]]
    return OpacityVerdict(False, frozenset(map(ObserverState, violating)), tuple(reversed(witness)))
