"""Powerset observer construction and current-state opacity.

The observer tracks the set of states an outside observer considers possible
after each observable event.  Opacity holds when no reachable estimate
consists of secret states only.

One breadth-first search over bitmask estimates decides it: states are
numbered in display order, each state's observable moves are closed under
unobservable ones once, and labels are tried in canonical order, so the first
all-secret estimate reached gives a shortest witness, ties broken by canonical
label order.  ``build_observer`` materialises the same search.
"""
from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .fsm import (
    Automaton, EventLabel, FrozenValue, as_label, sorted_labels, sorted_states, state_display,
)


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


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search(n: Automaton, observable: Iterable[str | EventLabel]) -> tuple:
    """The breadth-first search of the estimates of ``n``, as bitmasks: the
    observable labels in canonical order; each estimate, in discovery order,
    mapped to its (parent, label index) or None; every move (estimate, label
    index, successor) in search order; the nonempty all-secret estimates in
    discovery order; and the ``ObserverState`` of an estimate."""
    obs = frozenset(as_label(e) for e in observable)
    if not obs <= n.events:
        raise ValueError("observable labels must be a subset of the automaton's events")
    order = sorted_states(n.states)
    ids = {x: i for i, x in enumerate(order)}
    labels = sorted_labels(obs)
    index = {e: k for k, e in enumerate(labels)}
    hidden, moves = [0] * len(order), [[] for _ in order]
    for (x, e), targets in n.transitions.items():
        k = index.get(e)
        if k is None:
            hidden[ids[x]] |= sum(1 << ids[y] for y in targets)
        else:
            moves[ids[x]].append((k, targets))
    closure = [1 << i for i in range(len(order))]
    for i, reach in enumerate(closure):
        new = hidden[i]
        while new:
            reach |= new
            new = reduce(or_, [hidden[j] for j in _bits(new)]) & ~reach
        closure[i] = reach
    for row in moves:  # by label, closed under unobservable moves
        row[:] = [(k, reduce(or_, [closure[ids[y]] for y in ys])) for k, ys in sorted(row)]
    start = reduce(or_, [closure[ids[x]] for x in n.initial], 0)
    parent, queue, edges = {start: None}, [start], []
    for current in queue:  # the queue grows while it is read
        if current.bit_count() == 1:
            step = moves[current.bit_length() - 1]
        else:  # none or several states: merge their moves
            moved = [0] * len(labels)
            for i in _bits(current):
                for k, target in moves[i]:
                    moved[k] |= target
            step = [(k, target) for k, target in enumerate(moved) if target]
        for k, target in step:
            edges.append((current, k, target))
            if target not in parent:
                parent[target] = (current, k)
                queue.append(target)
    public = sum(1 << ids[x] for x in n.states - n.secret)
    violating = [mask for mask in queue if mask and not mask & public]
    return labels, parent, edges, violating, lambda mask: ObserverState(
        frozenset(order[i] for i in _bits(mask))
    )


def build_observer(
    n: Automaton, observable: Iterable[str | EventLabel]
) -> Automaton:
    """Deterministic automaton over the observable labels whose states are estimates.

    The initial estimate is the unobservable reach of the initial states;
    only estimates reachable from it are materialized.  An estimate is secret
    iff it is nonempty and all secret in the source, so opacity can be read
    off the observer's own secret set.
    """
    labels, parent, edges, violating, state = _search(n, observable)
    states = {mask: state(mask) for mask in parent}
    transitions = {(states[m], labels[k]): frozenset({states[t]}) for m, k, t in edges}
    initial = frozenset({next(iter(states.values()))})
    secret = frozenset(states[mask] for mask in violating)
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
    labels, parent, _, violating, state = _search(n, observable)
    if not violating:
        return OpacityVerdict(True, frozenset(), None)
    witness, step = [], parent[violating[0]]
    while step is not None:
        witness.append(labels[step[1]])
        step = parent[step[0]]
    return OpacityVerdict(False, frozenset(map(state, violating)), tuple(reversed(witness)))
