"""Powerset observer construction and current-state opacity.

The observer tracks the set of states an outside observer considers possible
after each observable event.  Opacity holds when no reachable estimate
consists of secret states only.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .fsm import Automaton, EventLabel, State, as_label, sorted_labels, state_display


def project(
    s: Sequence[str | EventLabel], observable: Iterable[str | EventLabel]
) -> tuple[EventLabel, ...]:
    """Erase exactly the labels outside ``observable``, preserving order."""
    keep = frozenset(as_label(e) for e in observable)
    return tuple(label for label in (as_label(e) for e in s) if label in keep)


@dataclass(frozen=True)
class ObserverState:
    """A state estimate: the set of source states consistent with an observation."""

    estimate: frozenset

    def display(self) -> str:
        return "{" + ",".join(sorted(state_display(x) for x in self.estimate)) + "}"


@dataclass(frozen=True)
class OpacityVerdict:
    opaque: bool
    violating_estimates: frozenset
    witness_observation: Optional[tuple[EventLabel, ...]]


def _unobservable_reach(n: Automaton, states: frozenset, observable: frozenset) -> frozenset:
    reached = set(states)
    frontier = list(states)
    while frontier:
        x = frontier.pop()
        for label, targets in n.outgoing(x).items():
            if label in observable:
                continue
            for y in targets:
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return frozenset(reached)


def build_observer(
    n: Automaton, observable: Iterable[str | EventLabel]
) -> Automaton:
    """Deterministic automaton over the observable labels whose states are estimates.

    The initial estimate is the unobservable reach of the initial states;
    only estimates reachable from it are materialized.  The observer keeps a
    state estimate secret iff every member is secret in the source, so
    opacity can be read off the observer's own secret set.
    """
    obs = frozenset(as_label(e) for e in observable)
    if not obs <= n.events:
        raise ValueError("observable labels must be a subset of the automaton's events")

    initial = ObserverState(_unobservable_reach(n, n.initial, obs))
    states = {initial}
    transitions: dict[tuple[State, EventLabel], frozenset] = {}
    queue = deque([initial])
    while queue:
        current = queue.popleft()
        for label in sorted_labels(obs):
            moved: set = set()
            for x in current.estimate:
                moved |= n.step(x, label)
            if not moved:
                continue
            nxt = ObserverState(_unobservable_reach(n, frozenset(moved), obs))
            transitions[(current, label)] = frozenset({nxt})
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)

    secret = frozenset(
        s for s in states if s.estimate and s.estimate <= n.secret
    )
    return Automaton(frozenset(states), obs, transitions, frozenset({initial}), secret)


def check_current_state_opacity(
    n: Automaton, observable: Iterable[str | EventLabel]
) -> OpacityVerdict:
    """Opaque iff every reachable estimate contains a non-secret state.

    The witness is a shortest observation reaching an all-secret estimate,
    ties broken by canonical label order; it is empty when the initial
    estimate itself violates opacity.
    """
    observer = build_observer(n, observable)
    violating = observer.secret
    if not violating:
        return OpacityVerdict(True, frozenset(), None)

    (initial,) = observer.initial
    if initial in violating:
        return OpacityVerdict(False, violating, ())
    paths: dict[State, tuple[EventLabel, ...]] = {initial: ()}
    queue = deque([initial])
    witness: Optional[tuple[EventLabel, ...]] = None
    while queue and witness is None:
        current = queue.popleft()
        for label in sorted_labels(observer.enabled_events(current)):
            (nxt,) = observer.step(current, label)
            if nxt in paths:
                continue
            paths[nxt] = paths[current] + (label,)
            if nxt in violating:
                witness = paths[nxt]
                break
            queue.append(nxt)
    return OpacityVerdict(False, violating, witness)
