"""Brute-force string-level checks used to cross-validate the pipelines.

Everything here is deliberately naive: insertion walks are exact reach
sets, sustainability is a fixpoint over (believed, actual) state pairs that
re-tests every pair each round, and inputs are gated to toy sizes.  The
two deciders first read g into tables, once per call: one successor map
per label, each state's walk sets and one relay set per (label, believed
state); the fixpoint and the reachability search then read only those.
Only ``is_desirable_bounded`` takes a bound: the depth of the
continuations it explores.  The whole value of the module is that it
reaches verdicts by a route independent of the verifier constructions it
is meant to check.
"""
from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .constrained import InsertionConstraints
from .fsm import Automaton, EventLabel, FrozenValue, State, Tag, as_label

_ORACLE_STATE_LIMIT = 6


class ExtendedInsertionSequence(FrozenValue):
    """Per-event inserted segments: symbols inserted before and after each output.

    The modified observation interleaves them as
    before[0] s[0] after[0] before[1] s[1] after[1] ...
    When constraints are attached, before-segments may only use
    before-insertable symbols and after-segments only after-insertable ones,
    and the labels are tagged accordingly.
    """

    __slots__ = _fields = ("before", "after", "constraints")
    before: tuple[tuple[str, ...], ...]
    after: tuple[tuple[str, ...], ...]
    constraints: Optional[InsertionConstraints]

    def __init__(self, before, after, constraints=None) -> None:
        super().__init__(before, after, constraints)
        if len(self.before) != len(self.after):
            raise ValueError("before- and after-segment counts must match")
        if self.constraints is not None:
            sides = (("before", self.before, self.constraints.before),
                     ("after", self.after, self.constraints.after))
            for side, segments, allowed in sides:
                for segment in segments:
                    stray = ", ".join(sorted(set(segment) - allowed))
                    if stray:
                        raise ValueError(f"not insertable {side} an output: {stray}")

    @classmethod
    def ei(
        cls,
        before: Iterable[Iterable[str]],
        after: Iterable[Iterable[str]],
    ) -> ExtendedInsertionSequence:
        return cls(tuple(map(tuple, before)), tuple(map(tuple, after)))

    @classmethod
    def eic(
        cls,
        before: Iterable[Iterable[str]],
        after: Iterable[Iterable[str]],
        constraints: InsertionConstraints,
    ) -> ExtendedInsertionSequence:
        return cls(tuple(map(tuple, before)), tuple(map(tuple, after)), constraints)

    def modified_observation(
        self, s: Sequence[str | EventLabel]
    ) -> tuple[EventLabel, ...]:
        events = [as_label(e) for e in s]
        if len(events) != len(self.before):
            raise ValueError("segment count must equal the observation length")
        before_tag = Tag.INSERTED if self.constraints is None else Tag.INSERTED_BEFORE
        after_tag = Tag.INSERTED if self.constraints is None else Tag.INSERTED_AFTER
        out: list[EventLabel] = []
        for k, event in enumerate(events):
            out.extend(EventLabel(sym, before_tag) for sym in self.before[k])
            out.append(event)
            out.extend(EventLabel(sym, after_tag) for sym in self.after[k])
        return tuple(out)


def _single_initial(g: Automaton) -> State:
    if not g.deterministic:
        raise ValueError("string-level checks require a deterministic automaton")
    (x0,) = g.initial
    return x0


def is_feasible(
    g: Automaton, s: Sequence[str | EventLabel], ei: ExtendedInsertionSequence
) -> bool:
    """True iff every masked prefix of the modified observation stays in the language.

    The observer replays everything it sees through its model of the system,
    so one dead prefix means the insertion has given the game away.
    """
    x0 = _single_initial(g)
    events = [as_label(e) for e in s]
    if not g.run(x0, events):
        raise ValueError("the observation itself is not in the language")
    current: frozenset = frozenset({x0})
    for label in ei.modified_observation(events):
        stepped: set = set()
        masked = label.as_actual()
        for x in current:
            stepped |= g.step(x, masked)
        if not stepped:
            return False
        current = frozenset(stepped)
    return True


def _reach(succ: dict, starts: Iterable[State], symbols: Iterable[str | EventLabel]) -> frozenset:
    """States reachable from starts by any walk over the given symbols in ``_successors``."""
    steps = [succ.get(as_label(sym), {}) for sym in symbols]
    reached = set(starts)
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for step in steps:
            for y in step.get(x, ()):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return frozenset(reached)


def is_desirable_bounded(
    g: Automaton,
    s: Sequence[str | EventLabel],
    ei: ExtendedInsertionSequence,
    horizon: int,
) -> bool:
    """Bounded check that an insertion hides the secret and can be kept alive.

    Clause one: the masked modified observation must end in a non-secret
    state.  Clause two: for every continuation of the observation up to
    ``horizon`` events there must exist inserted segments, of any length,
    keeping every masked prefix in the language.  The continuation check
    tracks the set of believed states still consistent with some choice of
    segments, so the per-continuation existential is answered exactly up to
    the horizon.
    """
    if not is_feasible(g, s, ei):
        raise ValueError("the insertion is not feasible for this observation")
    x0 = _single_initial(g)
    events = [as_label(e) for e in s]
    (genuine_end,) = g.run(x0, events)
    masked = [label.as_actual() for label in ei.modified_observation(events)]
    (dummy_end,) = g.run(x0, masked)
    if dummy_end in g.secret:
        return False

    alphabet = {e.symbol for e in g.events if not e.inserted}
    if ei.constraints is None:
        before_syms: frozenset = frozenset(alphabet)
        after_syms: frozenset = frozenset(alphabet)
    else:
        before_syms = ei.constraints.before
        after_syms = ei.constraints.after

    succ = _successors(g)
    memo: dict = {}

    def survivable(believed: frozenset, actual: State, depth: int) -> bool:
        if not believed:
            return False
        if depth == 0:
            return True
        key = (believed, actual, depth)
        if key in memo:
            return memo[key]
        verdict = True
        for e in sorted(g.enabled_events(actual)):
            (actual_next,) = g.step(actual, e)
            staged = _reach(succ, believed, before_syms)
            relayed: set = set()
            for d in staged:
                relayed |= g.step(d, e)
            settled = _reach(succ, relayed, after_syms)
            if not survivable(settled, actual_next, depth - 1):
                verdict = False
                break
        memo[key] = verdict
        return verdict

    return survivable(frozenset({dummy_end}), genuine_end, horizon)


def _guard_size(g: Automaton) -> None:
    if len(g.states) > _ORACLE_STATE_LIMIT:
        raise ValueError(f"oracle checks are gated to at most {_ORACLE_STATE_LIMIT} states")


def _successors(g: Automaton) -> dict:
    """g's moves as one {state: successors} map per label, as ``g.transitions`` keys it."""
    succ: dict = {}
    for (x, e), targets in g.transitions.items():
        succ.setdefault(e, {})[x] = targets
    return succ


def _moves(g: Automaton, succ: dict, before: dict, after: dict) -> dict:
    """Each state's moves as (relay sets of the label, successor) pairs.

    A label has one relay set per believed state d: every state an
    after-walk reaches from a move on that label of a state a before-walk
    reaches from d.  ``before`` and ``after`` map each state to its walk's
    reach set.  An inserted-tag move of g is relayed like any other.
    """
    relays = {
        e: {d: frozenset(z for b in walk for y in step.get(b, ()) for z in after[y])
            for d, walk in before.items()}
        for e, step in succ.items()
    }
    moves: dict = {x: [] for x in g.states}
    for (x, e), targets in g.transitions.items():
        moves[x] += [(relays[e], y) for y in targets]
    return moves


def _staying(moves: dict) -> dict:
    """W, the largest set of (believed, actual) pairs such that every move
    of the actual state has a relay from the believed state back into W, as
    each actual state's believed states.  Every pair still in W is
    re-tested, round after round, until a round removes none."""
    w = {x: set(moves) for x in moves}
    changed = True
    while changed:
        changed = False
        for x, believed in w.items():
            for d in list(believed):
                if any(relay[d].isdisjoint(w[y]) for relay, y in moves[x]):
                    believed.discard(d)
                    changed = True
    return w


def oracle_ei_enforceable(g: Automaton) -> bool:
    """Fixpoint answer to unconstrained enforceability.

    W is the largest set of (believed, actual) pairs such that every event
    enabled at the actual state can be relayed after some inserted walk of
    the believed state, landing back in W.  Enforceability requires every
    actual state to be paired, somewhere reachable, with a non-secret
    believed state inside W.  The reachable pairs are searched one inserted
    event or one relay at a time.
    """
    _guard_size(g)
    x0 = _single_initial(g)
    alphabet = [e for e in sorted(g.events) if not e.inserted]
    succ = _successors(g)
    walk = {d: _reach(succ, (d,), alphabet) for d in g.states}
    w = _staying(_moves(g, succ, walk, {y: (y,) for y in g.states}))

    steps = [succ[e] for e in alphabet if e in succ]
    reachable = {(x0, x0)}
    frontier = [(x0, x0)]
    while frontier:
        d, x = frontier.pop()
        for step in steps:
            for d_next in step.get(d, ()):
                # Inserting the event moves the believed state alone, relaying it both.
                for x_next in (x, *step.get(x, ())):
                    pair = (d_next, x_next)
                    if pair not in reachable:
                        reachable.add(pair)
                        frontier.append(pair)
    return g.states <= {x for (d, x) in reachable if d not in g.secret and d in w[x]}


def oracle_eic_enforceable(g: Automaton, c: InsertionConstraints) -> bool:
    """Fixpoint answer to constrained enforceability.

    Same shape as the unconstrained oracle, but a step now means: walk the
    believed state over before-insertable symbols, relay the event, then
    walk over after-insertable symbols.  Pairs are tracked at the resting
    points between outputs.  When something can lead back to the initial
    state the believed state may also take an after-walk before the first
    output, mirroring what the constrained product construction allows
    there.
    """
    _guard_size(g)
    c.validate_against(g)
    x0 = _single_initial(g)
    succ = _successors(g)
    breach = {d: _reach(succ, (d,), c.before) for d in g.states}
    areach = {d: _reach(succ, (d,), c.after) for d in g.states}
    moves = _moves(g, succ, breach, areach)
    w = _staying(moves)

    if any(x0 in targets for targets in g.transitions.values()):
        resting = {(d, x0) for d in areach[x0]}
    else:
        resting = {(x0, x0)}
    frontier = list(resting)
    while frontier:
        d, x = frontier.pop()
        for relay, x_next in moves[x]:
            for d_next in relay[d]:
                pair = (d_next, x_next)
                if pair not in resting:
                    resting.add(pair)
                    frontier.append(pair)
    return g.states <= {x for (d, x) in resting if d not in g.secret and d in w[x]}


def random_dfa(
    seed: int,
    n_states: int = 4,
    n_events: int = 3,
    trans_density: float = 0.5,
    secret_density: float = 0.3,
    live: bool = False,
) -> Automaton:
    """Seeded random deterministic automaton, always accessible.

    A spanning structure guarantees accessibility; with live=True every
    state also keeps at least one outgoing transition, matching the
    standing assumption of the enforceability analyses that the system
    never simply halts.
    """
    rng = random.Random(seed)
    states = list(range(n_states))
    symbols = [chr(ord("a") + i) for i in range(n_events)]
    transitions: dict = {}
    # Unused (source, symbol) slots with source < x, in (source, symbol)
    # order, so no earlier spanning edge is overwritten.
    free: list = []
    for x in states[1:]:
        free.extend((x - 1, sym) for sym in symbols)
        # choice() over the indices draws exactly what choice(free) would.
        transitions[free.pop(rng.choice(range(len(free))))] = x
    for x in states:
        for sym in symbols:
            if (x, sym) not in transitions and rng.random() < trans_density:
                transitions[(x, sym)] = rng.randrange(n_states)
    if live:
        with_out = {x for (x, _) in transitions}
        for x in states:
            if x not in with_out:
                transitions[(x, rng.choice(symbols))] = rng.randrange(n_states)
    secret = [x for x in states if rng.random() < secret_density]
    return Automaton.dfa(states, symbols, transitions, 0, secret)


def random_nfa(
    seed: int,
    n_states: int = 5,
    n_events: int = 3,
    trans_density: float = 0.4,
    secret_density: float = 0.3,
) -> Automaton:
    """Seeded random nondeterministic automaton, always accessible."""
    rng = random.Random(seed)
    states = list(range(n_states))
    symbols = [chr(ord("a") + i) for i in range(n_events)]
    transitions: dict = {}
    for x in states[1:]:
        key = (rng.randrange(x), rng.choice(symbols))
        transitions.setdefault(key, set()).add(x)
    for x in states:
        for sym in symbols:
            if rng.random() < trans_density:
                targets = {y for y in states if rng.random() < 0.4}
                if not targets:
                    targets = {rng.randrange(n_states)}
                transitions.setdefault((x, sym), set()).update(targets)
    secret = [x for x in states if rng.random() < secret_density]
    return Automaton.nfa(states, symbols, transitions, {0}, secret)


def random_constraints(seed: int, symbols: Iterable[str]) -> InsertionConstraints:
    """Seeded random insertion constraints over the given symbols."""
    rng = random.Random(seed)
    before = [sym for sym in symbols if rng.random() < 0.5]
    after = [sym for sym in symbols if rng.random() < 0.5]
    return InsertionConstraints.of(before, after)
