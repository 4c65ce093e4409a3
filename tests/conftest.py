from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

import pytest

from veiler.constrained import (
    Decoration,
    InsertionConstraints,
    _decorate,
    base_of,
    build_eic_indicator,
    build_eic_insertion_automaton,
    build_eic_verifier,
    decoration_of,
    eic_admissible_states,
    find_staying_eic_nonblocking,
)
from veiler.fsm import Automaton, EventLabel, State, Tag, as_label, sorted_labels, state_display
from veiler.insertion import (
    IndicatorState,
    _actual_labels,
    admissible_states,
    build_indicator,
    build_insertion_automaton,
    build_verifier,
    find_staying_nonblocking,
)
from veiler.oracle import ExtendedInsertionSequence
from veiler.report import _base, _displays

# The flags of a row's code: the pair is in the verifier, or admissible;
# ``code >> 1 & 3`` is its staying type, 0 where it does not stay.
_IN_VERIFIER, _ADMISSIBLE = 1, 8


class StagedReport(NamedTuple):
    """The six fields of an ``EnforcementReport``, from the staged pipeline."""

    enforceable: bool
    verifier: Automaton
    staying_nonblocking: Collection
    admissible: frozenset
    uncovered_actual_states: frozenset
    unreachable_actual_states: frozenset

    @classmethod
    def of(cls, report) -> StagedReport:
        """The six fields of ``report``, read one by one."""
        return cls(*(getattr(report, field) for field in cls._fields))

    def payload(self, name: str, constraints: Optional[InsertionConstraints] = None) -> dict:
        """The verify-ei / verify-eic payload, coded pair object by pair
        object: the reference for ``veiler.report``'s renderer.

        Every list is the coded rows, sorted by name, filtered.  Under
        ``constraints``, the layout is verify-eic's and the staying pairs
        map to their type.
        """
        # On a system that can halt, staying pairs may lie outside the verifier.
        staying = self.staying_nonblocking
        kinds = staying if isinstance(staying, Mapping) else dict.fromkeys(staying, 1)
        verifier = self.verifier.states
        pairs = [*kinds, *(pair for pair in verifier if pair not in kinds)]
        rows = sorted(
            (
                state_display(pair),
                i,
                (_IN_VERIFIER if pair in verifier else 0)
                | kinds.get(pair, 0) << 1
                | (_ADMISSIBLE if pair in self.admissible else 0),
            )
            for i, pair in enumerate(pairs)
        )
        payload = _base("verify-ei" if constraints is None else "verify-eic", name)
        payload["enforceable"] = self.enforceable
        if constraints is None:
            payload["staying_nonblocking"] = [text for text, _, code in rows if code >> 1 & 3]
        else:
            payload["insertable_before"] = sorted(constraints.before)
            payload["insertable_after"] = sorted(constraints.after)
            payload["staying_nonblocking"] = {
                text: code >> 1 & 3 for text, _, code in rows if code >> 1 & 3
            }
        payload["verifier_states"] = [text for text, _, code in rows if code & _IN_VERIFIER]
        payload["admissible"] = [text for text, _, code in rows if code & _ADMISSIBLE]
        payload["uncovered_actual_states"] = _displays(self.uncovered_actual_states)
        payload["unreachable_actual_states"] = _displays(self.unreachable_actual_states)
        return payload


def _naive_indicator(g: Automaton, gi: Automaton) -> Automaton:
    """The indicator of g and ``gi``, its insertion automaton, EI's or
    EIC's, built pair by pair: on each label of either, the dummy steps in
    g on the label's event and the actual state steps in ``gi``."""
    (x0,) = g.initial
    start = IndicatorState(x0, x0)
    labels = sorted_labels(g.events | gi.events)
    states, frontier, transitions = {start}, [start], {}
    while frontier:
        pair = frontier.pop()
        for label in labels:
            for dummy in g.step(pair.dummy, label.as_actual()):
                for act in gi.step(pair.actual, label):
                    target = IndicatorState(dummy, act)
                    transitions[(pair, label)] = frozenset({target})
                    if target not in states:
                        states.add(target)
                        frontier.append(target)
    secret = frozenset(p for p in states if p.dummy in g.secret)
    return Automaton(
        frozenset(states), frozenset(labels), transitions, frozenset({start}), secret
    )


def reference_build_insertion_automaton(g: Automaton) -> Automaton:
    """``build_insertion_automaton`` as it was before it was drawn from the
    kernel's move table: the reference its automata and errors are held to."""
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


# The decoration tables of ``reference_build_eic_insertion_automaton``, kept
# apart from the kernel's: where a before- or after-insertion leads.
_BEFORE_MOVE = {
    Decoration.PLAIN: Decoration.B,
    Decoration.A: Decoration.AB,
    Decoration.B: Decoration.B,
    Decoration.AB: Decoration.AB,
}
_AFTER_MOVE = {
    Decoration.PLAIN: Decoration.A,
    Decoration.A: Decoration.A,
}


def reference_build_eic_insertion_automaton(
    g: Automaton, c: InsertionConstraints
) -> Automaton:
    """``build_eic_insertion_automaton`` as it was before it was drawn from
    the kernel's move table, decoration by decoration with its own x0 rule:
    the reference its automata and errors are held to."""
    if not g.deterministic:
        raise ValueError("insertion analysis requires a deterministic automaton")
    c.validate_against(g)
    (x0,) = g.initial
    actual = sorted_labels(e for e in g.events if not e.inserted)
    before_labels = [EventLabel(sym, Tag.INSERTED_BEFORE) for sym in sorted(c.before)]
    after_labels = [EventLabel(sym, Tag.INSERTED_AFTER) for sym in sorted(c.after)]

    states: set = set()
    for x in g.states:
        for decoration in Decoration:
            states.add(_decorate(x, decoration))
    if not any(x0 in targets for targets in g.transitions.values()):
        states.discard(_decorate(x0, Decoration.A))
        states.discard(_decorate(x0, Decoration.AB))

    transitions: dict[tuple[State, EventLabel], frozenset] = {}
    for state in states:
        base = base_of(state)
        decoration = decoration_of(state)
        for e in actual:
            target = g.step(base, e)
            if target:
                (y,) = target
                transitions[(state, e)] = frozenset({y})
        for label in before_labels:
            nxt = _decorate(base, _BEFORE_MOVE[decoration])
            if nxt in states:
                transitions[(state, label)] = frozenset({nxt})
        if decoration in _AFTER_MOVE:
            for label in after_labels:
                nxt = _decorate(base, _AFTER_MOVE[decoration])
                if nxt in states:
                    transitions[(state, label)] = frozenset({nxt})

    full = Automaton(
        frozenset(states),
        g.events | frozenset(before_labels) | frozenset(after_labels),
        transitions,
        g.initial,
        g.secret,
    )
    return full.accessible_part()


class ReferenceBuilders(NamedTuple):
    """The insertion automata's builders, unconstrained and constrained, as
    they were before the kernel drew them."""

    ei: Callable[[Automaton], Automaton]
    eic: Callable[[Automaton, InsertionConstraints], Automaton]


@pytest.fixture
def reference_builders() -> ReferenceBuilders:
    """The two insertion automaton builders as they were, each state and
    decoration by hand: the reference for the kernel's drawing."""
    return ReferenceBuilders(reference_build_insertion_automaton, reference_build_eic_insertion_automaton)


@pytest.fixture
def naive_indicator() -> Callable[[Automaton, Automaton], Automaton]:
    """The indicator built pair by pair: the reference for
    ``build_indicator`` and ``build_eic_indicator``."""
    return _naive_indicator


@pytest.fixture
def per_pair_payload():
    """The verify payload of a report, from its pair objects named and
    coded one by one: the reference for ``veiler.report``'s renderer."""

    def run(name: str, report, constraints: Optional[InsertionConstraints] = None) -> dict:
        return StagedReport.of(report).payload(name, constraints)

    return run


def _reference_initial(g: Automaton):
    """g's single initial state; a nondeterministic g is refused."""
    if not g.deterministic:
        raise ValueError("string-level checks require a deterministic automaton")
    (x0,) = g.initial
    return x0


def _reference_checks(g: Automaton, c: Optional[InsertionConstraints] = None):
    """The reference deciders' input checks, in their order: the size
    gate, the constraint symbols, then a single initial state."""
    if len(g.states) > 6:
        raise ValueError("oracle checks are gated to at most 6 states")
    if c is not None:
        c.validate_against(g)
    return _reference_initial(g)


def _successors(g: Automaton) -> dict:
    """g's moves as one {state: successors} map per label, as ``g.transitions`` keys it."""
    succ: dict = {}
    for (x, e), targets in g.transitions.items():
        succ.setdefault(e, {})[x] = targets
    return succ


def _reach(succ: dict, starts: Iterable, symbols: Iterable[str | EventLabel]) -> frozenset:
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


def reference_is_feasible(
    g: Automaton, s: Sequence[str | EventLabel], ei: ExtendedInsertionSequence
) -> bool:
    """``is_feasible`` on Python sets of states, one ``g.step`` per believed
    state per masked label, as it was before it read g into bitmask tables:
    the reference its results and errors are held to."""
    x0 = _reference_initial(g)
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


def reference_is_desirable_bounded(
    g: Automaton,
    s: Sequence[str | EventLabel],
    ei: ExtendedInsertionSequence,
    horizon: int,
) -> bool:
    """``is_desirable_bounded`` on Python sets of believed states, walked by
    ``_reach`` and stepped by ``g.step``, as it was before it read g into
    bitmask tables: the reference its results and errors are held to."""
    if not reference_is_feasible(g, s, ei):
        raise ValueError("the insertion is not feasible for this observation")
    x0 = _reference_initial(g)
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

    def survivable(believed: frozenset, actual, depth: int) -> bool:
        if not believed:
            return False
        if depth == 0:
            return True
        key = (believed, actual, depth)
        if key in memo:
            return memo[key]
        verdict = True
        staged = _reach(succ, believed, before_syms)
        for e in sorted(g.enabled_events(actual)):
            (actual_next,) = g.step(actual, e)
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


def _reference_moves(g: Automaton, succ: dict, before: dict, after: dict) -> dict:
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


def _reference_staying(moves: dict) -> dict:
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


def reference_oracle_ei_enforceable(g: Automaton) -> bool:
    """``oracle_ei_enforceable`` on Python sets of states and tuple pairs,
    as it was before it moved to bitmasks: the reference its verdicts and
    errors are held to."""
    x0 = _reference_checks(g)
    alphabet = [e for e in sorted(g.events) if not e.inserted]
    succ = _successors(g)
    walk = {d: _reach(succ, (d,), alphabet) for d in g.states}
    w = _reference_staying(_reference_moves(g, succ, walk, {y: (y,) for y in g.states}))

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


def reference_oracle_eic_enforceable(g: Automaton, c: InsertionConstraints) -> bool:
    """``oracle_eic_enforceable`` on Python sets of states and tuple pairs,
    as it was before it moved to bitmasks: the reference its verdicts and
    errors are held to."""
    x0 = _reference_checks(g, c)
    succ = _successors(g)
    breach = {d: _reach(succ, (d,), c.before) for d in g.states}
    areach = {d: _reach(succ, (d,), c.after) for d in g.states}
    moves = _reference_moves(g, succ, breach, areach)
    w = _reference_staying(moves)

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


class ReferenceOracle(NamedTuple):
    """The set-based search deciders, unconstrained and constrained, and
    the set-based string checks."""

    ei: Callable[[Automaton], bool]
    eic: Callable[[Automaton, InsertionConstraints], bool]
    feasible: Callable[..., bool]
    desirable: Callable[..., bool]


@pytest.fixture
def reference_oracle() -> ReferenceOracle:
    """The search oracle's deciders and string checks as they were on
    Python sets: the reference for the bitmask ones of ``veiler.oracle``."""
    return ReferenceOracle(
        reference_oracle_ei_enforceable, reference_oracle_eic_enforceable,
        reference_is_feasible, reference_is_desirable_bounded,
    )


@pytest.fixture(scope="session", autouse=True)
def checkout_on_subprocess_path():
    """Let ``python -m veiler`` subprocesses import this checkout's package.

    pyproject's ``pythonpath`` setting puts ``src`` on the test process's
    path only; this does the same for the processes the CLI tests start.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


@pytest.fixture
def g1() -> Automaton:
    """Six-state running example: two secret states, one cycle through each."""
    return Automaton.dfa(
        states=range(6),
        events=["a", "b", "c"],
        transitions={
            (0, "a"): 1,
            (0, "b"): 3,
            (0, "c"): 2,
            (1, "a"): 1,
            (2, "a"): 4,
            (3, "a"): 5,
            (4, "b"): 2,
            (5, "c"): 3,
        },
        initial=0,
        secret=[2, 3],
    )


@pytest.fixture
def tracking_trap() -> Automaton:
    """Four-state system built to catch a one-step nonblocking check.

    With only 'a' insertable before outputs, observing b (true state 2,
    secret) leaves two disguises: relay from 0 and look like 2 itself, or
    insert a and look like 3.  The first ends secret; the second strands
    one step later, when the true run continues a b and the believed state
    3 has no b move and no way to walk to one.  A check that only asks
    whether the next output can be relayed accepts the second disguise;
    the verifier construction and the search oracle both follow the relays
    on and refuse it.
    """
    return Automaton.dfa(
        states=range(4),
        events=["a", "b"],
        transitions={
            (0, "a"): 1,
            (0, "b"): 2,
            (1, "b"): 3,
            (2, "a"): 0,
            (3, "a"): 3,
        },
        initial=0,
        secret=[2],
    )


@pytest.fixture
def staged_ei_report():
    """The unconstrained pipeline run stage by stage, as the paper builds it.

    ``check_ei_enforceable`` decides on interned pair ids instead; its
    report's six fields must equal these one by one.  The staying stage runs
    on the whole indicator: pruning names the verifier but decides nothing.
    """

    def run(g: Automaton) -> StagedReport:
        ia = build_indicator(g, build_insertion_automaton(g))
        v = build_verifier(ia, g)
        snb = find_staying_nonblocking(ia, g)
        admissible = admissible_states(v, snb, g.secret)
        uncovered = frozenset(g.states - {pair.actual for pair in admissible})
        unreachable = frozenset(g.states - g.accessible_part().states)
        return StagedReport(not uncovered, v, snb, admissible, uncovered, unreachable)

    return run


@pytest.fixture
def staged_eic_report():
    """The constrained pipeline run stage by stage, as the paper builds it.

    ``check_eic_enforceable`` decides on interned pair ids instead; its
    report's six fields must equal these one by one.  The staying stage runs
    on the whole indicator: pruning names the verifier but decides nothing.
    """

    def run(g: Automaton, c: InsertionConstraints) -> StagedReport:
        eia = build_eic_indicator(g, build_eic_insertion_automaton(g, c))
        v = build_eic_verifier(eia)
        nb = find_staying_eic_nonblocking(eia, g)
        admissible = eic_admissible_states(v, nb, g.secret)
        uncovered = frozenset(g.states - {base_of(pair.actual) for pair in admissible})
        unreachable = frozenset(g.states - g.accessible_part().states)
        return StagedReport(not uncovered, v, nb, admissible, uncovered, unreachable)

    return run
