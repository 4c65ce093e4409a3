"""Brute-force string-level checks used to cross-validate the pipelines.

Everything here is deliberately naive: insertion walks are exact reach
sets, sustainability is a fixpoint over (believed, actual) state pairs that
re-tests every pair each round, and the deciders are gated to toy sizes.
Every check numbers g's states in ``g.states`` order and holds every set of
states as an int bitmask over that numbering.  Once per call the deciders
and ``is_desirable_bounded`` read g into one successor row per label, each
state's exact walk mask and one relay mask per (label, believed state).
W and the reachable pairs are kept as one mask of believed states per
actual state.  Only ``is_desirable_bounded`` takes a bound: the depth of
the continuations it explores.  The whole value of the module is that it
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
    so one dead prefix means the insertion has given the game away.  The
    language is prefix-closed: one run of the masked string decides.
    """
    x0 = _single_initial(g)
    if not g.run(x0, s):
        raise ValueError("the observation itself is not in the language")
    masked = [label.as_actual() for label in ei.modified_observation(s)]
    return g.events.issuperset(masked) and bool(g.run(x0, masked))


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
    relays the mask of believed states still consistent with some choice of
    segments, so the per-continuation existential is answered exactly up to
    the horizon: clause two fails iff some (believed mask, state) pair at
    most ``horizon`` outputs from the end of the observation has an empty
    mask.  The pairs are walked depth by depth, each once, and the walk
    stops early at a depth that finds no new pair.
    """
    if not is_feasible(g, s, ei):
        raise ValueError("the insertion is not feasible for this observation")
    x0 = _single_initial(g)
    (genuine_end,) = g.run(x0, s)
    (dummy_end,) = g.run(x0, [label.as_actual() for label in ei.modified_observation(s)])
    if dummy_end in g.secret:
        return False

    if ei.constraints is None:
        before = after = [e for e in g.events if not e.inserted]
    else:
        before, after = ei.constraints.before, ei.constraints.after
    index, _, moves = _read(g, before, after)

    layer = [(1 << index[dummy_end], index[genuine_end])]
    seen = set(layer)
    for _ in range(horizon):
        found = []
        for believed, x in layer:
            for relay, y in moves[x]:
                settled = _union(believed, relay)
                if not settled:
                    return False
                if (settled, y) not in seen:
                    seen.add((settled, y))
                    found.append((settled, y))
        if not found:
            break
        layer = found
    return True


def _guard_size(g: Automaton) -> None:
    if len(g.states) > _ORACLE_STATE_LIMIT:
        raise ValueError(f"oracle checks are gated to at most {_ORACLE_STATE_LIMIT} states")


def _rows(g: Automaton, index: dict) -> dict:
    """g's moves as one row per label of ``g.moves``, inserted tags and
    all: entry i of a row is the mask of the successors of state number i."""
    rows: dict = {}
    for e, move in g.moves.items():
        row = rows[e] = [0] * len(index)
        for x, targets in move.items():
            i = index[x]
            for y in targets:
                row[i] |= 1 << index[y]
    return rows


def _walks(rows: dict, labels: Iterable[str | EventLabel], n: int) -> Optional[list[int]]:
    """Each of n states' walk over the labels, as the exact mask of the
    states it reaches, found by a plain search from that state alone; None
    when no label moves, as each walk then reaches its own state alone."""
    steps = [rows[label] for label in map(as_label, labels) if label in rows]
    if not steps:
        return None
    walks = []
    for start in range(n):
        reached = todo = 1 << start
        while todo:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            for step in steps:
                new = step[x] & ~reached
                reached |= new
                todo |= new
        walks.append(reached)
    return walks


def _union(mask: int, parts: Sequence[int]) -> int:
    """The union of ``parts[i]`` over the set bits i of ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        mask ^= low
        union |= parts[low.bit_length() - 1]
    return union


def _read(
    g: Automaton, before: Iterable[str | EventLabel], after: Iterable[str | EventLabel]
) -> tuple[dict, dict, list]:
    """g read once: its state numbering, its rows (``_rows``) and each state
    number's moves as (relay masks of the label, successor) pairs.

    A label has one relay mask per believed state d: every state a walk
    over ``after`` reaches from a move on that label of a state that a walk
    over ``before`` reaches from d.  An inserted-tag move of g is relayed
    like any other.  A walk over labels none of which moves is skipped: it
    leaves each state where it is.
    """
    index = {x: i for i, x in enumerate(g.states)}
    n = len(index)
    rows = _rows(g, index)
    walks, settles = _walks(rows, before, n), _walks(rows, after, n)
    relays = {}
    for e, row in rows.items():
        landing = row if settles is None else [_union(targets, settles) for targets in row]
        relays[e] = landing if walks is None else [_union(walk, landing) for walk in walks]
    moves: list = [[] for _ in range(n)]
    for e, move in g.moves.items():
        for x, targets in move.items():
            moves[index[x]] += [(relays[e], index[y]) for y in targets]
    return index, rows, moves


def _staying(moves: list) -> list[int]:
    """W, the largest set of (believed, actual) pairs such that every move
    of the actual state has a relay from the believed state back into W, as
    one mask of believed states per actual state.  Every pair still in W is
    re-tested, round after round, until a round removes none."""
    w = [(1 << len(moves)) - 1] * len(moves)
    changed = True
    while changed:
        changed = False
        for x, out in enumerate(moves):
            todo = w[x]
            while todo:
                low = todo & -todo
                todo ^= low
                d = low.bit_length() - 1
                for relay, y in out:
                    if not relay[d] & w[y]:
                        w[x] ^= low
                        changed = True
                        break
    return w


def _push(frontier: list, believed: int, x: int) -> None:
    """Put the pair (d, x) on ``frontier`` for each believed state d in the mask."""
    while believed:
        low = believed & -believed
        believed ^= low
        frontier.append((low.bit_length() - 1, x))


def _covered(g: Automaton, index: dict, w: list, found: list) -> bool:
    """True iff every actual state is paired, in ``found``, with a
    non-secret believed state inside W."""
    public = (1 << len(index)) - 1
    for x in g.secret:
        public ^= 1 << index[x]
    return all(kept & reached & public for kept, reached in zip(w, found))


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
    index, rows, moves = _read(g, alphabet, ())
    w = _staying(moves)

    steps = [rows[e] for e in alphabet if e in rows]
    start = index[x0]
    reachable = [0] * len(index)
    reachable[start] = 1 << start
    frontier = [(start, start)]
    while frontier:
        d, x = frontier.pop()
        for step in steps:
            d_next = step[d]
            if not d_next:
                continue
            # Inserting the event moves the believed state alone, relaying it both.
            targets = 1 << x | step[x]
            while targets:
                low = targets & -targets
                targets ^= low
                x_next = low.bit_length() - 1
                new = d_next & ~reachable[x_next]
                if new:
                    reachable[x_next] |= new
                    _push(frontier, new, x_next)
    return _covered(g, index, w, reachable)


def oracle_eic_enforceable(g: Automaton, c: InsertionConstraints) -> bool:
    """Fixpoint answer to constrained enforceability.

    Same shape as the unconstrained oracle, but a step now means: walk the
    believed state over before-insertable symbols, relay the event, then
    walk over after-insertable symbols.  Pairs are tracked at the resting
    points between outputs, from (x0, x0).  An after-walk before the first
    output would change no verdict: a move x -e-> x0 from an accessible x
    relays the reached pair (x, x) onto every (d, x0) with d in the
    after-walk of x0, and an inaccessible state is never covered.
    """
    _guard_size(g)
    c.validate_against(g)
    x0 = _single_initial(g)
    index, _, moves = _read(g, c.before, c.after)
    w = _staying(moves)

    start = index[x0]
    resting = [0] * len(index)
    resting[start] = 1 << start
    frontier = [(start, start)]
    while frontier:
        d, x = frontier.pop()
        for relay, x_next in moves[x]:
            new = relay[d] & ~resting[x_next]
            if new:
                resting[x_next] |= new
                _push(frontier, new, x_next)
    return _covered(g, index, w, resting)


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
