"""Event-insertion analysis under insertion constraints.

Some events may only be insertable before a real output, others only after
it.  The actual component of each tracked pair carries a decoration saying
where in the insertion pattern the run currently sits: plain between
outputs, ``a`` while inserting after the previous output, ``b`` while
inserting before the next one, ``ab`` once both have happened in that order.
The decoration forbids inserting before-events once the after-phase of the
next output has begun, which is exactly the constraint semantics.
"""
from __future__ import annotations

from enum import IntEnum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .fsm import Automaton, FrozenValue, State, Tag, state_display
from .insertion import (
    EnforcementReport,
    _greatest_fixpoint,
    _images,
    _PairKernel,
    _prune,
    _Relations,
    _tables,
    _trim,
    _walk,
    admissible_states,
)


class InsertionConstraints(NamedTuple):
    """Which symbols may be inserted before and after a real output."""

    before: frozenset
    after: frozenset

    @classmethod
    def of(cls, before: Iterable[str], after: Iterable[str]) -> InsertionConstraints:
        return cls(frozenset(before), frozenset(after))

    def validate_against(self, g: Automaton) -> None:
        """Refuse, by name, every symbol that names no actual event of g; a
        label given in place of a symbol is refused too."""
        alphabet = {e.symbol for e in g.events if not e.inserted}
        stray = (self.before | self.after) - alphabet
        if stray:
            raise ValueError(
                "constraint symbols outside the alphabet: " + ", ".join(sorted(map(str, stray)))
            )


class Decoration(IntEnum):
    PLAIN = 0
    A = 1
    B = 2
    AB = 3


# The suffix of each decoration's state names, indexed by ``Decoration``.
_DECORATION_SUFFIX = ("", "_a", "_b", "_ab")


class DecoratedState(FrozenValue):
    """A system state carrying an insertion-phase decoration.

    Plain states are represented by the bare state itself, so an automaton
    built with no insertion capability collapses back to the original.
    """

    __slots__ = _fields = ("base", "decoration")
    base: State
    decoration: Decoration

    def phase_parts(self) -> tuple[str, str]:
        """Its base's name and its decoration's suffix, which a pair's name
        keeps apart."""
        return state_display(self.base), _DECORATION_SUFFIX[self.decoration]

    def display(self) -> str:
        return "".join(self.phase_parts())


def decoration_of(x: State) -> Decoration:
    return x.decoration if isinstance(x, DecoratedState) else Decoration.PLAIN


def base_of(x: State) -> State:
    return x.base if isinstance(x, DecoratedState) else x


def _decorate(base: State, decoration: Decoration) -> State:
    if decoration is Decoration.PLAIN:
        return base
    return DecoratedState(base, decoration)


# Dashed moves allowed per decoration: where a before- or after-insertion leads.
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


def _constraints_of(geic: Automaton) -> InsertionConstraints:
    return InsertionConstraints(
        frozenset(e.symbol for e in geic.events if e.tag is Tag.INSERTED_BEFORE),
        frozenset(e.symbol for e in geic.events if e.tag is Tag.INSERTED_AFTER),
    )


class _EicKernel(_PairKernel):
    """The constrained indicator of a deterministic system on integer ids.

    The phases are the four decorations, so the decorated state (x, dec) is
    the id ``dec*n + x``, and the insertion kinds are before (label ids
    ``before``) and after (``after``), shifting the decoration as
    ``_BEFORE_MOVE`` and ``_AFTER_MOVE`` say, which only ``kinds`` reads;
    only ``__init__`` reads g for the x0 rule, ``entered``.  Pair objects,
    whose actual component is a decorated state (``actual``), are made only
    by ``objects``.  It does not check the constraints against g; its
    callers do, each in the order its errors are named.
    """

    _PHASES = _DECORATION_SUFFIX
    _TAGS = (Tag.ACTUAL, Tag.INSERTED_BEFORE, Tag.INSERTED_AFTER)

    def __init__(self, g: Automaton, c: InsertionConstraints) -> None:
        super().__init__(g)
        self.before = [e for e, label in enumerate(self.labels) if label.symbol in c.before]
        self.after = [e for e, label in enumerate(self.labels) if label.symbol in c.after]
        # x0 has no after-phase unless some move of g leads back to it.
        x0 = self.states[self.x0]
        self.entered = any(x0 in targets for row in g.moves.values() for targets in row.values())

    @cached_property
    def kinds(self) -> list[tuple[Sequence[int], list[int]]]:
        n = self.n
        absent = () if self.entered else (Decoration.A * n + self.x0, Decoration.AB * n + self.x0)
        kinds = []
        for symbols, table in ((self.before, _BEFORE_MOVE), (self.after, _AFTER_MOVE)):
            shift = [-1] * (4 * n)
            for decoration, target in table.items():
                for x in range(n):
                    if target * n + x not in absent:
                        shift[decoration * n + x] = target * n + x
            kinds.append((symbols, shift))
        return kinds

    def actual(self, a: int) -> State:
        return _decorate(self.states[a % self.n], Decoration(a // self.n))

    @cached_property
    def relations(self) -> _Relations:
        """The pairs' moves as relations on dummies, over the two classes of
        phases whose pairs move alike: resting (plain or ``a``), actual state
        x, and inserting (``b`` or ``ab``), ``n + x``.  Relation e < k is the
        solid move on e, to a resting pair; relations k and k + 1, the
        before- and after-walks, take d to the reach of every delta(d, s) in
        the subgraph of g on the kind's alphabet: to an inserting pair, and to
        a resting one except at an x0 that no move enters, where plain has no
        after-move.  So a pair has an infinite path iff its class pair has.
        """
        n, k = self.n, self.k
        columns = list(zip(*self.delta))
        succ = [[1 << y if y >= 0 else 0 for y in column] for column in columns]
        for symbols in (self.before, self.after):
            walk = self._reach(symbols)[2]
            row = [0] * n
            for e in symbols:
                row = [mask | walk[y] if y >= 0 else mask for mask, y in zip(row, columns[e])]
            succ.append(row)
        before, after = any(succ[k]), any(succ[k + 1])
        resting = [
            moves + [(k, n + x)] * before + [(k + 1, x)] * (after and (x != self.x0 or self.entered))
            for x, moves in enumerate(self.solid)
        ]
        return succ, resting + [moves + [(k, n + x)] * before for x, moves in enumerate(self.solid)]

    def reachable_masks(self, resting: list[int]) -> list[int]:
        """The reachable pairs, one bitmask of dummies per decorated state,
        read in one pass off ``resting``, the forward's plain and after-phase
        pairs U[x] per system state.

        With BReach+ and AReach+ the kind relations k and k + 1 of
        ``relations``, P[y] holds x0 at x0 and delta_e(BReach*(U[x])) for
        every move x -e-> y, as a relay leaves any phase of x; A is
        AReach+(P), empty at x0 when no move enters x0; B is BReach+(P); AB
        is BReach+(A).  Each relation is applied through its image tables,
        once per distinct mask, and one with no nonzero row, as an empty
        before- or after-alphabet gives, at no lookup.
        """
        images = [_tables(row) for row in self.relations[0]]
        n, k = self.n, self.k
        before, after = images[k], images[k + 1]
        plain = [0] * n
        plain[self.x0] = 1 << self.x0
        walked = [mask | image for mask, image in zip(resting, _images(before, resting))]
        for table, column in zip(images[:k], zip(*self.delta)):
            moved = [mask if y >= 0 else 0 for mask, y in zip(walked, column)]
            for y, image in zip(column, _images(table, moved)):
                if image:
                    plain[y] |= image
        after_phase = _images(after, plain)
        if not self.entered:
            after_phase[self.x0] = 0
        return plain + after_phase + _images(before, plain + after_phase)

    def verifier_masks(self, reachable: list[int]) -> list[int]:
        """What ``_trim`` keeps of ``reachable``, single pairs, over the two
        classes of phases of ``relations``: a phase keeps what its class
        keeps."""
        n = self.n
        merged = [p | q for p, q in zip(reachable, reachable[n:])]  # plain | a, .., b | ab
        kept = _trim(self.relations, merged[:n] + merged[2 * n :])
        return [mask & keep for mask, keep in zip(reachable, kept[:n] * 2 + kept[n:] * 2)]


def build_eic_insertion_automaton(g: Automaton, c: InsertionConstraints) -> Automaton:
    """The system enriched with decorated copies tracking the insertion phase.

    Every decoration relays a real event back to the plain target state.
    After-insertions are possible at the initial state only when something
    can actually lead there, since before the first output nothing has been
    produced to insert after; the two decorations that would claim otherwise
    are then unreachable.  It is the accessible part of the kernel's drawing
    of its two insertion kinds, whose ``kinds`` and ``entered`` state these
    rules.  A nondeterministic system is refused before stray constraint
    symbols are.
    """
    kernel = _EicKernel(g, c)
    c.validate_against(g)
    return kernel.insertion_automaton().accessible_part()


def build_eic_indicator(g: Automaton, geic: Automaton) -> Automaton:
    """Product of the system with its constrained insertion automaton.

    Dashed edges require both sides to move: the decoration must allow the
    insertion and the dummy must have a real transition on the inserted
    symbol, because the observer re-runs every event it sees.  Only the
    accessible part is materialized, by a search from the initial pair; it
    holds the pairs that ``check_eic_enforceable`` reaches on bitmasks.
    """
    c = _constraints_of(geic)
    kernel = _EicKernel(g, c)
    c.validate_against(g)
    if geic != kernel.insertion_automaton().accessible_part():
        raise ValueError(
            "second argument must be a constrained insertion automaton of the first"
        )
    return kernel.automaton(kernel.search())


def find_eic_trapping_states(eia: Automaton) -> frozenset:
    """States with no outgoing move of any kind: nothing can be relayed or inserted."""
    return eia.states.difference(*eia.moves.values())


def build_eic_verifier(eia: Automaton) -> Automaton:
    """Iteratively prune dead-end states, then keep the accessible part.

    Deleting a state deletes its incoming edges, which can leave a
    predecessor with no moves; the loop runs until nothing more dies.
    """
    return _prune(eia, find_eic_trapping_states)


def find_staying_eic_nonblocking(ev: Automaton, g: Automaton) -> Mapping:
    """Largest set of resting pairs from which every next real output stays
    relayable, with their type.

    Type 1 pairs have a plain actual component; type 2 pairs sit in the
    after-phase of the previous output.  Either way the test is the same:
    for every event enabled at the actual base state, some before-walk from
    the pair (possibly empty) reaches a pair with that solid move, and some
    after-walk from where it lands (possibly empty) reaches a pair that
    stays too.  This is a greatest fixpoint: from a staying pair the
    inserter can relay every output forever, not just the next one.  The
    system g supplies the enabled-event sets, which pruning may have made
    unreadable from the verifier alone.
    """
    # After-walks per solid landing, a plain pair that many relays share.
    settles: dict[State, set] = {}
    landings = {}
    for pair in ev.states:
        if decoration_of(pair.actual) not in (Decoration.PLAIN, Decoration.A):
            continue
        before = _walk(ev, pair, Tag.INSERTED_BEFORE)
        landings[pair] = found = []
        for e in g.enabled_events(base_of(pair.actual)):
            targets: set = set()
            for relayed in (t for q in before for t in ev.step(q, e)):
                if relayed not in settles:
                    settles[relayed] = _walk(ev, relayed, Tag.INSERTED_AFTER)
                targets |= settles[relayed]
            found.append(targets)
    return {
        pair: 1 if decoration_of(pair.actual) is Decoration.PLAIN else 2
        for pair in _greatest_fixpoint(landings)
    }


eic_admissible_states = admissible_states  # EIC's admissible pairs are chosen as EI's


def check_eic_enforceable(g: Automaton, c: InsertionConstraints) -> EnforcementReport:
    """Full pipeline: enforceable iff every actual state's subspace has an
    admissible pair.

    The decision runs on bitmasks, as EI's does: the forward closure of the
    relays, through the SCCs of the before-subgraph, reaches the resting
    pairs, plain (type 1) or in the after-phase (type 2), and the relay
    game keeps the staying ones; both relay the next output after a
    before-walk.  The four phases' pairs are derived from the resting ones
    when ``reachable`` is first read, and pruning only names the paper's
    verifier, built when ``verifier_masks`` is first read: what ``_trim``
    keeps of the reachable pairs, single pairs as EI prunes its dashed
    components.  Both read the kernel's ``relations``; the trim prunes its
    two classes of phases, and a phase keeps what its class keeps.
    """
    # On every command's path, stray constraint symbols are named before a
    # nondeterministic system; the staged builders name them after it.
    c.validate_against(g)
    return _EicKernel(g, c).decide()
