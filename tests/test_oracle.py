from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter

import pytest

from veiler.constrained import InsertionConstraints, check_eic_enforceable
from veiler.fsm import Automaton, EventLabel, Tag, as_label, word
from veiler.insertion import IndicatorState, check_ei_enforceable
from veiler.oracle import (
    ExtendedInsertionSequence,
    is_desirable_bounded,
    is_feasible,
    oracle_eic_enforceable,
    oracle_ei_enforceable,
    random_constraints,
    random_dfa,
    random_nfa,
)


def _reference_random_dfa(
    seed: int,
    n_states: int = 4,
    n_events: int = 3,
    trans_density: float = 0.5,
    secret_density: float = 0.3,
    live: bool = False,
) -> Automaton:
    """``random_dfa`` as it was before its spanning phase kept the free slots
    incrementally: it rebuilds the list of free slots for every state."""
    rng = random.Random(seed)
    states = list(range(n_states))
    symbols = [chr(ord("a") + i) for i in range(n_events)]
    transitions: dict = {}
    for x in states[1:]:
        # pick an unused slot so no earlier spanning edge is overwritten
        free = [
            (src, sym)
            for src in range(x)
            for sym in symbols
            if (src, sym) not in transitions
        ]
        transitions[rng.choice(free)] = x
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


def _random_observation(g: Automaton, rng: random.Random, max_len: int = 4):
    (x,) = g.initial
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        enabled = sorted(g.enabled_events(x))
        if not enabled:
            break
        e = rng.choice(enabled)
        out.append(e)
        (x,) = g.step(x, e)
    return out


def _random_segments(rng: random.Random, symbols, count: int):
    return tuple(
        tuple(rng.choice(symbols) for _ in range(rng.randrange(3)))
        for _ in range(count)
    )


class TestExtendedInsertionSequence:
    def test_segments_interleave_around_the_outputs(self):
        ei = ExtendedInsertionSequence.ei([("c", "a"), ("a", "b")], [(), ()])
        assert ei.modified_observation("ba") == word("c_i a_i b a_i b_i a")

    def test_segment_counts_must_match(self):
        with pytest.raises(ValueError):
            ExtendedInsertionSequence.ei([("a",)], [])

    def test_segment_count_must_equal_observation_length(self):
        ei = ExtendedInsertionSequence.ei([()], [()])
        with pytest.raises(ValueError):
            ei.modified_observation("ba")

    def test_constrained_sequences_tag_their_insertions(self):
        c = InsertionConstraints.of({"a"}, {"b"})
        ei = ExtendedInsertionSequence.eic([("a",)], [("b",)], c)
        modified = ei.modified_observation("c")
        assert modified == word("a_bi c b_ai")
        assert [label.tag for label in modified] == [
            Tag.INSERTED_BEFORE,
            Tag.ACTUAL,
            Tag.INSERTED_AFTER,
        ]

    def test_constrained_sequences_reject_stray_symbols(self):
        c = InsertionConstraints.of({"a"}, ())
        with pytest.raises(ValueError):
            ExtendedInsertionSequence.eic([("b",)], [()], c)


class TestIsFeasible:
    def test_accepts_an_insertion_the_observer_can_replay(self, g1):
        ei = ExtendedInsertionSequence.ei([("c", "a"), ("a", "b")], [(), ()])
        assert is_feasible(g1, "ba", ei)

    def test_rejects_an_insertion_with_a_dead_prefix(self, g1):
        ei = ExtendedInsertionSequence.ei([("c",), ("a",)], [(), ()])
        assert not is_feasible(g1, "ba", ei)

    def test_rejects_an_observation_outside_the_language(self, g1):
        ei = ExtendedInsertionSequence.ei([(), ()], [(), ()])
        with pytest.raises(ValueError):
            is_feasible(g1, "cb", ei)

    def test_inserting_nothing_is_always_feasible(self):
        for seed in range(40):
            g = random_dfa(seed, live=True)
            rng = random.Random(seed)
            s = _random_observation(g, rng)
            empty = ExtendedInsertionSequence.ei(
                [()] * len(s), [()] * len(s)
            )
            assert is_feasible(g, s, empty)

    def test_feasibility_is_prefix_closed(self):
        feasible_cases = 0
        for seed in range(120):
            g = random_dfa(seed, live=True)
            rng = random.Random(seed)
            s = _random_observation(g, rng)
            symbols = sorted(e.symbol for e in g.events)
            ei = ExtendedInsertionSequence.ei(
                _random_segments(rng, symbols, len(s)),
                _random_segments(rng, symbols, len(s)),
            )
            if not is_feasible(g, s, ei):
                continue
            feasible_cases += 1
            for k in range(len(s)):
                shorter = ExtendedInsertionSequence.ei(
                    ei.before[:k], ei.after[:k]
                )
                assert is_feasible(g, s[:k], shorter)
        assert feasible_cases >= 20


class TestIsDesirableBounded:
    def test_an_insertion_that_hides_the_secret_and_survives(self, g1):
        ei = ExtendedInsertionSequence.ei([()], [("a",)])
        assert is_desirable_bounded(g1, "c", ei, 36)

    def test_an_insertion_that_leaves_the_secret_exposed(self, g1):
        empty = ExtendedInsertionSequence.ei([()], [()])
        assert not is_desirable_bounded(g1, "c", empty, 36)

    def test_infeasible_insertions_are_rejected_outright(self, g1):
        ei = ExtendedInsertionSequence.ei([("c",), ("a",)], [(), ()])
        with pytest.raises(ValueError):
            is_desirable_bounded(g1, "ba", ei, 36)

    def test_deep_horizons_catch_late_strandings(self, tracking_trap):
        c = InsertionConstraints.of({"a"}, ())
        ei = ExtendedInsertionSequence.eic([("a",)], [()], c)
        # disguising b as ab survives one more output but not two
        assert is_desirable_bounded(tracking_trap, "b", ei, 1)
        assert not is_desirable_bounded(tracking_trap, "b", ei, 2)

    def test_verdicts_only_harden_as_the_horizon_grows(self, g1, tracking_trap):
        c = InsertionConstraints.of({"a"}, ())
        cases = [
            (g1, "c", ExtendedInsertionSequence.ei([()], [("a",)])),
            (tracking_trap, "b", ExtendedInsertionSequence.eic([("a",)], [()], c)),
        ]
        for g, s, ei in cases:
            verdicts = [
                is_desirable_bounded(g, s, ei, h)
                for h in range(1, 7)
            ]
            assert verdicts == sorted(verdicts, reverse=True)

    def test_a_horizon_costs_one_frame_per_output(self, g1):
        # The check walks the continuations depth by depth in one frame, so
        # a deep horizon costs no stack: this one once took 800 nested
        # frames, a frame per output explored.
        ei = ExtendedInsertionSequence.ei([()], [("a",)])
        assert is_desirable_bounded(g1, "c", ei, 800)

    def test_a_horizon_past_the_recursion_limit_gives_a_verdict(self, g1):
        # Horizon 5000 is past the default recursion limit, so a check that
        # recursed once per output would raise RecursionError here.  The
        # walk finds no new pair long before, so the verdict is that of a
        # horizon that has already seen every pair.
        assert sys.getrecursionlimit() < 5000
        cases = [
            (g1, "c", ExtendedInsertionSequence.ei([()], [("a",)])),
            (random_dfa(0, 4, live=True), "", ExtendedInsertionSequence.ei([], [])),
        ]
        for g, s, ei in cases:
            verdict = is_desirable_bounded(g, s, ei, 5000)
            assert isinstance(verdict, bool)
            assert verdict is is_desirable_bounded(g, s, ei, 64)


class TestOracleVerdicts:
    def test_unconstrained_verdict_on_the_running_example(self, g1):
        assert oracle_ei_enforceable(g1)

    def test_split_constraints_on_the_running_example(self, g1):
        assert oracle_eic_enforceable(g1, InsertionConstraints.of({"b", "c"}, {"a"}))

    def test_before_only_constraints_on_the_running_example(self, g1):
        assert not oracle_eic_enforceable(
            g1, InsertionConstraints.of({"a", "b", "c"}, ())
        )

    def test_no_insertions_cannot_enforce_anything_hidden(self, g1):
        assert not oracle_eic_enforceable(g1, InsertionConstraints.of((), ()))

    def test_unconstrained_verdict_on_the_tracking_trap(self, tracking_trap):
        assert oracle_ei_enforceable(tracking_trap)

    def test_verdicts_are_stable_under_state_renaming(self, g1):
        systems = [g1] + [random_dfa(seed, live=True) for seed in range(8)]
        for g in systems:
            twin = _renamed(g)
            assert oracle_ei_enforceable(g) == oracle_ei_enforceable(twin)
            symbols = sorted(e.symbol for e in g.events)
            c = random_constraints(11, symbols)
            assert oracle_eic_enforceable(g, c) == oracle_eic_enforceable(twin, c)

    def test_oracles_are_gated_to_toy_sizes(self):
        big = random_dfa(0, n_states=7, live=True)
        with pytest.raises(ValueError):
            oracle_ei_enforceable(big)
        with pytest.raises(ValueError):
            oracle_eic_enforceable(big, InsertionConstraints.of({"a"}, ()))


# An inserted-tag label, a_i, as a move of a system under test.
_A_I = EventLabel("a", Tag.INSERTED)


def _renamed(g: Automaton) -> Automaton:
    """g with each state x renamed to the string ``s{x}``."""
    rename = {x: f"s{x}" for x in g.states}
    return Automaton(
        frozenset(rename[x] for x in g.states),
        g.events,
        {(rename[x], e): frozenset(rename[y] for y in ys) for (x, e), ys in g.transitions.items()},
        frozenset(rename[x] for x in g.initial),
        frozenset(rename[x] for x in g.secret),
    )


def _with_inserted_move(g: Automaton, x, y) -> Automaton:
    """g with one more move, x -a_i-> y."""
    transitions = {**g.transitions, (x, _A_I): frozenset({y})}
    return Automaton(g.states, g.events | {_A_I}, transitions, g.initial, g.secret)


def _digest(verdicts) -> str:
    """SHA-256 of the verdicts in order, written as a string of 0s and 1s."""
    return hashlib.sha256("".join("1" if v else "0" for v in verdicts).encode()).hexdigest()


class TestPinnedVerdicts:
    """Verdicts pinned from the oracle as it was before it read g into
    tables, when it called ``g.step`` for every pair, event and walk state
    in every round of its fixpoint.  Any change to what the oracle decides
    shows here, whichever way the construction goes."""

    @staticmethod
    def _systems():
        for seed in range(2000):
            yield seed, random_dfa(seed, 3 + seed % 4, live=seed % 2 == 0)

    def test_unconstrained_verdicts_on_2000_systems(self):
        verdicts = [oracle_ei_enforceable(g) for _, g in self._systems()]
        assert sum(verdicts) == 1726
        assert _digest(verdicts) == (
            "21ed871a5211ae9b73e44b3df4a16ba0f6ab793b35235e30f0afb75dfe230bec"
        )

    def test_constrained_verdicts_on_2000_systems(self):
        verdicts = [
            oracle_eic_enforceable(g, random_constraints(seed, sorted(e.symbol for e in g.events)))
            for seed, g in self._systems()
        ]
        assert sum(verdicts) == 1231
        assert _digest(verdicts) == (
            "5ab5bb86d5b443a23ac4ecf341c4aca091801d4e6380951cdbbe0d70106e97ee"
        )

    @pytest.mark.parametrize(
        "transitions, secret, ei, eic",
        [
            (
                {(0, "a"): 3, (1, "b"): 2, (2, "a"): 2, (2, "b"): 2, (3, "a"): 0,
                 (3, "b"): 1, (1, _A_I): 2},
                [0, 3],
                False,
                "0000000000000000",
            ),
            (
                {(0, "a"): 0, (0, "b"): 3, (1, "a"): 2, (1, "b"): 0, (2, "a"): 2,
                 (3, "a"): 2, (0, _A_I): 1},
                [2],
                False,
                "0011001111111111",
            ),
        ],
    )
    def test_an_inserted_tag_move_is_relayed_under_its_own_label(self, transitions, secret, ei, eic):
        # A move labelled a_i, between two different states, is relayed as
        # a_i: an oracle that skipped it, or relayed it as a, would accept
        # the first system and refuse the second under every constraint.
        g = Automaton.dfa(range(4), ["a", "b", _A_I], transitions, 0, secret)
        subsets = ["", "a", "b", "ab"]
        verdicts = [
            oracle_eic_enforceable(g, InsertionConstraints.of(before, after))
            for before in subsets
            for after in subsets
        ]
        assert oracle_ei_enforceable(g) is ei
        assert "".join("1" if v else "0" for v in verdicts) == eic


def _outcome(decide, *args):
    """What a decider does on args: its verdict, or the message it raises."""
    try:
        return decide(*args)
    except ValueError as error:
        return f"ValueError: {error}"


class TestAgainstTheSetBasedReference:
    """The bitmask deciders against the set-based ones they replaced
    (``reference_oracle`` in conftest): the same verdicts on random live
    and halting systems, and the same errors, raised in the same order."""

    # The constraint pairs of the CI's fixed-alphabet oracle-check steps.
    FIXED = [("", "abc"), ("abc", ""), ("", "")]

    @staticmethod
    def _systems():
        # 150 seeds for each size 1-6, live and halting; every third system
        # has string state names, every third an a_i move.
        for seed in range(1800):
            n = 1 + seed % 6
            g = random_dfa(seed, n, live=seed // 6 % 2 == 0)
            if seed % 3 == 1:
                g = _renamed(g)
            elif seed % 3 == 2:
                g = _with_inserted_move(g, seed % n, seed // 7 % n)
            yield seed, g

    def test_verdicts_equal_the_reference(self, reference_oracle):
        tally = [0, 0]
        for seed, g in self._systems():
            verdict = oracle_ei_enforceable(g)
            assert verdict is reference_oracle.ei(g), seed
            tally[verdict] += 1
            pairs = [random_constraints(seed, "abc"), *(
                InsertionConstraints.of(before, after) for before, after in self.FIXED
            )]
            for c in pairs:
                verdict = oracle_eic_enforceable(g, c)
                assert verdict is reference_oracle.eic(g, c), (seed, c)
                tally[verdict] += 1
        # Both verdicts are common: the comparison is not one-sided.
        assert min(tally) > 1000, tally

    @pytest.mark.parametrize("n_states", [4, 7])
    @pytest.mark.parametrize("nondeterministic", [False, True])
    @pytest.mark.parametrize("stray", [False, True])
    def test_errors_equal_the_reference(self, reference_oracle, n_states, nondeterministic, stray):
        g = (random_nfa if nondeterministic else random_dfa)(3, n_states)
        assert g.deterministic is not nondeterministic
        c = InsertionConstraints.of({"a", "z"} if stray else {"a"}, {"b"})
        ei = _outcome(oracle_ei_enforceable, g)
        eic = _outcome(oracle_eic_enforceable, g, c)
        assert ei == _outcome(reference_oracle.ei, g)
        assert eic == _outcome(reference_oracle.eic, g, c)
        if n_states > 6:
            assert ei == eic == "ValueError: oracle checks are gated to at most 6 states"
        elif stray:
            assert eic == "ValueError: constraint symbols outside the alphabet: z"
        if nondeterministic and n_states <= 6:
            assert ei == "ValueError: string-level checks require a deterministic automaton"
            assert stray or eic == ei


def _guided_segments(g: Automaton, rng: random.Random, s, pools) -> tuple:
    """Before- and after-segments of 0-2 symbols around each output of s,
    from the two pools; nine symbols in ten are ones the masked modified
    observation can take next, where the pool has one."""
    current = set(g.initial)

    def grow(pool) -> tuple:
        nonlocal current
        segment = []
        for _ in range(rng.randrange(3) if pool else 0):
            open_ = [sym for sym in pool if any(g.step(x, EventLabel(sym)) for x in current)]
            sym = rng.choice(open_ if open_ and rng.random() < 0.9 else pool)
            segment.append(sym)
            current = {y for x in current for y in g.step(x, EventLabel(sym))}
        return tuple(segment)

    before, after = [], []
    for event in s:
        before.append(grow(pools[0]))
        current = {y for x in current for y in g.step(x, as_label(event).as_actual())}
        after.append(grow(pools[1]))
    return before, after


def _string_check_draw(seed: int):
    """A seeded (g, s, ei) for the string checks: g has 2-8 states, live or
    halting, now and then an a_i move, one time in ten is nondeterministic;
    ei is EI or EIC, one time in four its segments may insert z, outside
    every alphabet, and one observation in eight leaves the language."""
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    if rng.random() < 0.1:
        g = random_nfa(seed, n)
        s = [rng.choice("abc") for _ in range(rng.randrange(4))]
    else:
        g = random_dfa(seed, n, live=rng.random() < 0.5)
        if rng.random() < 0.2:
            g = _with_inserted_move(g, rng.randrange(n), rng.randrange(n))
        s = _random_observation(g, rng)
    if rng.random() < 0.125:
        s.append(rng.choice("abcz"))
    symbols = "abcz" if rng.random() < 0.25 else "abc"
    if rng.random() < 0.5:
        pools = (symbols, symbols)
        return g, s, ExtendedInsertionSequence.ei(*_guided_segments(g, rng, s, pools))
    c = random_constraints(seed, symbols)
    pools = (sorted(c.before), sorted(c.after))
    return g, s, ExtendedInsertionSequence.eic(*_guided_segments(g, rng, s, pools), c)


class TestStringChecksAgainstTheSetBasedReference:
    """The bitmask string checks against the set-based ones they replaced
    (``reference_oracle`` in conftest): the same results and the same
    errors on 2400 seeded draws, each at horizons 0, 1, 3 and 8."""

    HORIZONS = (0, 1, 3, 8)

    def test_results_and_errors_equal_the_reference(self, reference_oracle):
        tally: Counter = Counter()
        for seed in range(2400):
            g, s, ei = _string_check_draw(seed)
            feasible = _outcome(is_feasible, g, s, ei)
            assert feasible == _outcome(reference_oracle.feasible, g, s, ei), seed
            tally[feasible] += 1
            desirable = [_outcome(is_desirable_bounded, g, s, ei, h) for h in self.HORIZONS]
            expected = [_outcome(reference_oracle.desirable, g, s, ei, h) for h in self.HORIZONS]
            assert desirable == expected, seed
            tally.update(zip(self.HORIZONS, desirable))
            # Clause two decides: the end is not secret, yet the insertion strands.
            tally["stranded"] += desirable[0] is True and desirable[-1] is False
        # Both verdicts of each check are common, at every horizon, clause
        # two decides often, and is_desirable_bounded raises every error,
        # is_feasible's among them: the comparison is not one-sided.
        assert min(tally[True], tally[False], *(
            tally[h, verdict] for h in self.HORIZONS for verdict in (True, False)
        )) > 300, tally
        assert tally["stranded"] > 30, tally
        for message in (
            "the observation itself is not in the language",
            "unknown event label 'z'",
            "the insertion is not feasible for this observation",
            "string-level checks require a deterministic automaton",
        ):
            assert tally[8, f"ValueError: {message}"] > 50, tally


class TestRandomGenerators:
    def test_random_dfas_are_deterministic_and_accessible(self):
        for seed in range(30):
            g = random_dfa(seed)
            assert g.deterministic
            assert g.accessible_part().states == g.states

    def test_live_dfas_never_halt(self):
        for seed in range(30):
            g = random_dfa(seed, live=True)
            assert all(g.enabled_events(x) for x in g.states)

    def test_random_nfas_are_accessible(self):
        for seed in range(30):
            g = random_nfa(seed)
            assert g.accessible_part().states == g.states

    def test_random_dfa_draws_what_the_quadratic_reference_draws(self):
        # The secret set is drawn last, so equal automata mean equal draws
        # throughout.
        rng = random.Random(0)
        for trial in range(80):
            args = (
                rng.randrange(1000),
                rng.choice([1, 2, 3, 5, 17, 64, 120, 300]) if trial % 4 else rng.randrange(1, 300),
                rng.randrange(1, 5),
                rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]),
                rng.random(),
                rng.random() < 0.5,
            )
            assert random_dfa(*args) == _reference_random_dfa(*args), args

    def test_generators_are_reproducible(self):
        assert random_dfa(7) == random_dfa(7)
        assert random_nfa(7) == random_nfa(7)
        assert random_constraints(7, "abc") == random_constraints(7, "abc")


class TestDocumentedDivergence:
    """Minimal instances that once split the verifier construction from the search.

    Both now demand that the pair a relay lands on passes the same test
    again, forever: a greatest fixpoint.  In the constrained tracking trap
    and in the starving relays an insertion choice survives every one-step
    check yet strands a few outputs later, so a one-step check approves
    them; both sides must refuse.  The only divergence left is the halting
    class, where the construction refuses and the search accepts.  Each
    verdict is pinned so any change to either side is surfaced by this
    suite rather than by silent drift.
    """

    def test_constrained_divergence_on_the_tracking_trap(self, tracking_trap):
        c = InsertionConstraints.of({"a"}, ())
        assert not check_eic_enforceable(tracking_trap, c).enforceable
        assert not oracle_eic_enforceable(tracking_trap, c)

    def test_the_tracking_trap_agrees_without_constraints(self, tracking_trap):
        assert check_ei_enforceable(tracking_trap).enforceable
        assert oracle_ei_enforceable(tracking_trap)

    def test_unconstrained_divergence_when_relays_starve(self):
        # After observing b the only non-secret disguise is state 2, and
        # every insertion-plus-relay of a second b from there reaches state
        # 3, whose own b can never be relayed again.  Each single relay
        # succeeds, so only a check that follows the relays on, as both
        # sides do, rejects the pair.
        g = Automaton.dfa(
            states=range(4),
            events=["a", "b", "c"],
            transitions={
                (0, "b"): 1,
                (0, "c"): 1,
                (1, "a"): 3,
                (1, "b"): 1,
                (1, "c"): 2,
                (2, "a"): 2,
                (2, "b"): 3,
                (2, "c"): 3,
                (3, "c"): 3,
            },
            initial=0,
            secret=[1, 3],
        )
        assert not check_ei_enforceable(g).enforceable
        assert not oracle_ei_enforceable(g)

    def test_a_halted_run_reveals_nothing_further(self):
        # A state with no moves has no output left to relay, so all its
        # pairs stay.  Pruning still traps them and empties the paper's
        # verifier, but the verdict is read off the relay game, and both
        # sides accept.
        g = Automaton.dfa([0, 1], ["a"], {(0, "a"): 1}, 0)
        report = check_ei_enforceable(g)
        assert report.enforceable
        assert report.verifier.states == frozenset()
        assert report.staying_nonblocking == {IndicatorState(0, 0), IndicatorState(1, 1)}
        assert oracle_ei_enforceable(g)
        c = InsertionConstraints.of({"a"}, ())
        constrained = check_eic_enforceable(g, c)
        assert constrained.enforceable
        assert constrained.verifier.states == frozenset()
        assert constrained.staying_nonblocking == {
            IndicatorState(0, 0): 1,
            IndicatorState(1, 1): 1,
        }
        assert oracle_eic_enforceable(g, c)


class TestQuantifierWitnesses:
    """The smallest systems that split the per-state verdict from the
    stronger readings in ROADMAP item 3 (which quantifier the verdict
    states), pinned with today's per-state verdicts.  A change of reading
    must change these tests on purpose, not pass them by accident."""

    def test_ei_per_state_but_not_per_string(self):
        # Per-state enforceable, yet no insertion survives the output ab.
        g = random_dfa(174, 5, live=True)
        assert g.secret == frozenset({2, 4})
        assert check_ei_enforceable(g).enforceable
        assert oracle_ei_enforceable(g)

    def test_eic_per_string_but_not_causal(self):
        # Every output string has an insertion, but no insertion function
        # that picks from the outputs so far covers them all.
        g = random_dfa(1432, 3)
        c = InsertionConstraints.of("ac", "ab")
        assert check_eic_enforceable(g, c).enforceable
        assert oracle_eic_enforceable(g, c)
