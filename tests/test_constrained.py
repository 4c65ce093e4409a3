from __future__ import annotations

import random
import subprocess
import sys
from collections import Counter
from itertools import chain, combinations, product
from pathlib import Path
from typing import Mapping, Optional

import pytest

from veiler.cli import cli_main
from veiler.constrained import (
    Decoration,
    InsertionConstraints,
    base_of,
    build_eic_indicator,
    build_eic_insertion_automaton,
    build_eic_verifier,
    check_eic_enforceable,
    decoration_of,
    eic_admissible_states,
    find_eic_trapping_states,
    find_staying_eic_nonblocking,
)
from veiler.dot import emit_dot
from veiler.fsm import Automaton, EventLabel, Tag, state_display, word
from veiler.insertion import _count, build_indicator, build_insertion_automaton, check_ei_enforceable
from veiler.oracle import oracle_ei_enforceable, oracle_eic_enforceable, random_constraints, random_dfa
from veiler.report import eic_report, to_json
from veiler.textio import emit_automaton, parse_document

DATA = Path(__file__).parent / "data"

BC_A = InsertionConstraints.of({"b", "c"}, {"a"})

EIC_INDICATOR = [
    "(0,0)", "(1,1)", "(1,1_a)", "(2,0_b)", "(2,1_b)", "(2,2)",
    "(2,2_ab)", "(2,4_b)", "(3,0_b)", "(3,1_b)", "(3,3)", "(3,3_ab)",
    "(3,5_b)", "(4,1)", "(4,2_a)", "(4,4)", "(5,1)", "(5,3_a)", "(5,5)",
]
X_EVNB = {
    "(0,0)": 1, "(1,1)": 1, "(1,1_a)": 2, "(2,2)": 1, "(3,3)": 1,
    "(4,1)": 1, "(4,2_a)": 2, "(4,4)": 1, "(5,1)": 1, "(5,3_a)": 2,
    "(5,5)": 1,
}
X_EVA = [
    "(0,0)", "(1,1)", "(1,1_a)", "(4,1)", "(4,2_a)", "(4,4)",
    "(5,1)", "(5,3_a)", "(5,5)",
]


def displays(states):
    return sorted(state_display(x) for x in states)


class TestInsertionConstraints:
    def test_of_coerces_to_frozensets(self):
        c = InsertionConstraints.of(["b", "c"], ["a"])
        assert c.before == frozenset({"b", "c"})
        assert c.after == frozenset({"a"})

    def test_validate_rejects_foreign_symbols(self, g1):
        with pytest.raises(ValueError):
            InsertionConstraints.of({"z"}, ()).validate_against(g1)

    def test_a_label_in_place_of_a_symbol_is_refused_by_name(self, g1):
        c = InsertionConstraints.of([EventLabel("a")], ["z"])
        with pytest.raises(ValueError) as caught:
            c.validate_against(g1)
        assert str(caught.value) == (
            "constraint symbols outside the alphabet: "
            "EventLabel(symbol='a', tag=<Tag.ACTUAL: 0>), z"
        )
        with pytest.raises(ValueError):
            check_eic_enforceable(random_dfa(1, 4), InsertionConstraints.of([EventLabel("a")], []))

    def test_empty_sets_are_valid(self, g1):
        InsertionConstraints.of((), ()).validate_against(g1)


class TestEicInsertionAutomaton:
    def test_g1_has_twentytwo_states(self, g1):
        geic = build_eic_insertion_automaton(g1, BC_A)
        assert len(geic.states) == 22

    def test_initial_after_decorations_dropped_without_incoming_events(self, g1):
        # nothing enters state 0, so inserting-after cannot apply there
        geic = build_eic_insertion_automaton(g1, BC_A)
        present = {state_display(x) for x in geic.states}
        assert "0_b" in present
        assert "0_a" not in present and "0_ab" not in present

    def test_initial_after_decorations_kept_with_incoming_events(self, g1):
        looped = Automaton.dfa(
            g1.states,
            ["a", "b", "c"],
            {**{k: next(iter(v)) for k, v in g1.transitions.items()},
             (1, "b"): 0},
            0,
            g1.secret,
        )
        geic = build_eic_insertion_automaton(looped, BC_A)
        present = {state_display(x) for x in geic.states}
        assert {"0_a", "0_ab"} <= present
        assert len(geic.states) == 24

    def test_decoration_moves(self, g1):
        geic = build_eic_insertion_automaton(g1, BC_A)
        (a_ai,) = word("a_ai")
        (b_bi,) = word("b_bi")
        (one_a,) = geic.step(1, a_ai)
        assert state_display(one_a) == "1_a"
        (one_ab,) = geic.step(one_a, b_bi)
        assert state_display(one_ab) == "1_ab"
        # before-insertions never reopen the after-phase
        assert geic.step(one_ab, b_bi) == frozenset({one_ab})
        assert geic.step(one_ab, a_ai) == frozenset()

    def test_solid_moves_land_on_plain_states(self, g1):
        geic = build_eic_insertion_automaton(g1, BC_A)
        (a_ai,) = word("a_ai")
        (one_a,) = geic.step(1, a_ai)
        assert geic.step(one_a, word("a")[0]) == frozenset({1})

    def test_unconstrained_symbols_are_not_events(self, g1):
        geic = build_eic_insertion_automaton(g1, BC_A)
        (a_bi,) = word("a_bi")
        assert a_bi not in geic.events
        with pytest.raises(ValueError):
            geic.run(1, [a_bi])

    def test_empty_constraints_change_nothing(self, g1):
        empty = InsertionConstraints.of((), ())
        assert build_eic_insertion_automaton(g1, empty) == g1

    def test_decoration_helpers(self, g1):
        geic = build_eic_insertion_automaton(g1, BC_A)
        (one_a,) = geic.step(1, word("a_ai")[0])
        assert base_of(one_a) == 1
        assert decoration_of(one_a) is Decoration.A
        assert base_of(1) == 1
        assert decoration_of(1) is Decoration.PLAIN


def _outcome(build, *args):
    """What a builder does on args: its automaton, or the message it raises."""
    try:
        return build(*args)
    except ValueError as error:
        return f"ValueError: {error}"


def _with_unreachable(g: Automaton, into_x0: bool) -> Automaton:
    """g with a component x0 cannot reach, u -a-> v, and with ``into_x0``
    a move v -b-> x0 back into g's initial state."""
    (x0,) = g.initial
    moves = {(x, e.symbol): y for (x, e), (y,) in g.transitions.items()}
    moves[("u", "a")] = "v"
    if into_x0:
        moves[("v", "b")] = x0
    symbols = {e.symbol for e in g.events} | {"a", "b"}
    return Automaton.dfa(g.states | {"u", "v"}, sorted(symbols), moves, x0, g.secret | {"v"})


def _drawing_population():
    """(name, system) pairs for the drawn insertion automata: the data
    files, one of them nondeterministic, live and halting random systems,
    unreachable components with and without a move into x0, and insertion
    automata of random systems."""
    for path in sorted(DATA.glob("*.aut")):
        yield path.name, parse_document(path.read_text()).automaton
    for seed in range(48):
        live = seed % 2 == 0
        g = random_dfa(seed, 1 + seed % 8, n_events=2 + seed // 2 % 2, live=live)
        yield f"{'live' if live else 'halting'} {seed}", g
        if seed % 3 == 0:
            for into_x0 in (False, True):
                yield f"unreachable {seed} {into_x0}", _with_unreachable(g, into_x0)
        if seed % 4 == 1:
            yield f"insertion automaton {seed}", build_insertion_automaton(g)


class TestDrawnInsertionAutomata:
    """The insertion automata drawn from the kernel's move table against the
    builders they replaced (``reference_builders`` in conftest): the same
    automata and the same errors, EIC under all 64 pairs of subsets of abc."""

    SUBSETS = [frozenset(s) for s in chain.from_iterable(combinations("abc", r) for r in range(4))]

    def test_the_drawings_equal_the_reference_builders(self, reference_builders):
        tally: Counter = Counter()
        for name, g in _drawing_population():
            drawn = _outcome(build_insertion_automaton, g)
            assert drawn == _outcome(reference_builders.ei, g), name
            if isinstance(drawn, Automaton):
                assert build_indicator(g, drawn).states, name
            (x0,) = g.initial
            entered = any(x0 in targets for targets in g.transitions.values())
            tally["x0 entered only from an unreachable state"] += entered and not any(
                x0 in targets for targets in g.accessible_part().transitions.values()
            )
            for before, after in product(self.SUBSETS, repeat=2):
                c = InsertionConstraints(before, after)
                drawn = _outcome(build_eic_insertion_automaton, g, c)
                assert drawn == _outcome(reference_builders.eic, g, c), (name, c)
                if isinstance(drawn, Automaton):
                    tally["automaton", entered] += 1
                    if before == after:
                        assert build_eic_indicator(g, drawn).states, (name, c)
                else:
                    tally[drawn] += 1
        # x0 is entered or not, an unreachable move is the only way in, and
        # both errors occur: the comparison is not one-sided
        assert min(tally["automaton", False], tally["automaton", True]) > 500, tally
        assert tally["x0 entered only from an unreachable state"] >= 4, tally
        assert tally["ValueError: insertion analysis requires a deterministic automaton"] == 64, tally
        assert tally["ValueError: constraint symbols outside the alphabet: c"] > 500, tally

    def test_nondeterminism_is_named_before_stray_symbols(self, reference_builders):
        # The staged builders refuse a nondeterministic system before stray
        # constraint symbols; the decision, on every command's path, names
        # the symbols first.
        g = parse_document((DATA / "partial.aut").read_text()).automaton
        assert not g.deterministic
        c = InsertionConstraints.of({"a", "z"}, {"y"})
        message = "ValueError: insertion analysis requires a deterministic automaton"
        assert _outcome(build_eic_insertion_automaton, g, c) == message
        assert _outcome(reference_builders.eic, g, c) == message
        assert _outcome(build_insertion_automaton, g) == _outcome(reference_builders.ei, g) == message
        geic = reference_builders.eic(random_dfa(0, 3), InsertionConstraints.of({"a"}, ()))
        assert _outcome(build_eic_indicator, g, geic) == message
        assert _outcome(check_eic_enforceable, g, c) == (
            "ValueError: constraint symbols outside the alphabet: y, z"
        )

    def test_a_system_with_inserted_tag_moves(self):
        # The kernel reads only g's actual labels.  So the drawings omit g's
        # own a_i move, EI's self-loop taking its key, and both indicators
        # list a_i among their events; the verdicts are g's without the move,
        # as it does not enter x0.  An a_i move into x0 would still count for
        # EIC's x0 rule (``entered``), and could change the EIC verdict.
        a_i = EventLabel("a", Tag.INSERTED)
        moves = {(0, "a"): 1, (1, "a"): 0}
        g = Automaton.dfa([0, 1], ["a", a_i], {**moves, (0, a_i): 1}, 0, secret=[1])
        plain = Automaton.dfa([0, 1], ["a", a_i], moves, 0, secret=[1])
        c = InsertionConstraints.of("a", "a")
        ia = build_insertion_automaton(g)
        assert ia.step(0, a_i) == frozenset({0})
        eia = build_eic_insertion_automaton(g, c)
        assert not eia.step(0, a_i) and a_i in eia.events
        assert a_i in build_indicator(g, ia).events
        assert a_i in build_eic_indicator(g, eia).events

        def verdict(report):
            masks = (report.reachable, report.staying_masks, report.admissible_masks)
            return report.enforceable, report.uncovered_actual_states, masks, report.verifier_masks

        assert verdict(check_ei_enforceable(g)) == verdict(check_ei_enforceable(plain))
        assert verdict(check_eic_enforceable(g, c)) == verdict(check_eic_enforceable(plain, c))


class TestEicIndicator:
    def test_g1_matches_the_frozen_nineteen(self, g1):
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        assert displays(eia.states) == EIC_INDICATOR

    def test_dashed_edges_need_both_moves(self, g1):
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        pairs = {state_display(x): x for x in eia.states}
        # dummy 1 has no b, so (1,1) has no before-insertion of b
        assert eia.step(pairs["(1,1)"], word("b_bi")[0]) == frozenset()
        # dummy 1 has a and the plain component may open the after-phase
        (target,) = eia.step(pairs["(1,1)"], word("a_ai")[0])
        assert state_display(target) == "(1,1_a)"

    def test_rejects_foreign_eic_automaton(self, g1):
        other_system = Automaton.dfa([0, 1], ["a", "b", "c"], {(0, "a"): 1}, 0)
        other = build_eic_insertion_automaton(other_system, BC_A)
        with pytest.raises(ValueError):
            build_eic_indicator(g1, other)

    def test_edges_respect_the_segment_grammar(self, g1):
        """Decorations encode the allowed insertion order between outputs.

        After-insertions extend only fresh or after-phase states and
        before-insertions close the after-phase for good, so any path spells
        after-segment, then before-segment, then the relayed output.
        """
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        for (source, label), targets in eia.transitions.items():
            (target,) = targets
            source_dec = decoration_of(source.actual)
            target_dec = decoration_of(target.actual)
            if label.tag is Tag.INSERTED_AFTER:
                assert source_dec in (Decoration.PLAIN, Decoration.A)
                assert target_dec is Decoration.A
            elif label.tag is Tag.INSERTED_BEFORE:
                expected = (
                    Decoration.AB
                    if source_dec in (Decoration.A, Decoration.AB)
                    else Decoration.B
                )
                assert target_dec is expected
            else:
                assert target_dec is Decoration.PLAIN
            if label.inserted:
                assert base_of(target.actual) == base_of(source.actual)

    def test_dummy_component_tracks_the_masked_run(self, g1):
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        (start,) = eia.initial
        x0 = next(iter(g1.initial))
        seen = {(start, x0, x0)}
        frontier = list(seen)
        while frontier:
            pair, mask_state, actual_state = frontier.pop()
            assert pair.dummy == mask_state
            assert base_of(pair.actual) == actual_state
            for label, targets in eia.outgoing(pair).items():
                (nxt,) = targets
                (mask_next,) = g1.step(mask_state, label.as_actual())
                if label.inserted:
                    config = (nxt, mask_next, actual_state)
                else:
                    (actual_next,) = g1.step(actual_state, label)
                    config = (nxt, mask_next, actual_next)
                if config not in seen:
                    seen.add(config)
                    frontier.append(config)


class TestEicTrapping:
    def test_g1_traps_exactly_the_two_stranded_pairs(self, g1):
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        assert displays(find_eic_trapping_states(eia)) == ["(2,4_b)", "(3,5_b)"]


class TestEicVerifier:
    def test_g1_verifier_keeps_seventeen_states(self, g1):
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        ev = build_eic_verifier(eia)
        assert len(ev.states) == 17
        assert displays(eia.states - ev.states) == ["(2,4_b)", "(3,5_b)"]

    def test_verifier_is_a_fixpoint(self, g1):
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        ev = build_eic_verifier(eia)
        assert build_eic_verifier(ev) == ev

    def test_dead_branch_cascades_to_empty_verifier(self):
        g = Automaton.dfa([0, 1], ["a", "b"], {(0, "a"): 1}, 0)
        eia = build_eic_indicator(
            g, build_eic_insertion_automaton(g, InsertionConstraints.of({"a"}, ()))
        )
        # round one removes the two stuck pairs, which strands the start
        assert displays(find_eic_trapping_states(eia)) == ["(1,0_b)", "(1,1)"]
        assert build_eic_verifier(eia).states == frozenset()


def _prune(targets: Mapping[int, list[int]], start: int) -> set[int]:
    """The groups of ``targets`` that survive pruning and stay accessible
    from ``start``: the naive reference for the verifier on bitmasks.

    ``targets`` lists, per group, the group each of its moves leads to,
    which is a key of ``targets`` too.  A group falls when none of its moves
    leads into a group still alive.  Each group counts its moves, each lists
    the moves into it, and a falling group decrements the counts of the
    groups those moves come from.  This reaches the same fixpoint as the
    round-by-round removal of ``build_eic_verifier``, whose groups are
    single pairs.  The survivors' target lists then give the accessible
    part.
    """
    escapes = {key: len(out) for key, out in targets.items()}
    sources: dict[int, list[int]] = {key: [] for key in targets}
    for key, out in targets.items():
        for t in out:
            sources[t].append(key)
    falling = [key for key, count in escapes.items() if not count]
    dead = set(falling)
    while falling:
        for source in sources[falling.pop()]:
            escapes[source] -= 1
            if not escapes[source]:
                dead.add(source)
                falling.append(source)
    if start in dead:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        for t in targets[stack.pop()]:
            if t not in dead and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


class TestDecisionMasks:
    def test_the_masks_hold_the_search_and_its_pruning(self, naive_indicator):
        # verify-eic reads the reachable pairs and the verifier off
        # per-state dummy bitmasks; the pair search, the counter loop over
        # single pairs and the product built pair by pair are the reference.
        subsets = [frozenset(s for i, s in enumerate("abc") if mask >> i & 1) for mask in range(8)]
        outcomes = Counter()
        for seed in range(300):
            g = random_dfa(
                seed,
                n_states=2 + seed % 13,
                trans_density=(0.2, 0.5, 0.8)[seed % 3],
                live=seed % 2 == 0,
            )
            # every before/after pair of subsets of {a, b, c}
            c = InsertionConstraints(subsets[seed % 8], subsets[seed // 8 % 8])
            report = check_eic_enforceable(g, c)
            kernel = report.kernel
            targets = kernel.search()
            assert kernel.ids(report.reachable) == sorted(targets), seed
            kept = _prune(targets, kernel.start)
            assert kernel.ids(report.verifier_masks) == sorted(kept), seed
            pairs = kernel.objects(targets).values()
            geic = build_eic_insertion_automaton(g, c)
            assert frozenset(pairs) == naive_indicator(g, geic).states, seed
            entered = any(g.initial <= moved for moved in g.transitions.values())
            outcomes["entered" if entered else "not entered"] += 1
            outcomes["pruned"] += len(kept) < len(targets)
            outcomes["emptied"] += not kept
        # the sample enters x0 and leaves it, and prunes down to nothing
        assert outcomes["entered"] > 50 and outcomes["not entered"] > 50
        assert outcomes["pruned"] > 50 and outcomes["emptied"] > 5


class TestStayingEicNonblocking:
    def test_g1_matches_the_frozen_eleven_with_types(self, g1):
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        ev = build_eic_verifier(eia)
        nb = find_staying_eic_nonblocking(ev, g1)
        assert {state_display(pair): kind for pair, kind in nb.items()} == X_EVNB

    def test_matches_a_naive_greatest_fixpoint(self):
        # Re-test every resting pair until nothing falls: a pair stays while
        # each enabled event has a before-walk, solid move and after-walk
        # onto a staying pair.
        def walk(ev, pair, tag):
            reached = {pair}
            frontier = [pair]
            while frontier:
                for label, (target,) in ev.outgoing(frontier.pop()).items():
                    if label.tag is tag and target not in reached:
                        reached.add(target)
                        frontier.append(target)
            return reached

        for seed in range(150):
            g = random_dfa(seed, n_states=4 + seed % 4, live=True)
            c = random_constraints(seed, sorted(e.symbol for e in g.events))
            ev = build_eic_verifier(
                build_eic_indicator(g, build_eic_insertion_automaton(g, c))
            )
            staying = {
                pair
                for pair in ev.states
                if decoration_of(pair.actual) in (Decoration.PLAIN, Decoration.A)
            }
            changed = True
            while changed:
                changed = False
                for pair in sorted(staying, key=state_display):
                    staged = walk(ev, pair, Tag.INSERTED_BEFORE)
                    if not all(
                        any(
                            t in staying
                            for q in staged
                            for relayed in ev.step(q, e)
                            for t in walk(ev, relayed, Tag.INSERTED_AFTER)
                        )
                        for e in g.enabled_events(base_of(pair.actual))
                    ):
                        staying.discard(pair)
                        changed = True
            nb = find_staying_eic_nonblocking(ev, g)
            assert set(nb) == staying, seed
            assert all(
                kind == (1 if decoration_of(pair.actual) is Decoration.PLAIN else 2)
                for pair, kind in nb.items()
            )


class TestEicAdmissible:
    def test_g1_matches_the_frozen_nine(self, g1):
        eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, BC_A))
        ev = build_eic_verifier(eia)
        nb = find_staying_eic_nonblocking(ev, g1)
        assert displays(eic_admissible_states(ev, nb, g1.secret)) == X_EVA


class TestCheckEicEnforceable:
    def test_g1_with_split_alphabets_is_enforceable(self, g1):
        report = check_eic_enforceable(g1, BC_A)
        assert report.enforceable
        assert report.uncovered_actual_states == frozenset()
        assert displays(report.admissible) == X_EVA

    def test_before_only_insertion_cannot_cover_the_secrets(self, g1):
        report = check_eic_enforceable(
            g1, InsertionConstraints.of({"a", "b", "c"}, ())
        )
        assert not report.enforceable
        assert 2 in report.uncovered_actual_states
        assert report.uncovered_actual_states == frozenset({2, 3})

    def test_no_insertions_at_all_is_not_enforceable(self, g1):
        report = check_eic_enforceable(g1, InsertionConstraints.of((), ()))
        assert not report.enforceable
        assert report.uncovered_actual_states == frozenset({2, 3})

    def test_constraints_are_validated(self, g1):
        with pytest.raises(ValueError):
            check_eic_enforceable(g1, InsertionConstraints.of({"z"}, ()))

    def test_stray_symbols_are_named_before_nondeterminism(self):
        nondet = Automaton.nfa([0, 1], ["a"], {(0, "a"): [0, 1]}, [0])
        with pytest.raises(ValueError, match="constraint symbols outside the alphabet: z"):
            check_eic_enforceable(nondet, InsertionConstraints.of({"z"}, ()))
        with pytest.raises(ValueError, match="requires a deterministic automaton"):
            check_eic_enforceable(nondet, InsertionConstraints.of({"a"}, ()))

    def test_only_an_after_insertion_hides_the_secret(self):
        # The wider class: 0 -a/c-> 1 -b-> 0 with 1 secret is EI-enforceable,
        # yet not with every event insertable before and none after.  A
        # relay of a or c from a believed state in {0, 1} always lands on
        # 1; only inserting b after it moves the belief back to 0.
        g = random_dfa(5, 2, live=True)
        assert g == Automaton.dfa(
            [0, 1], ["a", "b", "c"], {(0, "a"): 1, (0, "c"): 1, (1, "b"): 0}, 0, secret=[1]
        )
        assert check_ei_enforceable(g).enforceable
        report = check_eic_enforceable(g, InsertionConstraints.of("abc", ()))
        assert not report.enforceable
        assert report.uncovered_actual_states == frozenset({1})
        assert check_eic_enforceable(g, InsertionConstraints.of("a", "b")).enforceable
        assert not check_eic_enforceable(g, InsertionConstraints.of((), "b")).enforceable

    def test_every_event_on_both_sides_is_ei_once_x0_is_entered(self):
        # EIC with before = after = all events decides what EI decides, but
        # for one rule: before the first output nothing has been produced to
        # insert after, so x0 has an after-phase only when a move enters it.
        entered = differ = 0
        for seed in range(1000):
            for live in (True, False):
                g = random_dfa(seed, live=live)
                symbols = {e.symbol for e in g.events}
                ei = check_ei_enforceable(g)
                eic = check_eic_enforceable(g, InsertionConstraints.of(symbols, symbols))
                if any(g.initial <= targets for targets in g.transitions.values()):
                    entered += 1
                    assert ei.enforceable == eic.enforceable, (seed, live)
                    assert ei.uncovered_actual_states == eic.uncovered_actual_states, (seed, live)
                else:
                    differ += ei.enforceable != eic.enforceable
        # Most systems re-enter x0, and the rule does decide some others.
        assert entered > 700 and differ > 0

    def test_verifier_states_never_leave_the_indicator(self):
        for seed in range(10):
            g = random_dfa(seed, live=True)
            symbols = sorted(e.symbol for e in g.events)
            c = InsertionConstraints.of(symbols[:2], symbols[2:])
            eia = build_eic_indicator(g, build_eic_insertion_automaton(g, c))
            report = check_eic_enforceable(g, c)
            assert report.verifier.states <= eia.states
            assert frozenset(report.staying_nonblocking) <= report.verifier.states
            assert report.admissible <= frozenset(report.staying_nonblocking)

    def test_matches_the_staged_reference(self, staged_eic_report, naive_indicator, capsys, tmp_path):
        # The decision runs on interned pair ids; the paper's stages, and a
        # product built pair by pair for the indicator, are the reference.
        subsets = [frozenset(s for i, s in enumerate("abc") if mask >> i & 1) for mask in range(8)]
        pruned = emptied = 0
        for seed in range(256):
            g = random_dfa(
                seed,
                n_states=2 + seed % 11,
                trans_density=(0.2, 0.5, 0.8)[seed % 3],
                live=seed % 22 < 11,
            )
            # every before/after pair of subsets of {a, b, c}, four times over
            c = InsertionConstraints(subsets[seed % 8], subsets[seed // 8 % 8])
            geic = build_eic_insertion_automaton(g, c)
            eia = build_eic_indicator(g, geic)
            assert eia == naive_indicator(g, geic), seed
            expected = staged_eic_report(g, c)
            report = check_eic_enforceable(g, c)
            assert expected.of(report) == expected, seed
            # The CLI and eic_report render the same report, and the CLI
            # draws the same indicator and its pruned pairs, from the
            # decision's pair ids.
            name, path, dot = f"r{seed}", tmp_path / "g.aut", tmp_path / "g.dot"
            path.write_text(emit_automaton(g, name))
            argv = ["verify-eic", str(path), "--json", "--dot", str(dot)]
            argv += ["--insert-before", ",".join(sorted(c.before))]
            argv += ["--insert-after", ",".join(sorted(c.after))]
            assert cli_main(argv) == (0 if expected.enforceable else 3), seed
            out = capsys.readouterr().out
            assert out == to_json(expected.payload(name, c)), seed
            assert out == to_json(eic_report(name, report, c)), seed
            assert dot.read_text() == emit_dot(
                eia,
                name,
                nonblocking=expected.staying_nonblocking,
                pruned=eia.states - expected.verifier.states,
            ), seed
            pruned += expected.verifier.states != eia.states
            emptied += not expected.verifier.states
        # the sample must exercise pruning, down to the empty verifier
        assert pruned > 50 and emptied > 5


class TestAlphabetMonotonicity:
    def test_a_wider_alphabet_never_refuses_an_enforceable_system(self):
        # A metamorphic check that shares no code with the oracle: every
        # disguise open under (before, after) stays open when either set
        # grows, so "enforceable" holds on every pair of supersets.  All 64
        # pairs of subsets of {a, b, c}, on live and halting systems.
        subsets = [frozenset(s for i, s in enumerate("abc") if mask >> i & 1) for mask in range(8)]
        mixed = 0
        for seed in range(100):
            g = random_dfa(seed, n_states=2 + seed % 8, live=seed % 3 != 0)
            verdicts = {}
            for before in subsets:
                for after in subsets:
                    c = InsertionConstraints(before, after)
                    verdicts[before, after] = check_eic_enforceable(g, c).enforceable
            for (before, after), enforceable in verdicts.items():
                if enforceable:
                    wider = [
                        pair for pair, ok in verdicts.items()
                        if before <= pair[0] and after <= pair[1] and not ok
                    ]
                    assert wider == [], (seed, sorted(before), sorted(after))
            mixed += len(set(verdicts.values())) == 2
        # the alphabets decide the verdict on many of the systems
        assert mixed > 50, mixed


class TestRenamingInvariance:
    def test_permuted_states_and_events_keep_the_verdicts(self):
        # A metamorphic check: the verdict is a property of the system, not
        # of its names.  States are permuted with x0 fixed, which reorders
        # the kernel's ids, and events are permuted in g and the constraints
        # together.  The uncovered states follow the permutation.
        decided = Counter()
        for seed in range(300):
            rng = random.Random(seed)
            g = random_dfa(seed, n_states=2 + seed % 9, live=seed % 3 != 0)
            (x0,) = g.initial
            others = sorted(g.states - {x0})
            state = {x0: x0, **dict(zip(others, rng.sample(others, len(others))))}
            symbols = sorted(e.symbol for e in g.events)
            event = dict(zip(symbols, rng.sample(symbols, len(symbols))))
            twin = Automaton.dfa(
                [state[x] for x in g.states],
                [event[s] for s in symbols],
                {(state[x], event[e.symbol]): state[y] for (x, e), (y,) in g.transitions.items()},
                x0,
                [state[x] for x in g.secret],
            )
            c = random_constraints(seed, symbols)
            renamed = InsertionConstraints.of(
                {event[s] for s in c.before}, {event[s] for s in c.after}
            )
            for report, other in (
                (check_ei_enforceable(g), check_ei_enforceable(twin)),
                (check_eic_enforceable(g, c), check_eic_enforceable(twin, renamed)),
            ):
                assert report.enforceable == other.enforceable, seed
                uncovered = {state[x] for x in report.uncovered_actual_states}
                assert uncovered == other.uncovered_actual_states, seed
                decided[report.enforceable] += 1
        # both verdicts occur often
        assert min(decided.values()) > 100, decided


def _decide(g, c):
    """The EI report of g when ``c`` is None, else the EIC one under ``c``."""
    return check_ei_enforceable(g) if c is None else check_eic_enforceable(g, c)


def _split(g, move, copy):
    """``g`` with the target y of ``move``, an (x, symbol) pair, split in
    two bisimilar states: the move now enters ``copy``, a new state with
    y's secret flag and y's moves.  Every observer sees the same system."""
    moves = {(x, e.symbol): y for (x, e), (y,) in g.transitions.items()}
    y = moves[move]
    split = {**moves, move: copy}
    split.update({(copy, e): z for (x, e), z in moves.items() if x == y})
    secret = g.secret | ({copy} if y in g.secret else set())
    (x0,) = g.initial
    return Automaton.dfa(g.states | {copy}, g.events, split, x0, secret)


class TestSecretAntitonicity:
    def test_a_smaller_secret_never_uncovers_a_state(self):
        # A metamorphic check that needs no second decider: every disguise
        # that hides a state still hides it when a secret state turns
        # public, so no state becomes uncovered.  EI, and EIC under random
        # constraints, on live and halting systems of 2 to 10 states.
        decided = Counter()
        for seed in range(400):
            g = random_dfa(seed, n_states=2 + seed % 9, live=seed % 2 == 0)
            for c in (None, random_constraints(seed, "abc")):
                uncovered = _decide(g, c).uncovered_actual_states
                for x in sorted(g.secret):
                    fewer = Automaton(g.states, g.events, g.transitions, g.initial, g.secret - {x})
                    smaller = _decide(fewer, c).uncovered_actual_states
                    assert smaller <= uncovered, (seed, c, x)
                    decided[smaller < uncovered] += 1
        # dropping a secret state often covers another
        assert decided[True] > 100 and sum(decided.values()) > 1200, decided


# The pairs (before, after) of a chain of growing alphabets, Σ being g's.
_GROWING = (((), ()), ({"a"}, ()), ({"a"}, {"a", "b"}), (None, None))


def _renamed(g: Automaton) -> tuple[Automaton, dict, dict]:
    """``g`` with its states named ``s{x}``, the middle one ``s_{x},`` (a
    name holding the characters pair names escape), and its symbols
    rotated in sorted order; and the two renamings."""
    states = sorted(g.states)
    middle = states[len(states) // 2]
    new = {x: f"s_{x}," if x == middle else f"s{x}" for x in states}
    symbols = sorted(e.symbol for e in g.events)
    event = dict(zip(symbols, symbols[1:] + symbols[:1]))
    (x0,) = g.initial
    twin = Automaton.dfa(
        new.values(),
        event.values(),
        {(new[x], event[e.symbol]): new[y] for (x, e), (y,) in g.transitions.items()},
        new[x0],
        [new[x] for x in g.secret],
    )
    return twin, new, event


def _with_component(g: Automaton) -> tuple[Automaton, frozenset]:
    """``g`` beside a disjoint five-state component over its events, which
    x0 cannot reach: ``random_dfa`` seeded by g's size, its states named
    ``u{x}``; and the component's states."""
    h = random_dfa(len(g.states), 5)
    new = {x: f"u{x}" for x in h.states}
    moves = {(new[x], e): frozenset({new[y]}) for (x, e), (y,) in h.transitions.items()}
    wider = Automaton(
        g.states | frozenset(new.values()),
        g.events,
        {**g.transitions, **moves},
        g.initial,
        g.secret | {new[x] for x in h.secret},
    )
    return wider, frozenset(new.values())


def _relation_violations(g: Automaton) -> tuple[int, list[str]]:
    """The number of checks of five relations that need no second decider
    on ``g``, and a line for each that fails: EIC's uncovered states shrink
    along ``_GROWING``; dropping the least secret state uncovers no state,
    under EI and under ({a}, ∅) and (Σ, Σ); where some move enters x0, EI
    and EIC(Σ, Σ) uncover the same states; a disjoint component that x0
    cannot reach (``_with_component``) leaves every old state's coverage as
    it was, and its own states are exactly the new uncovered and
    unreachable ones, under EI and EIC({a}, {a, b}); and renaming the
    states and events (``_renamed``), and the constraints alike, keeps the
    verdict and the three pair counts of EI and of EIC({a}, {a, b}), and
    maps the uncovered states name for name."""
    sigma = {e.symbol for e in g.events}
    chain = [
        InsertionConstraints.of(sigma if b is None else b, sigma if a is None else a)
        for b, a in _GROWING
    ]
    reports = {c: _decide(g, c) for c in [None, *chain]}
    uncovered = {c: report.uncovered_actual_states for c, report in reports.items()}
    checks, violations = 0, []

    def name(c: Optional[InsertionConstraints]) -> str:
        if c is None:
            return "EI"
        return f"EIC({{{','.join(sorted(c.before))}}}, {{{','.join(sorted(c.after))}}})"

    def check(ok: bool, line: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            violations.append(line)

    for narrow, wide in zip(chain, chain[1:]):
        more = uncovered[wide] - uncovered[narrow]
        check(not more, f"{name(wide)} uncovers {sorted(more)}, which {name(narrow)} covers")
    if g.secret:
        least = min(g.secret)
        fewer = Automaton(g.states, g.events, g.transitions, g.initial, g.secret - {least})
        for c in (None, chain[1], chain[3]):
            more = _decide(fewer, c).uncovered_actual_states - uncovered[c]
            check(not more, f"{name(c)} uncovers {sorted(more)} once {least} is not secret")
    (x0,) = g.initial
    if any(x0 in targets for targets in g.transitions.values()):
        differ = uncovered[None] ^ uncovered[chain[3]]
        check(not differ, f"EI and {name(chain[3])} differ on {sorted(differ)}")
    wider, component = _with_component(g)
    for c in (None, chain[2]):
        report = _decide(wider, c)
        kept = report.uncovered_actual_states & g.states
        added = report.uncovered_actual_states - g.states
        check(
            kept == uncovered[c] and added == report.unreachable_actual_states == component,
            f"with a component x0 cannot reach, {name(c)} uncovers {sorted(kept)} of g,"
            f" not {sorted(uncovered[c])}, and {sorted(added, key=str)} of the component"
            f" {sorted(component)}, {sorted(report.unreachable_actual_states, key=str)} unreachable",
        )
    twin, new, event = _renamed(g)
    for c in (None, chain[2]):
        if c is None:
            other = check_ei_enforceable(twin)
        else:
            renamed = InsertionConstraints.of(
                {event[s] for s in c.before}, {event[s] for s in c.after}
            )
            other = check_eic_enforceable(twin, renamed)
        was, now = (_verdict_and_counts(report) for report in (reports[c], other))
        moved = {new[x] for x in uncovered[c]} ^ other.uncovered_actual_states
        check(
            was == now and not moved,
            f"renamed, {name(c)} reads {now}, not {was}, and differs on {sorted(moved)}",
        )
    return checks, violations


def _verdict_and_counts(report) -> tuple:
    """The verdict and the verifier, staying and admissible pair counts."""
    masks = (report.verifier_masks, report.staying_masks, report.admissible_masks)
    return (report.enforceable, *map(_count, masks))


class TestRelationsAtScale:
    def test_relations_hold_up_to_160_states(self):
        # The relations of TestAlphabetMonotonicity, TestSecretAntitonicity,
        # the x0 rule, TestUnreachableComponent and TestRenamingInvariance on
        # systems of 64 to 160 states.  CI's relations step runs the same
        # checks at 320 to 1280 states (scripts/ci/relations.py).
        checks = 0
        for n in (64, 128, 160):
            for live in (True, False):
                done, violations = _relation_violations(random_dfa(n, n, live=live))
                assert violations == [], (n, live)
                checks += done
        # ten checks on each system, and one more on the five whose x0
        # some move enters
        assert checks == 65, checks

    def test_the_workflow_script_runs_them(self):
        # scripts/ci/relations.py, CI's relations step, at sizes given in
        # place of its own.
        script = DATA.parents[1] / "scripts" / "ci" / "relations.py"
        done = subprocess.run(
            [sys.executable, str(script), "8", "24"], capture_output=True, text=True
        )
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"random_dfa({n}, {n}, live={live})" for n in (8, 24) for live in (True, False)
        ]
        assert all(line.endswith(" checks, 0 violations") for line in lines)


class TestUnreachableComponent:
    def test_a_component_x0_cannot_reach_changes_no_old_state(self):
        # A metamorphic check that needs no second decider: a disjoint
        # component over g's events, which x0 cannot reach, holds no pair
        # the forward reaches.  Every old state keeps its verdict, and every
        # new state is unreachable, so uncovered.  EI, and EIC under random
        # constraints, on live and halting systems and components.
        decided = Counter()
        for seed in range(300):
            g = random_dfa(seed, n_states=2 + seed % 8, live=seed % 2 == 0)
            h = random_dfa(seed + 1000, n_states=1 + seed % 5, live=seed % 3 == 0)
            new = {x: f"new{x}" for x in h.states}
            moves = {(new[x], e): frozenset({new[y]}) for (x, e), (y,) in h.transitions.items()}
            wider = Automaton(
                g.states | frozenset(new.values()),
                g.events,
                {**g.transitions, **moves},
                g.initial,
                g.secret | {new[x] for x in h.secret},
            )
            for c in (None, random_constraints(seed, "abc")):
                report, other = _decide(g, c), _decide(wider, c)
                assert other.uncovered_actual_states & g.states == report.uncovered_actual_states, (seed, c)
                added = other.uncovered_actual_states - g.states
                assert added == other.unreachable_actual_states == set(new.values()), (seed, c)
                decided[report.enforceable] += 1
        # both verdicts occur on the old states
        assert min(decided.values()) > 100, decided

    def test_an_unreachable_move_into_x0_gives_x0_its_after_phase(self):
        # EIC's x0 rule counts x0 as entered when any move enters it,
        # reachable or not, in the kernel and in the staged construction
        # alike.  0-a->1, 0-c->1, 1-a->2, 1-c->2, 2-b->2 and 2-c->1, secret
        # {0}, before {b, c} and after {a, c}, leaves 0 uncovered.  Add an
        # unreachable u -a-> 0: x0 gains its after-phases, so 0 is covered
        # and only u is uncovered.  The verdict, and the oracle's, stays
        # False, and EI's uncovered set keeps its old states.  This pins
        # today's output; ROADMAP item 3 decides the rule.
        g = random_dfa(70, 3, live=True)
        moves = {(x, e.symbol): y for (x, e), (y,) in g.transitions.items()}
        assert moves == {
            (0, "a"): 1, (0, "c"): 1, (1, "a"): 2, (1, "c"): 2, (2, "b"): 2, (2, "c"): 1
        }
        assert g.secret == {0}
        c = random_constraints(70, "abc")
        assert c == InsertionConstraints.of("bc", "ac")
        entered = Automaton.dfa(g.states | {"u"}, "abc", {**moves, ("u", "a"): 0}, 0, g.secret)
        for system, uncovered in ((g, {0}), (entered, {"u"})):
            report = check_eic_enforceable(system, c)
            assert report.kernel.entered == (system is entered)
            assert report.uncovered_actual_states == uncovered
            assert not report.enforceable and not oracle_eic_enforceable(system, c)
            assert check_ei_enforceable(system).uncovered_actual_states <= {"u"}
            phases = {
                decoration_of(x)
                for x in build_eic_insertion_automaton(system, c).states
                if base_of(x) == 0
            }
            assert (Decoration.A in phases) == (system is entered)


class TestBisimilarSplit:
    def test_the_verdict_depends_on_how_g_is_presented(self):
        # 0-a->2, 0-b->1, 0-c->1, 1-c->1, 2-a->2 and 2-b->0, secret {1}, is
        # EI-enforceable.  Redirect 0-b to 3, a secret copy of 1: an
        # observer sees the same system, yet 1 is now uncovered.  The
        # oracle agrees on both, so the per-state reading causes it.
        g = random_dfa(401, 3, live=True)
        moves = {(x, e.symbol): y for (x, e), (y,) in g.transitions.items()}
        assert moves == {
            (0, "a"): 2, (0, "b"): 1, (0, "c"): 1, (1, "c"): 1, (2, "a"): 2, (2, "b"): 0
        }
        assert g.secret == {1}
        split = _split(g, (0, "b"), 3)
        assert check_ei_enforceable(g).enforceable and oracle_ei_enforceable(g)
        report = check_ei_enforceable(split)
        assert not report.enforceable and not oracle_ei_enforceable(split)
        assert report.uncovered_actual_states == {1}

    def test_an_enforceable_split_has_an_enforceable_original(self):
        # The direction that holds: splitting a state never turns "not
        # enforceable" into "enforceable".  One move of each system, drawn
        # at random, is redirected into a copy of its target; EI, and EIC
        # under random constraints, on live and halting systems.
        outcomes = Counter()
        for seed in range(600):
            g = random_dfa(seed, 2 + seed % 8, live=seed % 2 == 1)
            move = random.Random(seed).choice(sorted((x, e.symbol) for x, e in g.transitions))
            split = _split(g, move, len(g.states))
            for mode, c in (("EI", None), ("EIC", random_constraints(seed, "abc"))):
                original, twin = _decide(g, c).enforceable, _decide(split, c).enforceable
                assert original or not twin, (mode, seed, move)
                outcomes[mode, original, twin] += 1
        # the other direction fails, under EI and EIC
        assert outcomes["EI", True, False] and outcomes["EIC", True, False], outcomes
