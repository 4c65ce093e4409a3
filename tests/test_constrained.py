from __future__ import annotations

import random
from collections import Counter
from typing import Mapping

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
from veiler.fsm import Automaton, Tag, sorted_labels, state_display, word
from veiler.insertion import IndicatorState, check_ei_enforceable
from veiler.oracle import random_constraints, random_dfa
from veiler.report import eic_report, to_json
from veiler.textio import emit_automaton

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


def naive_indicator(g, geic):
    """The constrained indicator built pair by pair from g and ``geic``."""
    (x0,) = g.initial
    start = IndicatorState(x0, x0)
    labels = sorted_labels(g.events | geic.events)
    states, frontier, transitions = {start}, [start], {}
    while frontier:
        pair = frontier.pop()
        for label in labels:
            for dummy in g.step(pair.dummy, label.as_actual()):
                for act in geic.step(pair.actual, label):
                    target = IndicatorState(dummy, act)
                    transitions[(pair, label)] = frozenset({target})
                    if target not in states:
                        states.add(target)
                        frontier.append(target)
    secret = frozenset(p for p in states if p.dummy in g.secret)
    return Automaton(
        frozenset(states), frozenset(labels), transitions, frozenset({start}), secret
    )


class TestInsertionConstraints:
    def test_of_coerces_to_frozensets(self):
        c = InsertionConstraints.of(["b", "c"], ["a"])
        assert c.before == frozenset({"b", "c"})
        assert c.after == frozenset({"a"})

    def test_validate_rejects_foreign_symbols(self, g1):
        with pytest.raises(ValueError):
            InsertionConstraints.of({"z"}, ()).validate_against(g1)

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
    def test_the_masks_hold_the_search_and_its_pruning(self):
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
            g = random_dfa(seed, live=True)
            symbols = {e.symbol for e in g.events}
            ei = check_ei_enforceable(g).enforceable
            eic = check_eic_enforceable(g, InsertionConstraints.of(symbols, symbols)).enforceable
            if any(g.initial <= targets for targets in g.transitions.values()):
                entered += 1
                assert ei == eic, seed
            else:
                differ += ei != eic
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

    def test_matches_the_staged_reference(self, staged_eic_report, capsys, tmp_path):
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
