from __future__ import annotations

import pytest

from veiler.fsm import Automaton, as_label, word
from veiler.observer import (
    build_observer,
    check_current_state_opacity,
    project,
)
from veiler.oracle import random_nfa


@pytest.fixture
def partly_hidden():
    """Three states, one unobservable event bridging 0 to 1."""
    return Automaton.nfa(
        states=[0, 1, 2],
        events=["a", "u"],
        transitions={(0, "u"): [1], (0, "a"): [1], (1, "a"): [2]},
        initial=[0],
    )


class TestProject:
    def test_erases_unobservable_labels(self):
        assert project(word("a u a"), ["a"]) == word("a a")

    def test_keeps_everything_when_all_observable(self):
        assert project(word("a b"), ["a", "b"]) == word("a b")

    def test_empty_input(self):
        assert project((), ["a"]) == ()


class TestBuildObserver:
    def test_initial_estimate_takes_unobservable_reach(self, partly_hidden):
        observer = build_observer(partly_hidden, ["a"])
        (start,) = observer.initial
        assert start.estimate == frozenset({0, 1})

    def test_estimates_follow_subset_construction(self, partly_hidden):
        observer = build_observer(partly_hidden, ["a"])
        (start,) = observer.initial
        (after_one,) = observer.step(start, as_label("a"))
        assert after_one.estimate == frozenset({1, 2})
        (after_two,) = observer.step(after_one, as_label("a"))
        assert after_two.estimate == frozenset({2})

    def test_observer_is_deterministic(self, partly_hidden):
        assert build_observer(partly_hidden, ["a"]).deterministic

    def test_secret_flags_fully_secret_estimates(self):
        n = Automaton.nfa(
            [0, 1], ["a"], {(0, "a"): [1]}, [0], secret=[1]
        )
        observer = build_observer(n, ["a"])
        flagged = {x.estimate for x in observer.secret}
        assert flagged == {frozenset({1})}

    def test_observable_must_be_subset_of_events(self, partly_hidden):
        with pytest.raises(ValueError):
            build_observer(partly_hidden, ["z"])

    def test_matches_brute_force_on_random_nfas(self):
        # replay every observation of length <= 4 through a subset simulation
        for seed in range(30):
            n = random_nfa(seed)
            symbols = sorted(e.symbol for e in n.events)
            observable = symbols[: 2 if seed % 2 else 3]
            observer = build_observer(n, observable)
            (start,) = observer.initial
            frontier = [((), start)]
            for _ in range(4):
                grown = []
                for s, est in frontier:
                    for e in sorted(observer.enabled_events(est)):
                        (nxt,) = observer.step(est, e)
                        s2 = s + (e,)
                        assert nxt.estimate == _brute_estimate(
                            n, observable, s2
                        ), (seed, s2)
                        grown.append((s2, nxt))
                frontier = grown


def _brute_estimate(n, observable, s):
    observable = frozenset(as_label(e) for e in observable)
    current = set(n.initial)
    current = _silent_closure(n, current, observable)
    for e in s:
        stepped = {y for x in current for y in n.step(x, e)}
        current = _silent_closure(n, stepped, observable)
    return frozenset(current)


def _silent_closure(n, states, observable):
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
    return reached


class TestOpacity:
    def test_g1_is_not_opaque_with_length_one_witness(self, g1):
        verdict = check_current_state_opacity(g1, ["a", "b", "c"])
        assert not verdict.opaque
        assert verdict.witness_observation == word("b")
        assert {x.estimate for x in verdict.violating_estimates} == {
            frozenset({2}),
            frozenset({3}),
        }

    def test_hiding_the_revealing_events_restores_opacity(self, g1):
        verdict = check_current_state_opacity(g1, ["a"])
        assert verdict.opaque
        assert verdict.witness_observation is None
        assert verdict.violating_estimates == frozenset()

    def test_secret_initial_state_gives_empty_witness(self):
        g = Automaton.dfa([0, 1], ["a"], {(0, "a"): 1}, 0, secret=[0])
        verdict = check_current_state_opacity(g, ["a"])
        assert not verdict.opaque
        assert verdict.witness_observation == ()
