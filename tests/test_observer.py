from __future__ import annotations

import random

import pytest

from veiler.cli import cli_main
from veiler.fsm import Automaton, as_label, sorted_states, state_display, word
from veiler.observer import (
    OpacityVerdict,
    _search,
    build_observer,
    check_current_state_opacity,
    project,
)
from veiler.oracle import random_dfa, random_nfa
from veiler.report import opacity_report, to_json
from veiler.textio import emit_automaton, parse_document


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

    def test_a_system_without_initial_states_is_opaque(self):
        # Its only estimate is empty; a violation needs a nonempty one.
        g = Automaton.nfa([0, 1], ["a"], {(0, "a"): [1]}, initial=[], secret=[0, 1])
        verdict = check_current_state_opacity(g, ["a"])
        assert verdict == OpacityVerdict(True, frozenset(), None)
        observer = build_observer(g, ["a"])
        assert {x.estimate for x in observer.states} == {frozenset()}
        assert observer.secret == frozenset()

    def test_the_search_lists_violations_in_queue_order(self):
        # _search flags each nonempty all-secret estimate when it first
        # finds it, so the indices follow the queue, the start first when it
        # is one; the witness walks back from the first of them.
        secret_starts = 0
        for seed in range(400):
            n, observable = _random_system(seed)
            _, queue, _, violating = _search(n, observable)
            assert violating == [i for i, e in enumerate(queue) if e and e <= n.secret], seed
            secret_start = bool(queue[0]) and queue[0] <= n.secret
            assert (violating[:1] == [0]) == secret_start, seed
            secret_starts += secret_start
        assert secret_starts >= 10, secret_starts

    def test_matches_a_naive_powerset_search(self):
        kinds = dict(multi_initial=0, no_initial=0, secret_start=0, idle_label=0, long_witness=0)
        for seed in range(400):
            n, observable = _random_system(seed)
            verdict = check_current_state_opacity(n, observable)
            opaque, violating, witness = _naive_opacity(n, observable)
            assert verdict.opaque == opaque, seed
            assert {x.estimate for x in verdict.violating_estimates} == violating, seed
            assert verdict.witness_observation == witness, seed
            observer = build_observer(n, observable)
            assert {x.estimate for x in observer.secret} == violating, seed
            kinds["multi_initial"] += len(n.initial) > 1
            kinds["no_initial"] += not n.initial
            kinds["secret_start"] += witness == ()
            kinds["idle_label"] += as_label("z") in observable
            kinds["long_witness"] += witness is not None and len(witness) >= 2
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "kind",
        ["observed_dfa", "hidden_chains", "several_initial", "no_initial", "sparse_observed", "sparse_hidden"],
    )
    def test_matches_a_naive_powerset_search_at_scale(self, kind, seed):
        n, observable = _large_system(kind, seed)
        opaque, violating, witness, estimates = _naive_opacity(n, observable, every=True)
        verdict = check_current_state_opacity(n, observable)
        assert verdict.opaque == opaque
        assert {x.estimate for x in verdict.violating_estimates} == violating
        assert verdict.witness_observation == witness
        observer = build_observer(n, observable)
        assert {x.estimate for x in observer.states} == estimates
        assert {x.estimate for x in observer.secret} == violating
        # every move is the naive one-step successor, and there is no other
        labels = sorted(as_label(e) for e in observable)
        moves = 0
        for state in observer.states:
            for e in labels:
                moved = {y for x in state.estimate for y in n.step(x, e)}
                successors = {target.estimate for target in observer.step(state, e)}
                if moved:
                    assert successors == {frozenset(_silent_closure(n, moved, labels))}
                    moves += 1
                else:
                    assert not successors
        assert len(observer.transitions) == moves
        if kind == "observed_dfa":  # every estimate is one state
            assert {len(estimate) for estimate in estimates} == {1}
            assert len(violating) >= 20 and witness is not None
        elif kind == "hidden_chains":
            assert min(len(estimate) for estimate in estimates) >= 2
            assert max(len(estimate) for estimate in estimates) >= 40
            assert len(estimates) >= 50
        elif kind == "no_initial":
            assert (opaque, estimates) == (True, {frozenset()})
        elif kind.startswith("sparse"):  # 25 or 26 labels, about 2 moves per state
            assert moves * 4 < len(estimates) * len(labels)  # most lookups miss
            sizes = {len(estimate) for estimate in estimates}
            assert (sizes == {1}) if kind == "sparse_observed" else (max(sizes) >= 2)
            assert len(violating) >= 20


class TestTheCommandLine:
    """check-opacity names the search's frozensets itself; its text and JSON
    are what the library's verdict and report give."""

    def test_prints_the_library_report_on_random_systems(self, tmp_path, capsys):
        kinds = dict(no_initial=0, multi_initial=0, hidden_move=0, secret_start=0, wide_estimate=0)
        path = tmp_path / "g.aut"
        for seed in range(400):
            n, observable = _random_system(seed)
            observed = {as_label(e) for e in observable}
            name = f"g{seed}"
            path.write_text(emit_automaton(n, name, {e.symbol for e in n.events - observed}))
            assert parse_document(path.read_text()).automaton == n, seed
            verdict = check_current_state_opacity(n, observable)
            code = 0 if verdict.opaque else 2
            assert cli_main(["check-opacity", str(path), "--json"]) == code, seed
            assert capsys.readouterr().out == to_json(opacity_report(name, verdict)), seed
            assert cli_main(["check-opacity", str(path)]) == code, seed
            assert capsys.readouterr().out == _text_report(name, verdict), seed
            kinds["no_initial"] += not n.initial
            kinds["multi_initial"] += len(n.initial) > 1
            kinds["hidden_move"] += any(e not in observed for _, e in n.transitions)
            kinds["secret_start"] += verdict.witness_observation == ()
            kinds["wide_estimate"] += any(len(x.estimate) > 1 for x in verdict.violating_estimates)
        assert min(kinds.values()) >= 10, kinds


def _text_report(name, verdict):
    """check-opacity's text output, written from the library's verdict."""
    lines = [f"automaton {name}: {'opaque' if verdict.opaque else 'not opaque'}"]
    if verdict.witness_observation is not None:
        shown = " ".join(e.display() for e in verdict.witness_observation) or "(empty)"
        lines.append(f"witness observation: {shown}")
        names = (state_display(x) for x in sorted_states(verdict.violating_estimates))
        lines.append(f"violating estimates: {' '.join(names)}")
    return "".join(line + "\n" for line in lines)


def _large_system(kind, seed):
    """A system of 100-300 states and its observable labels.

    ``observed_dfa`` is a fully observed live DFA with a public initial
    state.  ``sparse_observed`` is one over 26 events with about 2 moves per
    state, and ``sparse_hidden`` the same with ``a`` unobservable.  The
    others are NFAs: half their states form one long chain of
    the unobservable label u, which every other state enters somewhere by
    u, so an estimate holds a long piece of it.  ``hidden_chains`` starts
    from one state, ``several_initial`` from three and ``no_initial`` from
    none.
    """
    rng = random.Random(f"{kind}/{seed}")
    size = rng.randrange(100, 301)
    if kind in ("observed_dfa", "sparse_observed", "sparse_hidden"):
        if kind == "observed_dfa":
            g = random_dfa(seed, size, live=True, secret_density=0.5)
        else:
            g = random_dfa(seed, size, n_events=26, trans_density=1 / 26, live=True, secret_density=0.5)
        n = Automaton(g.states, g.events, g.transitions, g.initial, g.secret - g.initial)
        return n, sorted(e for e in g.events if kind != "sparse_hidden" or e.symbol != "a")
    chain = size // 2
    transitions = {(x, "u"): [x + 1] for x in range(chain - 1)}
    for x in range(chain, size):
        transitions[(x, "u")] = [rng.randrange(chain)]
        for symbol in "ab":
            if rng.random() < 0.8:
                transitions[(x, symbol)] = rng.sample(range(chain, size), 1 + (rng.random() < 0.01))
    initial = {"hidden_chains": 1, "several_initial": 3, "no_initial": 0}[kind]
    secret = [x for x in range(size) if rng.random() < 0.9]
    return Automaton.nfa(range(size), "abu", transitions, rng.sample(range(chain, size), initial), secret), ["a", "b"]


def _random_system(seed):
    """A random NFA or DFA of 2-12 states, a random observable subset of its
    labels, and sometimes an observable label z that no state can take."""
    rng = random.Random(seed)
    size = rng.randrange(2, 13)
    if seed % 2:
        g = random_nfa(seed, n_states=min(size, 8), trans_density=rng.choice((0.2, 0.4)),
                       secret_density=rng.choice((0.3, 0.6)))
        initial = frozenset(x for x in g.states if rng.random() < 0.3)
    else:
        g = random_dfa(seed, size, trans_density=rng.choice((0.3, 0.6)),
                       secret_density=rng.choice((0.3, 0.7)), live=rng.random() < 0.5)
        initial = g.initial
    events = set(g.events)
    if rng.random() < 0.3:
        events.add(as_label("z"))
    n = Automaton(g.states, frozenset(events), g.transitions, initial, g.secret)
    observable = [e for e in sorted(events) if rng.random() < 0.6]
    return n, observable


def _naive_opacity(n, observable, every=False):
    """Opacity by a level-by-level search over frozenset estimates, and with
    ``every`` the set of all reached estimates too.

    Each level maps the estimates first reached at its depth to their least
    observation; the witness is the least observation of an all-secret
    estimate on the first level that has one.
    """
    labels = sorted(as_label(e) for e in observable)

    def closed(states):
        return frozenset(_silent_closure(n, states, labels))

    level = {closed(n.initial): ()}
    seen = set(level)
    violating, witness = set(), None
    while level:
        secret = {est: s for est, s in level.items() if est and est <= n.secret}
        violating |= set(secret)
        if secret and witness is None:
            witness = min(secret.values())
        following: dict = {}
        for est, s in level.items():
            for e in labels:
                moved = {y for x in est for y in n.step(x, e)}
                nxt = closed(moved) if moved else None
                if nxt is not None and nxt not in seen:
                    following[nxt] = min(following.get(nxt, s + (e,)), s + (e,))
        seen |= set(following)
        level = following
    if every:
        return not violating, violating, witness, seen
    return not violating, violating, witness
