"""Acceptance gate: every shipped claim, checked end to end.

One test per criterion; each prints a ``criterion N: PASS/FAIL`` line with
the measured numbers so a run reads as a checklist.  Criterion 7b runs the
construction-versus-search differential on 1000 live random systems, with
and without insertion constraints, and demands zero disagreements; its
non-live twin does the same on 1000 systems that may halt, where a halted
run reveals nothing further to both sides.  The minimal systems on which a
one-step nonblocking check once approved what the search refutes, and the
halting system on which pruning once refused what the search accepts, are
pinned in tests/test_oracle.py::TestDocumentedDivergence.
"""
from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from veiler.constrained import (
    Decoration,
    InsertionConstraints,
    base_of,
    build_eic_indicator,
    build_eic_insertion_automaton,
    check_eic_enforceable,
    decoration_of,
    find_eic_trapping_states,
)
from veiler.fsm import (
    Tag,
    state_display,
    strongly_connected_components,
)
from veiler.insertion import (
    build_indicator,
    build_insertion_automaton,
    build_verifier,
    check_ei_enforceable,
    find_trapping_sccs,
    partition_subspaces,
)
from veiler.observer import build_observer, check_current_state_opacity
from veiler.oracle import (
    ExtendedInsertionSequence,
    is_feasible,
    oracle_eic_enforceable,
    oracle_ei_enforceable,
    random_constraints,
    random_dfa,
    random_nfa,
)
from veiler.report import ei_report, eic_report, opacity_report, to_json
from veiler.textio import AutomatonDocument, emit_document, parse_document

X_VSNB = {
    "(0,0)", "(1,1)", "(2,1)", "(2,2)", "(2,4)", "(3,1)", "(3,3)",
    "(3,5)", "(4,1)", "(4,2)", "(4,4)", "(5,1)", "(5,3)", "(5,5)",
}
X_VA = {"(0,0)", "(1,1)", "(4,1)", "(4,2)", "(4,4)", "(5,1)", "(5,3)", "(5,5)"}
X_EVNB = {
    "(0,0)", "(1,1)", "(1,1_a)", "(2,2)", "(3,3)", "(4,1)", "(4,2_a)",
    "(4,4)", "(5,1)", "(5,3_a)", "(5,5)",
}
X_EVA = {
    "(0,0)", "(1,1)", "(1,1_a)", "(4,1)", "(4,2_a)", "(4,4)",
    "(5,1)", "(5,3_a)", "(5,5)",
}


def _displays(states) -> set:
    return {state_display(x) for x in states}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1(g1):
    started = time.perf_counter()
    report = check_ei_enforceable(g1)
    elapsed = time.perf_counter() - started
    ok = (
        report.enforceable
        and _displays(report.staying_nonblocking) == X_VSNB
        and _displays(report.admissible) == X_VA
        and elapsed < 1.0
    )
    _report(
        "1",
        ok,
        f"enforceable={report.enforceable},"
        f" nonblocking={len(report.staying_nonblocking)}/14,"
        f" admissible={len(report.admissible)}/8, {elapsed:.3f}s",
    )
    assert ok


def test_criterion_2(g1):
    eia = build_indicator(g1, build_insertion_automaton(g1))
    partition = partition_subspaces(eia)
    trapping = find_trapping_sccs(eia, partition, g1)
    trapping_displays = {frozenset(_displays(c)) for c in trapping}
    verifier = build_verifier(eia, g1)
    target = frozenset({"(3,4)", "(5,4)"})
    ok = target in trapping_displays and not (target & _displays(verifier.states))
    _report(
        "2",
        ok,
        f"trapping components={sorted(sorted(c) for c in trapping_displays)},"
        f" verifier keeps {len(verifier.states)}/{len(eia.states)} pair states",
    )
    assert ok


def test_criterion_3(g1):
    constraints = InsertionConstraints.of({"b", "c"}, {"a"})
    started = time.perf_counter()
    eia = build_eic_indicator(g1, build_eic_insertion_automaton(g1, constraints))
    trapping = _displays(find_eic_trapping_states(eia))
    report = check_eic_enforceable(g1, constraints)
    elapsed = time.perf_counter() - started
    ok = (
        report.enforceable
        and trapping == {"(2,4_b)", "(3,5_b)"}
        and _displays(report.staying_nonblocking) == X_EVNB
        and _displays(report.admissible) == X_EVA
        and elapsed < 1.0
    )
    _report(
        "3",
        ok,
        f"enforceable={report.enforceable}, trapping={sorted(trapping)},"
        f" nonblocking={len(report.staying_nonblocking)}/11,"
        f" admissible={len(report.admissible)}/9, {elapsed:.3f}s",
    )
    assert ok


def test_criterion_4(g1):
    report = check_eic_enforceable(
        g1, InsertionConstraints.of({"a", "b", "c"}, ())
    )
    ok = not report.enforceable and 2 in report.uncovered_actual_states
    _report(
        "4",
        ok,
        f"enforceable={report.enforceable}, uncovered="
        f"{sorted(state_display(x) for x in report.uncovered_actual_states)}",
    )
    assert ok


def test_criterion_5(g1):
    accepted = is_feasible(
        g1, "ba", ExtendedInsertionSequence.ei([("c", "a"), ("a", "b")], [(), ()])
    )
    rejected = is_feasible(
        g1, "ba", ExtendedInsertionSequence.ei([("c",), ("a",)], [(), ()])
    )
    ok = accepted and not rejected
    _report(
        "5",
        ok,
        f"insertion yielding cababa accepted={accepted},"
        f" insertion yielding cbaa accepted={rejected}",
    )
    assert ok


def test_criterion_6(g1):
    verdict = check_current_state_opacity(g1, {"a", "b", "c"})
    witness = verdict.witness_observation
    ok = (
        not verdict.opaque
        and witness is not None
        and len(witness) == 1
        and witness[0].symbol in {"b", "c"}
    )
    shown = " ".join(e.display() for e in witness or ())
    _report("6", ok, f"opaque={verdict.opaque}, witness={shown!r}")
    assert ok


def _check_ei_indicator_paths(g, eia) -> int:
    """Every reachable configuration keeps the replayed-run invariants.

    A configuration is (pair, masked-run state, actual-run state); checking
    all of them covers every path through the indicator, of any length.
    """
    (start,) = eia.initial
    (x0,) = g.initial
    seen = {(start, x0, x0)}
    frontier = [(start, x0, x0)]
    while frontier:
        pair, mask_state, actual_state = frontier.pop()
        assert pair.dummy == mask_state
        assert pair.actual == actual_state
        for label, targets in eia.outgoing(pair).items():
            assert label.tag in (Tag.ACTUAL, Tag.INSERTED)
            (nxt,) = targets
            mask_next = g.step(mask_state, label.as_actual())
            assert mask_next, "masked word fell out of the language"
            (mask,) = mask_next
            if label.inserted:
                config = (nxt, mask, actual_state)
            else:
                actual_next = g.step(actual_state, label)
                assert actual_next, "projected word fell out of the language"
                (act,) = actual_next
                config = (nxt, mask, act)
            if config not in seen:
                seen.add(config)
                frontier.append(config)
    return len(seen)


def _check_eic_indicator_paths(g, eia) -> int:
    """As above, plus the decoration grammar on every edge."""
    (start,) = eia.initial
    (x0,) = g.initial
    seen = {(start, x0, x0)}
    frontier = [(start, x0, x0)]
    while frontier:
        pair, mask_state, actual_state = frontier.pop()
        assert pair.dummy == mask_state
        assert base_of(pair.actual) == actual_state
        source_dec = decoration_of(pair.actual)
        for label, targets in eia.outgoing(pair).items():
            (nxt,) = targets
            target_dec = decoration_of(nxt.actual)
            if label.tag is Tag.INSERTED_AFTER:
                assert source_dec in (Decoration.PLAIN, Decoration.A)
                assert target_dec is Decoration.A
            elif label.tag is Tag.INSERTED_BEFORE:
                assert target_dec is (
                    Decoration.AB
                    if source_dec in (Decoration.A, Decoration.AB)
                    else Decoration.B
                )
            else:
                assert label.tag is Tag.ACTUAL
                assert target_dec is Decoration.PLAIN
            mask_next = g.step(mask_state, label.as_actual())
            assert mask_next, "masked word fell out of the language"
            (mask,) = mask_next
            if label.inserted:
                assert base_of(nxt.actual) == actual_state
                config = (nxt, mask, actual_state)
            else:
                actual_next = g.step(actual_state, label)
                assert actual_next, "projected word fell out of the language"
                (act,) = actual_next
                config = (nxt, mask, act)
            if config not in seen:
                seen.add(config)
                frontier.append(config)
    return len(seen)


def test_criterion_7a():
    systems = 0
    configurations = 0
    for seed in range(200):
        g = random_dfa(seed, n_states=2 + seed % 3, n_events=2 + seed % 2)
        eia = build_indicator(g, build_insertion_automaton(g))
        configurations += _check_ei_indicator_paths(g, eia)
        symbols = sorted(e.symbol for e in g.events)
        constraints = random_constraints(seed, symbols)
        geic = build_eic_insertion_automaton(g, constraints)
        configurations += _check_eic_indicator_paths(
            g, build_eic_indicator(g, geic)
        )
        systems += 1
    ok = systems >= 200
    _report(
        "7a",
        ok,
        f"{systems} random systems, {configurations} indicator configurations,"
        " replay and tag-grammar invariants all hold",
    )
    assert ok


def _disagreements(live: bool) -> tuple[list, list]:
    """Seeds among 0-999 where construction and search differ, EI and EIC."""
    ei_disagreements = []
    eic_disagreements = []
    for seed in range(1000):
        g = random_dfa(seed, live=live)
        if check_ei_enforceable(g).enforceable != oracle_ei_enforceable(g):
            ei_disagreements.append(seed)
        symbols = sorted(e.symbol for e in g.events)
        constraints = random_constraints(seed, symbols)
        constrained = check_eic_enforceable(g, constraints).enforceable
        if constrained != oracle_eic_enforceable(g, constraints):
            eic_disagreements.append(seed)
    return ei_disagreements, eic_disagreements


def _differential(criterion: str, live: bool, rerun: str) -> None:
    ei_disagreements, eic_disagreements = _disagreements(live)
    ok = not ei_disagreements and not eic_disagreements
    _report(
        criterion,
        ok,
        f"unconstrained {len(ei_disagreements)}/1000 disagreements"
        f" (first: {ei_disagreements[:4]}),"
        f" constrained {len(eic_disagreements)}/1000"
        f" (first: {eic_disagreements[:4]})",
    )
    if not ok:
        kind = "live" if live else "non-live"
        pytest.fail(
            "construction and bounded search disagree on"
            f" {len(ei_disagreements)}/1000 unconstrained and"
            f" {len(eic_disagreements)}/1000 constrained {kind} random systems"
            "; both decide the same greatest fixpoint, in which a halted run"
            f" reveals nothing further, so any disagreement is a bug.  {rerun}",
            pytrace=False,
        )


def test_criterion_7b():
    _differential(
        "7b", True, "Rerun a printed seed with `veiler oracle-check --seed N --count 1 --json`."
    )


def test_criterion_7b_non_live():
    # The same differential on systems that may halt: random_dfa without
    # the liveness requirement.  Pruning once decided these verdicts, and
    # 136 unconstrained and 59 constrained seeds disagreed.
    _differential(
        "7b (non-live)",
        False,
        "`oracle-check` draws live systems only; rerun a printed seed N in"
        " Python on `random_dfa(N)`.",
    )


def test_criterion_7c():
    graphs = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(1, 51)
        nodes = list(range(n))
        edges = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randrange(0, 3 * n))
        ]
        partition = strongly_connected_components(nodes, edges)
        assert sorted(x for c in partition.components for x in c) == nodes

        reach = {x: {x} for x in nodes}
        adjacency = {x: [] for x in nodes}
        for src, dst in edges:
            adjacency[src].append(dst)
        for x in nodes:
            frontier = [x]
            while frontier:
                y = frontier.pop()
                for z in adjacency[y]:
                    if z not in reach[x]:
                        reach[x].add(z)
                        frontier.append(z)
        for u, v in combinations(nodes, 2):
            together = partition.component_of[u] == partition.component_of[v]
            mutual = v in reach[u] and u in reach[v]
            assert together == mutual
        graphs += 1
    ok = graphs >= 200
    _report("7c", ok, f"{graphs} digraphs of up to 50 nodes agree with"
                      " the quadratic mutual-reachability oracle")
    assert ok


def test_criterion_7d():
    def closure(n, states, observable):
        reached = set(states)
        frontier = list(states)
        while frontier:
            x = frontier.pop()
            for label, targets in n.outgoing(x).items():
                if label.symbol in observable:
                    continue
                for y in targets:
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        return frozenset(reached)

    systems = 0
    observations = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = random_nfa(seed, n_states=2 + seed % 4)
        symbols = sorted(e.symbol for e in n.events)
        observable = frozenset(s for s in symbols if rng.random() < 0.7)
        observer = build_observer(n, observable)
        (root,) = observer.initial

        assert root.estimate == closure(n, n.initial, observable)
        frontier = [(root, closure(n, n.initial, observable), 0)]
        while frontier:
            obs_state, brute, depth = frontier.pop()
            observations += 1
            assert obs_state.estimate == brute
            if depth == 6:
                continue
            for sym in observable:
                moved = set()
                for x in brute:
                    moved |= n.step(x, sym)
                stepped = observer.step(obs_state, sym)
                if not moved:
                    assert stepped == frozenset()
                    continue
                (nxt,) = stepped
                frontier.append(
                    (nxt, closure(n, frozenset(moved), observable), depth + 1)
                )
        systems += 1
    ok = systems >= 200
    _report(
        "7d",
        ok,
        f"{systems} random partially observed systems,"
        f" {observations} observations of length <= 6 match brute force",
    )
    assert ok


def test_criterion_8(g1):
    round_trips = 0
    for seed in range(250):
        rng = random.Random(seed)
        for g in (random_dfa(seed), random_nfa(seed)):
            symbols = sorted(e.symbol for e in g.events)
            unobservable = frozenset(s for s in symbols if rng.random() < 0.2)
            doc = AutomatonDocument(f"m{seed}", g, unobservable)
            assert parse_document(emit_document(doc)) == doc
            round_trips += 1

    constraints = InsertionConstraints.of({"b", "c"}, {"a"})
    payload_runs = [
        (
            to_json(opacity_report("g1", check_current_state_opacity(g1, "abc"))),
            to_json(ei_report("g1", check_ei_enforceable(g1))),
            to_json(eic_report("g1", check_eic_enforceable(g1, constraints), constraints)),
        )
        for _ in range(3)
    ]
    identical = all(run == payload_runs[0] for run in payload_runs)
    ok = round_trips >= 500 and identical
    _report(
        "8",
        ok,
        f"{round_trips} parse/emit round trips, JSON reports byte-identical"
        f" across {len(payload_runs)} repeated runs={identical}",
    )
    assert ok
