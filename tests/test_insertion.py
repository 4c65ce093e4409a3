from __future__ import annotations

import json
import random
from collections import Counter
from itertools import product

import pytest
from digests import kernel_population as _kernel_population

import veiler.constrained
import veiler.insertion
from veiler.cli import cli_main
from veiler.constrained import InsertionConstraints, _EicKernel, check_eic_enforceable
from veiler.dot import emit_dot
from veiler.fsm import Automaton, EventLabel, Tag, as_label, state_display, word
from veiler.insertion import (
    IndicatorState,
    _PairKernel,
    _apply,
    _images,
    _tables,
    _trim,
    _union,
    admissible_states,
    build_indicator,
    build_insertion_automaton,
    build_verifier,
    check_ei_enforceable,
    find_staying_nonblocking,
    find_trapping_sccs,
    partition_subspaces,
)
from veiler.oracle import random_constraints, random_dfa
from veiler.report import ei_report, to_json
from veiler.textio import emit_automaton


def displays(states):
    return sorted(state_display(x) for x in states)


X_VSNB = [
    "(0,0)", "(1,1)", "(2,1)", "(2,2)", "(2,4)", "(3,1)", "(3,3)",
    "(3,5)", "(4,1)", "(4,2)", "(4,4)", "(5,1)", "(5,3)", "(5,5)",
]
X_VA = [
    "(0,0)", "(1,1)", "(4,1)", "(4,2)", "(4,4)", "(5,1)", "(5,3)", "(5,5)",
]


class TestInsertionAutomaton:
    def test_adds_inserted_self_loops_everywhere(self, g1):
        gf = build_insertion_automaton(g1)
        assert gf.states == g1.states
        for x in g1.states:
            for symbol in ("a", "b", "c"):
                (label,) = word(symbol + "_i")
                assert gf.step(x, label) == frozenset({x})

    def test_keeps_the_original_transitions(self, g1):
        gf = build_insertion_automaton(g1)
        for (x, label), targets in g1.transitions.items():
            assert gf.transitions[(x, label)] == targets

    def test_stays_deterministic(self, g1):
        assert build_insertion_automaton(g1).deterministic

    def test_rejects_nondeterministic_input(self):
        nondet = Automaton.nfa([0, 1], ["a"], {(0, "a"): [0, 1]}, [0])
        with pytest.raises(ValueError):
            build_insertion_automaton(nondet)


class TestIndicator:
    def test_g1_indicator_size_and_initial(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        assert len(ia.states) == 27
        (start,) = ia.initial
        assert start.dummy == 0 and start.actual == 0

    def test_solid_edges_move_both_components(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        (start,) = ia.initial
        (target,) = ia.step(start, as_label("b"))
        assert (target.dummy, target.actual) == (3, 3)

    def test_dashed_edges_move_only_the_dummy(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        (start,) = ia.initial
        (label,) = word("b_i")
        (target,) = ia.step(start, label)
        assert (target.dummy, target.actual) == (3, 0)

    def test_secret_pairs_have_secret_dummy(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        assert ia.secret == frozenset(
            pair for pair in ia.states if pair.dummy in g1.secret
        )

    def test_rejects_foreign_insertion_automaton(self, g1):
        other = Automaton.dfa([0], ["a"], {(0, "a"): 0}, 0)
        with pytest.raises(ValueError):
            build_indicator(g1, build_insertion_automaton(other))


class TestSubspacePartition:
    def test_first_level_groups_by_actual_component(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        p = partition_subspaces(ia)
        assert set(p.first_level) == g1.states
        for actual, members in p.first_level.items():
            assert members
            assert all(pair.actual == actual for pair in members)
        assert sum(len(m) for m in p.first_level.values()) == 27

    def test_second_level_partitions_each_subspace(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        p = partition_subspaces(ia)
        for (actual, _), component in p.second_level.items():
            assert component <= p.first_level[actual]
        for actual, members in p.first_level.items():
            covered = [
                c for (a, _), c in p.second_level.items() if a == actual
            ]
            assert frozenset().union(*covered) == members
            assert sum(len(c) for c in covered) == len(members)


class TestTrappingSccs:
    def test_g1_first_round_finds_both_trapped_cycles(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        trapping = find_trapping_sccs(ia, partition_subspaces(ia), g1)
        as_displays = {tuple(displays(c)) for c in trapping}
        assert as_displays == {
            ("(3,4)", "(5,4)"),
            ("(2,5)", "(4,5)"),
        }


class TestVerifier:
    def test_g1_verifier_keeps_nineteen_states(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        v = build_verifier(ia, g1)
        assert len(v.states) == 19
        assert v.states <= ia.states

    def test_pruning_needs_more_than_one_round(self, g1):
        # the first round removes four states, the fixpoint removes eight
        ia = build_indicator(g1, build_insertion_automaton(g1))
        first_round = frozenset().union(
            *find_trapping_sccs(ia, partition_subspaces(ia), g1)
        )
        v = build_verifier(ia, g1)
        pruned = ia.states - v.states
        assert first_round < pruned
        assert displays(pruned) == [
            "(2,3)", "(2,5)", "(3,2)", "(3,4)", "(4,3)", "(4,5)",
            "(5,2)", "(5,4)",
        ]

    def test_verifier_is_a_fixpoint(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        v = build_verifier(ia, g1)
        assert build_verifier(v, g1) == v

    def test_dead_branch_collapses_to_empty_verifier(self):
        # with no move at state 1 nothing is relayable anywhere
        g = Automaton.dfa([0, 1], ["a"], {(0, "a"): 1}, 0)
        ia = build_indicator(g, build_insertion_automaton(g))
        v = build_verifier(ia, g)
        assert v.states == frozenset()
        assert v.transitions == {}


class TestStayingNonblocking:
    def test_g1_matches_the_frozen_fourteen(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        v = build_verifier(ia, g1)
        snb = find_staying_nonblocking(v, g1)
        assert displays(snb) == X_VSNB

    def test_contained_in_the_verifier(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        v = build_verifier(ia, g1)
        assert find_staying_nonblocking(v, g1) <= v.states

    def test_matches_a_naive_greatest_fixpoint(self):
        # Re-test every pair until nothing falls: a pair stays while each
        # enabled event has a dashed walk and solid move onto a staying pair.
        def walk(v, pair):
            reached = {pair}
            frontier = [pair]
            while frontier:
                for label, (target,) in v.outgoing(frontier.pop()).items():
                    if label.inserted and target not in reached:
                        reached.add(target)
                        frontier.append(target)
            return reached

        for seed in range(150):
            g = random_dfa(seed, n_states=4 + seed % 4, live=True)
            v = build_verifier(build_indicator(g, build_insertion_automaton(g)), g)
            staying = set(v.states)
            changed = True
            while changed:
                changed = False
                for pair in sorted(staying, key=state_display):
                    reach = walk(v, pair)
                    if not all(
                        any(t in staying for q in reach for t in v.step(q, e))
                        for e in g.enabled_events(pair.actual)
                    ):
                        staying.discard(pair)
                        changed = True
            assert find_staying_nonblocking(v, g) == staying, seed


class TestAdmissible:
    def test_g1_matches_the_frozen_eight(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        v = build_verifier(ia, g1)
        snb = find_staying_nonblocking(v, g1)
        assert displays(admissible_states(v, snb, g1.secret)) == X_VA

    def test_drops_exactly_the_secret_dummies(self, g1):
        ia = build_indicator(g1, build_insertion_automaton(g1))
        v = build_verifier(ia, g1)
        snb = find_staying_nonblocking(v, g1)
        admissible = admissible_states(v, snb, g1.secret)
        assert admissible == frozenset(
            pair for pair in snb if pair.dummy not in g1.secret
        )


class TestCheckEiEnforceable:
    def test_g1_is_enforceable(self, g1):
        report = check_ei_enforceable(g1)
        assert report.enforceable
        assert report.uncovered_actual_states == frozenset()
        assert displays(report.staying_nonblocking) == X_VSNB
        assert displays(report.admissible) == X_VA

    def test_all_secret_system_is_not_enforceable(self):
        g = Automaton.dfa([0], ["a"], {(0, "a"): 0}, 0, secret=[0])
        report = check_ei_enforceable(g)
        assert not report.enforceable
        assert report.uncovered_actual_states == frozenset({0})

    def test_single_safe_state_is_enforceable(self):
        g = Automaton.dfa([0], ["a"], {(0, "a"): 0}, 0)
        assert check_ei_enforceable(g).enforceable

    def test_matches_the_staged_reference(self, staged_ei_report, capsys, tmp_path):
        # The decision runs on interned pair ids; the paper's stages, and a
        # product built pair by pair for the indicator, are the reference.
        def naive_indicator(g):
            (x0,) = g.initial
            start = IndicatorState(x0, x0)
            states, frontier, transitions = {start}, [start], {}
            while frontier:
                pair = frontier.pop()
                for e in g.outgoing(pair.dummy):
                    (dummy,) = g.step(pair.dummy, e)
                    moves = [(EventLabel(e.symbol, Tag.INSERTED), pair.actual)]
                    moves += [(e, act) for act in g.step(pair.actual, e)]
                    for label, act in moves:
                        target = IndicatorState(dummy, act)
                        transitions[(pair, label)] = frozenset({target})
                        if target not in states:
                            states.add(target)
                            frontier.append(target)
            events = g.events | {EventLabel(e.symbol, Tag.INSERTED) for e in g.events}
            secret = frozenset(p for p in states if p.dummy in g.secret)
            return Automaton(frozenset(states), events, transitions, frozenset({start}), secret)

        pruned = emptied = 0
        for seed in range(320):
            g = random_dfa(
                seed,
                n_states=2 + seed % 8,
                trans_density=(0.2, 0.5, 0.8)[seed % 3],
                live=seed % 16 < 8,
            )
            ia = build_indicator(g, build_insertion_automaton(g))
            assert ia == naive_indicator(g), seed
            expected = staged_ei_report(g)
            report = check_ei_enforceable(g)
            assert expected.of(report) == expected, seed
            # The CLI and ei_report render the same report, and the CLI
            # draws the same indicator and its pruned pairs, from the
            # decision's pair ids.
            name, path, dot = f"r{seed}", tmp_path / "g.aut", tmp_path / "g.dot"
            path.write_text(emit_automaton(g, name))
            code = cli_main(["verify-ei", str(path), "--json", "--dot", str(dot)])
            assert code == (0 if expected.enforceable else 3), seed
            out = capsys.readouterr().out
            assert out == to_json(expected.payload(name)), seed
            assert out == to_json(ei_report(name, report)), seed
            assert dot.read_text() == emit_dot(
                ia,
                name,
                nonblocking=expected.staying_nonblocking,
                pruned=ia.states - expected.verifier.states,
            ), seed
            pruned += expected.verifier.states != ia.states
            emptied += not expected.verifier.states
        # the sample must exercise pruning, down to the empty verifier
        assert pruned > 50 and emptied > 5


class TestImageTables:
    def test_a_lookup_is_the_union_of_the_rows_it_names(self):
        # Entries are filled on first lookup.  Row lists of 1 to 33 entries
        # end on a partial chunk; every value of each chunk is read, and
        # each mask twice, the second read a hit on what the first filled.
        rng = random.Random(27)
        for size in range(1, 34):
            rows = [rng.getrandbits(40) for _ in range(size)]
            tables = _tables(rows)
            masks = [0] + [rng.getrandbits(size) for _ in range(40)]
            for base in range(0, size, 8):
                masks += [value << base for value in range(1 << min(8, size - base))]
            for mask in masks:
                assert _apply(tables, mask) == _union(mask, rows), (size, mask)
                assert _apply(tables, mask) == _union(mask, rows), (size, mask)
            assert _images(_tables(rows), masks) == [_union(mask, rows) for mask in masks]

    def test_a_table_fills_only_what_is_read(self):
        tables = _tables([1 << i for i in range(20)])
        assert _apply(tables, 0b101 | 0b11 << 16) == 0b101 | 0b11 << 16
        _, chunks = tables
        filled = [[value for value, image in enumerate(chunk) if image is not None] for chunk in chunks]
        assert filled == [[0b101], [], [0b11]]


class TestForwardMasks:
    def test_the_masks_hold_the_search_and_the_staged_verifier(self, naive_indicator):
        # verify-ei reads the reachable pairs off per-state dummy bitmasks
        # and prunes the dashed components on them; the pair search and the
        # paper's staged pruning are the reference.
        outcomes = Counter()
        for seed in range(400):
            live = seed % 4 < 2
            g = random_dfa(
                seed,
                n_states=2 + seed % 10,
                trans_density=(0.2, 0.5, 0.8)[seed % 3],
                live=live,
            )
            report = check_ei_enforceable(g)
            kernel = report.kernel
            searched = kernel.search()
            assert kernel.ids(report.reachable) == sorted(searched), seed
            ia = build_indicator(g, build_insertion_automaton(g))
            assert ia == naive_indicator(g, build_insertion_automaton(g)), seed
            staged = build_verifier(ia, g).states
            pairs = kernel.objects(kernel.ids(report.verifier_masks)).values()
            assert frozenset(pairs) == staged, seed
            removed = staged != ia.states
            outcomes[live, removed] += 1
        # the sample holds both outcomes, in live and in halting systems
        assert min(outcomes[key] for key in product((True, False), repeat=2)) > 20


class TestPathInvariants:
    """Indicator paths project onto language members.

    Every path from the initial pair must satisfy two facts: the masked
    word runs the system into the dummy component, and the word with
    inserted events erased runs it into the actual component.  Checked for
    all paths by walking the product of the path and both runs.
    """

    def check(self, g):
        # deduplicate on the full product configuration: distinct paths
        # reaching the same configuration extend identically
        ia = build_indicator(g, build_insertion_automaton(g))
        (start,) = ia.initial
        x0 = next(iter(g.initial))
        seen = {(start, x0, x0)}
        frontier = list(seen)
        while frontier:
            pair, mask_state, actual_state = frontier.pop()
            assert pair.dummy == mask_state
            assert pair.actual == actual_state
            for label, targets in ia.outgoing(pair).items():
                (nxt,) = targets
                (mask_next,) = g.step(mask_state, label.as_actual())
                if label.inserted:
                    config = (nxt, mask_next, actual_state)
                else:
                    (actual_next,) = g.step(actual_state, label)
                    config = (nxt, mask_next, actual_next)
                if config not in seen:
                    seen.add(config)
                    frontier.append(config)

    def test_holds_on_g1(self, g1):
        self.check(g1)

    def test_holds_on_random_systems(self):
        for seed in range(8):
            self.check(random_dfa(seed, live=True))


def _one_step_relations(kernel):
    """The kernel's moves as relations on dummies, each insertion kind one
    event of its alphabet at a time, over all four phases: the naive
    reference for ``_EicKernel.relations``, whose kind rows are closed under
    the kind's alphabet and whose actual states are two classes of
    phases."""
    succ = [[1 << y if y >= 0 else 0 for y in column] for column in zip(*kernel.delta)]
    arcs = [[(e, y) for e, y in enumerate(row) if y >= 0] for row in kernel.delta]
    arcs = [moves[:] for moves in arcs * (kernel.width // kernel.n)]
    for i, (symbols, shift) in enumerate(kernel.kinds):
        targets = [{row[e] for e in symbols} - {-1} for row in kernel.delta]
        succ.append([sum(1 << y for y in ys) for ys in targets])
        for a, b in enumerate(shift):
            if b >= 0:
                arcs[a].append((kernel.k + i, b))
    return succ, arcs


def _closure_within(relations, start, kept):
    """The pairs of ``kept`` that ``start`` reaches through pairs of
    ``kept``, searched one pair at a time: the reference for the forward's
    resting pairs, for the phase masks derived from them and for reading
    the verifier off ``_trim`` alone."""
    succ, arcs = relations
    width = len(arcs)
    found = [0] * width
    d, a = divmod(start, width)
    if kept[a] >> d & 1:
        found[a] = 1 << d
    stack = [start] if found[a] else []
    while stack:
        d, a = divmod(stack.pop(), width)
        for r, t in arcs[a]:
            fresh = succ[r][d] & kept[t] & ~found[t]
            found[t] |= fresh
            stack += [y * width + t for y in range(len(succ[r])) if fresh >> y & 1]
    return found


def _condensed(kernel):
    """The moves of the unconstrained indicator's dashed components as
    relations on the SCCs of g, the dummies here: the component
    SCC_g(d) x {x} is the pair ``c*n + x`` for the SCC c of d.

    Relation e < k maps c to the SCCs of delta(d, e) for d in c, and
    relation k, insertion, to those one move leaves c for: a dashed move
    inside c is no escape.  Every system state x moves on (e, delta(x,
    e)) and (k, x).  The reference for EI's verifier, which trims over
    the relays instead.
    """
    k = kernel.k
    components, scc, _, _ = kernel._reach(range(k))
    succ = [[0] * len(components) for _ in range(k + 1)]
    escape = succ[k]
    arcs = []
    for x, row in enumerate(kernel.delta):
        c = scc[x]
        out = []
        for e, y in enumerate(row):
            if y >= 0:
                out.append((e, y))
                succ[e][c] |= 1 << scc[y]
                if scc[y] != c:
                    escape[c] |= 1 << scc[y]
        out.append((k, x))
        arcs.append(out)
    return succ, arcs


def _relay_game(kernel, relays):
    """The relay game re-testing each surviving SCC against every move at
    once: the reference for ``_PairKernel.relay_game``."""
    n, delta = kernel.n, kernel.delta
    masks = kernel._reach(kernel.before)[3]
    win = [(1 << n) - 1] * n
    alive = [range(len(masks))] * n
    queue = set(range(n))
    while queue:
        x = queue.pop()
        moves = [(relays[e], y) for e, y in enumerate(delta[x]) if y >= 0]
        kept = [c for c in alive[x] if all(row[c] & win[y] for row, y in moves)]
        if len(kept) < len(alive[x]):
            alive[x] = kept
            win[x] = sum(masks[c] for c in kept)
            queue |= {s for s, row in enumerate(delta) if x in row}
    return win


def _forward(kernel):
    """The kernel's forward from the start its decision uses: Reach(x0)
    for EI, AReach(x0) for EIC, or x0 alone when no move enters x0."""
    start = kernel._reach(kernel.after)[2][kernel.x0] if kernel.entered else 1 << kernel.x0
    return kernel.forward(start)


class TestKernelShortcuts:
    def test_the_shortcuts_keep_the_masks_of_the_naive_references(self):
        # The forward relays through the before-SCCs, the phase masks are
        # read off it in one pass, the EIC verifier is one trim over two
        # classes of phases with insertion kinds closed under their
        # alphabet, and the relay game filters one move at a time; each
        # gives the masks the longer route gives.
        outcomes = Counter()
        for seed, live, g, c in _kernel_population():
            ei, eic = check_ei_enforceable(g), check_eic_enforceable(g, c)
            for mode, report in (("EI", ei), ("EIC", eic)):
                kernel = report.kernel
                n = kernel.n
                one_step = _one_step_relations(kernel)
                # every pair kept: the closure one pair and one move at a time
                everything = [(1 << n) - 1] * kernel.width
                reachable = _closure_within(one_step, kernel.start, everything)
                # the resting pairs: plain, and under constraints after-phase
                resting = reachable[:n]
                if kernel.width > n:
                    resting = [p | a for p, a in zip(resting, reachable[n : 2 * n])]
                assert _forward(kernel) == resting, (mode, seed)
                outcomes[mode, live, "partial SCCs"] += any(
                    0 < mask & members != members
                    for mask in resting
                    for members in kernel._reach(kernel.before)[3]
                )
                kept = _trim(one_step, reachable)
                assert _closure_within(one_step, kernel.start, kept) == kept, (mode, seed)
                relays = kernel.relays
                game = _relay_game(kernel, relays)
                assert kernel.relay_game() == game, (mode, seed)
            assert eic.reachable == reachable and eic.verifier_masks == kept, seed
            outcomes["EIC", live, "pruned"] += kept != reachable
            outcomes["EIC", live, "emptied"] += not any(kept)
            # EI prunes its dashed components, on g's SCC condensation: the
            # trim over the relays keeps what the condensation's trim keeps
            kernel = ei.kernel
            components, scc, _, members = kernel._reach(range(kernel.k))
            firsts = sum(1 << group[0] for group in components)
            groups = [_union(mask & firsts, [1 << c for c in scc]) for mask in ei.reachable]
            condensed = _condensed(kernel)
            kept = _trim(condensed, groups)
            start = scc[kernel.x0] * kernel.n + kernel.x0
            assert _closure_within(condensed, start, kept) == kept, seed
            assert [_union(mask, members) for mask in kept] == ei.verifier_masks, seed
            outcomes["EI", live, "pruned"] += kept != groups
            outcomes["EI", live, "emptied"] += not any(kept)
        # both decisions prune, live or halting, and empty halting verifiers
        for key in product(("EI", "EIC"), (True, False), ["pruned"]):
            assert outcomes[key] > 20, key
        assert outcomes["EI", False, "emptied"] > 5 and outcomes["EIC", False, "emptied"] > 5
        # EI's resting pairs are unions of SCCs; many constrained ones hold
        # part of a before-SCC, which the forward relays all the same
        assert outcomes["EI", True, "partial SCCs"] == outcomes["EI", False, "partial SCCs"] == 0
        assert outcomes["EIC", True, "partial SCCs"] > 20 and outcomes["EIC", False, "partial SCCs"] > 20

    def test_the_memos_keep_the_masks_where_masks_repeat(self):
        # With one event insertable before an output and all three after,
        # the relays reach far, so many states relay one mask of new dummies
        # and many moves are tested against one win mask: the forward and
        # the game look each such mask up in their memos, and must give
        # the masks of the one-step closure and of the per-SCC game.
        population = [("a40", random_dfa(1, 40, live=True), "a")]
        population += [
            (f"{n}{'live' if live else 'halting'}", random_dfa(seed, n, live=live), "abc"[seed % 3])
            for seed, (n, live) in enumerate(product((40, 80), (True, False)))
        ]
        for name, g, before in population:
            kernel = check_eic_enforceable(g, InsertionConstraints.of(before, "abc")).kernel
            n = kernel.n
            everything = [(1 << n) - 1] * kernel.width
            reachable = _closure_within(_one_step_relations(kernel), kernel.start, everything)
            resting = [p | a for p, a in zip(reachable[:n], reachable[n : 2 * n])]
            assert _forward(kernel) == resting, name
            relays = kernel.relays
            game = kernel.relay_game()
            assert game == _relay_game(kernel, relays), name
            # the masks repeat: a quarter of the states or fewer hold distinct ones
            assert len(set(resting)) <= n // 4 and 1 < len(set(game)) <= n // 4, name
            if name == "a40":
                # every relay row is full or empty, and W takes 5 values
                assert {mask for row in relays for mask in row} == {0, (1 << n) - 1}
                assert len(set(game)) == 5

    def test_a_before_scc_entered_at_a_later_member_is_relayed(self):
        # 0 -a-> 1 -a-> 0 with a insertable before outputs only: the one
        # before-SCC is {0, 1}, and the start holds only the initial state.
        # Whichever member the SCC lists first, one of the two starts enters
        # it at another; a forward that relays an SCC by its first member
        # alone would leave the other state with no pair and refuse both.
        entered_late = 0
        for x0 in (0, 1):
            g = Automaton.dfa([0, 1], ["a"], {(0, "a"): 1, (1, "a"): 0}, x0)
            report = check_eic_enforceable(g, InsertionConstraints.of("a", ""))
            (members,) = report.kernel._reach(report.kernel.before)[0]
            entered_late += members[0] != x0
            assert report.enforceable, x0
            # plain and before-phase pairs (d, x) for every d and x, none after
            assert report.reachable == [3, 3, 0, 0, 3, 3, 0, 0], x0
        assert entered_late == 1


class TestOutputOnlyFields:
    def test_a_verdict_skips_the_verifier_trim(self, monkeypatch):
        # A verdict reads the forward's resting pairs only, so a report
        # builds the phase masks when reachable is first read and the
        # verifier when verifier_masks is, each once.  The kernel builds
        # EI's relays and EIC's relations once, on first read, however many
        # decisions and reports read them.
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(veiler.insertion, "_trim", counted("_trim", _trim))
        monkeypatch.setattr(veiler.constrained, "_trim", counted("_trim", _trim))
        for table in (_PairKernel.relays, _EicKernel.relations):
            monkeypatch.setattr(table, "func", counted(table.attrname, table.func))
        for seed, _, g, c in _kernel_population():
            calls.clear()
            ei = check_ei_enforceable(g)
            eic = check_eic_enforceable(g, c)
            for report in (ei, eic):
                assert report.enforceable == (not report.uncovered_actual_states), seed
            assert calls == {"relays": 2}, seed
            assert "kinds" not in vars(eic.kernel), seed
            for report in (ei, eic):
                assert not {"name_parts", "name_order"} & vars(report.kernel).keys(), seed
            first = eic.reachable
            assert eic.reachable is first, seed
            assert calls == {"relays": 2, "relations": 1}, seed
            first = ei.verifier_masks
            assert ei.verifier_masks is first, seed
            assert calls == {"relays": 2, "relations": 1, "_trim": 1}, seed
            first = eic.verifier_masks
            assert eic.verifier_masks is first, seed
            assert calls == {"relays": 2, "relations": 1, "_trim": 2}, seed
            # a second decision of each kernel builds neither table again
            for report in (ei, eic):
                again = report.kernel.decide()
                assert again.reachable == report.reachable, seed
                assert again.verifier_masks == report.verifier_masks, seed
            assert calls == {"relays": 2, "relations": 1, "_trim": 4}, seed
            # the reference: each decision's pruning called directly, EI's
            # on the condensation that its trim over the relays replaces
            kernel = ei.kernel
            components, scc, _, members = kernel._reach(range(kernel.k))
            firsts = sum(1 << group[0] for group in components)
            groups = [_union(mask & firsts, [1 << i for i in scc]) for mask in ei.reachable]
            pruned = _trim(_condensed(kernel), groups)
            assert ei.verifier_masks == [_union(mask, members) for mask in pruned], seed
            assert eic.verifier_masks == _trim(_one_step_relations(eic.kernel), eic.reachable), seed

    def test_a_report_equals_only_itself(self, g1):
        # Unlike the records that are never states, a report is no named
        # tuple: two decisions of one system are two reports.
        ei, again = check_ei_enforceable(g1), check_ei_enforceable(g1)
        assert ei == ei and ei != again and again.reachable == ei.reachable
        eic = check_eic_enforceable(g1, InsertionConstraints.of("bc", "a"))
        assert eic != check_eic_enforceable(g1, InsertionConstraints.of("bc", "a"))
        assert ei != (ei.enforceable, ei.uncovered_actual_states)

    @pytest.mark.parametrize("constrained", [False, True], ids=["EI", "EIC"])
    def test_two_reports_of_one_kernel_prune_apart(self, constrained):
        # The kernel holds the relays and relations, and its reports share
        # them: two decisions of one kernel, read interleaved, still give a
        # fresh decision's pairs.  random_dfa(3, 6, live=True) under
        # random_constraints(3, "abc") is where the second report once
        # raised a KeyError, when the kernel handed its relations to one.
        fields = ("enforceable", "uncovered_actual_states", "staying_masks",
                  "admissible_masks", "unreachable_actual_states")
        for seed in range(3, 43):
            g = random_dfa(seed, n_states=3 + seed % 10, live=seed % 2 == 1)
            if constrained:
                c = random_constraints(seed, "abc")
                kernel, fresh = _EicKernel(g, c), check_eic_enforceable(g, c)
            else:
                kernel, fresh = _PairKernel(g), check_ei_enforceable(g)
            r1, r2 = kernel.decide(), kernel.decide()
            read = [r1.reachable, r2.reachable, r1.verifier_masks, r2.verifier_masks]
            assert read == [fresh.reachable] * 2 + [fresh.verifier_masks] * 2, seed
            for report in (r1, r2):
                for field in fields:
                    assert getattr(report, field) == getattr(fresh, field), (seed, field)


def _with_an_unreachable_part(seed: int, live: bool) -> Automaton:
    """``random_dfa(seed)`` and a second seeded system on the states 100
    and up, which no move of the first enters; about a third of the second
    system's moves lead into the first instead."""
    rng = random.Random(seed)
    g = random_dfa(seed, n_states=1 + seed % 8, trans_density=(0.2, 0.5, 0.8)[seed % 3], live=live)
    h = random_dfa(seed + 10_000, n_states=1 + seed % 5, trans_density=0.5, live=live)
    transitions = dict(g.transitions)
    for (x, e), (y,) in h.transitions.items():
        target = rng.choice(sorted(g.states)) if rng.random() < 0.3 else 100 + y
        transitions[(100 + x, e)] = frozenset({target})
    return Automaton(
        g.states | {100 + x for x in h.states},
        g.events | h.events,
        transitions,
        g.initial,
        g.secret | {100 + x for x in h.secret},
    )


class TestUnreachableActualStates:
    def test_an_unreachable_state_is_never_covered(self):
        # The verdict quantifies over every state of g: one that x0 cannot
        # reach has no pair, so it is uncovered and g is not enforceable.
        for seed in range(160):
            g = _with_an_unreachable_part(seed, live=seed % 2 == 0)
            unreachable = g.states - g.accessible_part().states
            c = InsertionConstraints.of("abc", "abc")
            for report in (check_ei_enforceable(g), check_eic_enforceable(g, c)):
                assert unreachable and unreachable <= report.uncovered_actual_states, seed
                assert not report.enforceable, seed

    def test_they_are_the_states_outside_the_accessible_part(self, capsys, tmp_path):
        # Every state of the second system is unreachable, with moves of its
        # own, moves into the reachable part, or (halting) none; EI and EIC
        # report the states fsm's accessible part leaves out, and so does
        # the CLI's --json.
        subsets = ["", "a", "b", "c", "a,b", "a,c", "b,c", "a,b,c"]
        seen = Counter()
        for seed in range(160):
            live = seed % 2 == 0
            g = _with_an_unreachable_part(seed, live)
            expected = g.states - g.accessible_part().states
            before, after = subsets[seed % 8], subsets[seed // 8 % 8]
            c = InsertionConstraints.of(filter(None, before.split(",")), filter(None, after.split(",")))
            path = tmp_path / "g.aut"
            path.write_text(emit_automaton(g, f"u{seed}"))
            for report, argv in (
                (check_ei_enforceable(g), ["verify-ei"]),
                (check_eic_enforceable(g, c), ["verify-eic", "--insert-before", before, "--insert-after", after]),
            ):
                assert report.unreachable_actual_states == expected, (seed, argv[0])
                assert cli_main(argv + [str(path), "--json"]) in (0, 3), seed
                printed = json.loads(capsys.readouterr().out)["unreachable_actual_states"]
                assert printed == displays(expected), (seed, argv[0])
            seen[live, "unreachable"] += bool(expected)
            seen[live, "into the reachable part"] += any(
                x in expected and y not in expected for (x, _), (y,) in g.transitions.items()
            )
            seen[live, "halted"] += any(not g.enabled_events(x) for x in expected)
        for live in (True, False):
            assert seen[live, "unreachable"] == 80 and seen[live, "into the reachable part"] > 30, live
        assert seen[True, "halted"] == 0 and seen[False, "halted"] > 10
