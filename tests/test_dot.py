from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from veiler.cli import EXIT_NOT_ENFORCEABLE, cli_main
from veiler.constrained import (
    DecoratedState,
    Decoration,
    InsertionConstraints,
    check_eic_enforceable,
)
from veiler.dot import _FILLS, _ranked_digraph, emit_dot
from veiler.fsm import Automaton, sorted_labels, state_display
from veiler.insertion import (
    _count,
    build_indicator,
    build_insertion_automaton,
    check_ei_enforceable,
)
from veiler.oracle import random_dfa
from veiler.report import _verify_payload, ei_report, to_json
from veiler.textio import parse_document

DATA = Path(__file__).parent / "data"

# The flags of a row's code in ``_naive_rows``: the pair is in the verifier,
# or admissible; ``code >> 1 & 3`` is its staying type, 0 where it does not
# stay.  A code's fill: red for a staying pair, else green outside the
# verifier.
_IN_VERIFIER, _ADMISSIBLE = 1, 8
_FILL_OF_CODE = [1 if code >> 1 & 3 else 0 if code & 1 else 2 for code in range(16)]


class TestEmitDot:
    def test_every_state_and_transition_is_drawn(self, g1):
        text = emit_dot(g1, "g1")
        assert text.startswith('digraph "g1" {')
        assert text.endswith("}\n")
        node_lines = [
            line for line in text.splitlines()
            if line.startswith('  "') and "->" not in line
        ]
        assert len(node_lines) == len(g1.states)
        edge_lines = [line for line in text.splitlines() if "->" in line]
        # one start arrow plus one arrow per transition
        assert len(edge_lines) == 1 + len(g1.transitions)
        assert '  __start -> "0";' in edge_lines

    def test_inserted_events_are_dashed(self, g1):
        gf = build_insertion_automaton(g1)
        text = emit_dot(gf, "gf")
        dashed = [line for line in text.splitlines() if "style=dashed" in line]
        solid = [
            line for line in text.splitlines()
            if "->" in line and "style=dashed" not in line and "__start" not in line
        ]
        assert len(dashed) == sum(
            1 for (_, e) in gf.transitions if e.inserted
        )
        assert len(solid) == sum(
            1 for (_, e) in gf.transitions if not e.inserted
        )
        assert all('label="' in line for line in dashed)

    def test_highlight_fills(self, g1):
        eia = build_indicator(g1, build_insertion_automaton(g1))
        some = sorted(eia.states, key=str)[:3]
        text = emit_dot(eia, "eia", nonblocking=some[:2], pruned=some[1:])
        red = [line for line in text.splitlines() if "#e05a4e" in line]
        green = [line for line in text.splitlines() if "#66bb6a" in line]
        # the overlapping state is drawn red, not twice
        assert len(red) == 2
        assert len(green) == 1

    def test_highlights_may_reference_absent_states(self, g1):
        text = emit_dot(g1, "g1", pruned=[("ghost", "ghost")])
        assert "ghost" not in text

    def test_output_is_byte_deterministic(self, g1):
        eia = build_indicator(g1, build_insertion_automaton(g1))
        assert emit_dot(eia, "eia") == emit_dot(eia, "eia")
        # construction order must not leak into the text
        shuffled = Automaton(
            eia.states,
            eia.events,
            dict(reversed(list(eia.transitions.items()))),
            eia.initial,
            eia.secret,
        )
        assert emit_dot(shuffled, "eia") == emit_dot(eia, "eia")

    def test_quoting_protects_special_names(self):
        g = Automaton.dfa(['he "said"', "x\\y"], ["a"], {('he "said"', "a"): "x\\y"}, 'he "said"')
        text = emit_dot(g, 'quo"ted')
        assert 'digraph "quo\\"ted" {' in text
        assert '"he \\"said\\""' in text
        assert '"x\\\\y"' in text

    def test_a_system_with_no_events_draws_its_nodes(self, capsys, tmp_path):
        # No label to rank edges by: the file still holds every node and
        # the start arrow.
        text = emit_dot(Automaton.dfa([0], [], {}, 0))
        assert '  "0";\n  __start -> "0";\n}\n' in text
        path = tmp_path / "still.aut"
        path.write_text("automaton still\nevents\nstates 0 1\ninitial 0\nsecret 1\nend\n")
        dot = tmp_path / "still.dot"
        for command in ("verify-ei", "verify-eic"):
            assert cli_main([command, str(path), "--dot", str(dot)]) == EXIT_NOT_ENFORCEABLE
            assert dot.read_text().endswith(
                '  "(0,0)" [style=filled, fillcolor="#e05a4e"];\n  __start -> "(0,0)";\n}\n'
            )


def _naive_quote(text):
    """The reference for ``_quote``: one character at a time."""
    return '"' + "".join("\\" + c if c in '"\\' else c for c in text) + '"'


def _naive_digraph(name, rows, fills, initial, moves, labels):
    """The reference for ``emit_dot`` and ``_ranked_digraph``: node ranks in
    a dict, the nodes of each name drawn after sorting them by fill, and the
    edges of each source listed pair by pair through ``moves(x)``, as
    (label index, target) pairs, and sorted on their own."""
    lines = [f"digraph {_naive_quote(name)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append('  __start [shape=point, label=""];')
    width = len(labels) or 1
    quoted, groups, rank = [], [], {}
    last = None
    for text, x, code in rows:
        if text != last:
            last = text
            quoted.append(_naive_quote(text))
            groups.append([])
        rank[x] = (len(quoted) - 1) * width
        groups[-1].append((fills[code], x))
    for q, group in zip(quoted, groups):
        for fill, _ in sorted(group):
            lines.append(f"  {q}{_FILLS[fill]};")
    for r in sorted(rank[x] for x in initial):
        lines.append(f"  __start -> {quoted[r // width]};")
    label_rank = [0] * width
    attrs = []
    ranked = sorted((e.display(), e.inserted, j) for j, e in enumerate(labels))
    for r, (text, inserted, j) in enumerate(ranked):
        label_rank[j] = r
        attrs.append(f" [label={_naive_quote(text)}{', style=dashed' if inserted else ''}];")
    for q, group in zip(quoted, groups):
        keys = sorted(rank[t] + label_rank[j] for _, x in group for j, t in moves(x))
        for key in keys:
            lines.append(f"  {q} -> {quoted[key // width]}{attrs[key % width]}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _naive_emit_dot(a, name="g", nonblocking=(), pruned=()):
    """The reference for ``emit_dot``, drawn by ``_naive_digraph``."""
    labels = sorted_labels(a.events)
    index = {e: j for j, e in enumerate(labels)}
    states = list(a.states)
    ids = {x: i for i, x in enumerate(states)}
    rows = sorted(
        (state_display(x), i, 1 if x in nonblocking else 2 if x in pruned else 0)
        for i, x in enumerate(states)
    )

    def moves(i):
        return [(index[e], ids[y]) for e, ys in a.outgoing(states[i]).items() for y in ys]

    return _naive_digraph(name, rows, range(3), [ids[x] for x in a.initial], moves, labels)


def _naive_rows(report):
    """The nodes of a verify run's drawing, for ``_naive_digraph``: every
    reachable pair's object named, coded and sorted one pair at a time."""
    kernel = report.kernel
    n, width = kernel.n, kernel.width
    reachable, verifier, staying, admissible = (
        set(kernel.ids(masks))
        for masks in (
            report.reachable, report.verifier_masks,
            report.staying_masks, report.admissible_masks,
        )
    )
    rows = []
    for p in reachable:
        d, a = divmod(p, width)
        code = _IN_VERIFIER if p in verifier else 0
        if p in staying:
            code |= (1 if a < n else 2) << 1
        if p in admissible:
            code |= _ADMISSIBLE
        rows.append((kernel.pair(d, a).display(), p, code))
    return sorted(rows)


# Pieces of state names: DOT escapes, characters below the comma that
# order openings unlike names, non-ASCII, and what pair names escape.
FRAGMENTS = ['"', "\\", "{", "}", "é", "中", ",", "1_a", "1", "\x00", "s", "t"]


def _hostile(g, rng, fragments):
    """``g`` with its states named by joins of one to three of
    ``fragments``, drawn by ``rng``, no two alike."""
    texts = []
    while len(texts) < len(g.states):
        text = "".join(rng.choice(fragments) for _ in range(rng.randint(1, 3)))
        if text not in texts:
            texts.append(text)
    names = dict(zip(sorted(g.states), texts))
    return Automaton(
        frozenset(names.values()),
        g.events,
        {(names[x], e): frozenset(names[y] for y in ys) for (x, e), ys in g.transitions.items()},
        frozenset(names[x] for x in g.initial),
        frozenset(names[x] for x in g.secret),
    )

# Every subset of the events a, b and c.
SUBSETS = [frozenset(s for i, s in enumerate("abc") if mask >> i & 1) for mask in range(8)]


class TestTheNaiveRenderer:
    def _reports(self):
        for seed in range(256):
            g = random_dfa(
                seed,
                n_states=2 + seed % 13,
                trans_density=(0.2, 0.5, 0.8)[seed % 3],
                live=seed % 2 == 0 if seed < 128 else seed < 192,
            )
            if seed < 128:
                yield f"ei{seed}", check_ei_enforceable(g)
            else:
                # every (before, after) pair of subsets, live and halting
                c = InsertionConstraints(SUBSETS[seed % 8], SUBSETS[seed // 8 % 8])
                yield f"eic{seed}", check_eic_enforceable(g, c)
        # State names that hold what pair names escape.
        comma = parse_document((DATA / "comma.aut").read_text()).automaton
        yield "comma", check_ei_enforceable(comma)
        decorated = parse_document((DATA / "decorated.aut").read_text()).automaton
        yield "decorated", check_eic_enforceable(decorated, InsertionConstraints.of("a", "b"))

    def test_verify_draws_match_it(self):
        # The CLI's drawing gives the per-pair renderer's bytes, on EI and
        # EIC systems that prune and halt, and no two of its nodes share a
        # name.
        drawn = shared = 0
        for name, report in self._reports():
            rows = _naive_rows(report)
            kernel = report.kernel
            expected = _naive_digraph(
                name, rows, _FILL_OF_CODE, (kernel.start,), kernel.moves, kernel.edge_labels()
            )
            assert "".join(_ranked_digraph(name, report)) == expected, name
            drawn += 1
            shared += len({row[0] for row in rows}) < len(rows)
        assert drawn == 258 and shared == 0

    def _hostile_reports(self):
        """EI and EIC reports, live and halting, of systems whose state
        names are built from fragments that need escaping, sort below the
        comma, or hold what pair names escape."""
        for seed in range(128):
            rng = random.Random(seed)
            g = random_dfa(seed, n_states=2 + seed % 11, live=seed % 2 == 0)
            g = _hostile(g, rng, FRAGMENTS)
            name = f'h"{seed}\\{{'
            if seed // 2 % 2:
                c = InsertionConstraints(SUBSETS[seed % 8], SUBSETS[seed // 8 % 8])
                yield name, check_eic_enforceable(g, c)
            else:
                yield name, check_ei_enforceable(g)

    def test_the_cli_route_matches_it(self):
        # The CLI draws every indicator in name order from the masks, with
        # the per-pair renderer's bytes, also where state names hold what
        # pair names escape.
        ranked = collided = 0
        for name, report in itertools.chain(self._reports(), self._hostile_reports()):
            kernel = report.kernel
            rows = _naive_rows(report)
            text = "".join(_ranked_digraph(name, report))
            expected = _naive_digraph(
                name, rows, _FILL_OF_CODE, (kernel.start,), kernel.moves, kernel.edge_labels(),
            )
            assert text == expected, name
            collided += len({row[0] for row in rows}) < len(rows)
            ranked += 1
        assert ranked >= 200 and collided == 0

    def test_emit_dot_matches_it(self, g1):
        # Any automaton: nondeterministic, with several initial states, no
        # event or no state, and states whose names collide.
        ia = build_indicator(g1, build_insertion_automaton(g1))
        some = sorted(ia.states, key=str)
        nfa = Automaton(
            frozenset({0, 1, "1", "x y"}),
            ia.events,
            {(0, label): frozenset({1, "1"}) for label in ia.events}
            | {("1", label): frozenset({0, "x y", "1"}) for label in ia.events},
            frozenset({0, "1"}),
        )
        cases = [
            (g1, (), ()),
            (build_insertion_automaton(g1), (), ()),
            (ia, some[:5], some[3:9]),
            (nfa, (1,), ("1", 0)),
            (Automaton.dfa([0], [], {}, 0), (), ()),
            (Automaton(frozenset(), ia.events, {}, frozenset()), (), ()),
        ]
        for seed in range(40):
            g = random_dfa(seed, n_states=2 + seed % 9, live=seed % 2 == 0)
            cases.append((build_indicator(g, build_insertion_automaton(g)), (), ()))
        for a, nonblocking, pruned in cases:
            assert emit_dot(a, "x", nonblocking, pruned) == _naive_emit_dot(
                a, "x", set(nonblocking), set(pruned)
            )


class TestPairNames:
    # Pieces of state names: the fragments above, and the phase suffixes
    # and brackets that a pair name holds bare.
    PIECES = FRAGMENTS + ["_a", "_b", "_ab", "(", ")"]

    def _reports(self):
        """EI and EIC reports, live and halting, every (before, after)
        pair of alphabets, of systems named from ``PIECES``."""
        for seed in range(192):
            rng = random.Random(seed)
            g = random_dfa(
                seed,
                n_states=2 + seed % 9,
                trans_density=(0.2, 0.5, 0.8)[seed % 3],
                live=seed % 4 < 2,
            )
            g = _hostile(g, rng, self.PIECES)
            if seed % 3:
                c = InsertionConstraints(SUBSETS[seed % 8], SUBSETS[seed // 8 % 8])
                yield f"n{seed}", check_eic_enforceable(g, c), c
            else:
                yield f"n{seed}", check_ei_enforceable(g), None

    def test_no_two_pairs_share_a_name(self):
        for name, report, c in self._reports():
            kernel = report.kernel
            # The kernel's order sorts the names of all its pairs, which
            # are the pair objects' names, no two alike.
            dummies, actuals = kernel.name_order
            openings, closings = kernel.name_parts
            names = [kernel.pair(d, a).display() for d in dummies for a in actuals]
            assert names == [openings[d] + closings[a] for d in dummies for a in actuals], name
            assert names == sorted(set(names)), name
            # Each JSON list names each of its pairs once; the EIC staying
            # map has an entry per staying pair.
            text = to_json(_verify_payload(name, report, c))
            payload = dict(json.loads(text, object_pairs_hook=list))
            staying = payload["staying_nonblocking"]
            if c is not None:
                staying = [key for key, _ in staying]
            for listed, masks in (
                (staying, report.staying_masks),
                (payload["verifier_states"], report.verifier_masks),
                (payload["admissible"], report.admissible_masks),
            ):
                assert len(set(listed)) == len(listed) == _count(masks), name
            # The DOT file declares each reachable pair once.
            nodes = [
                line.split(" [")[0].rstrip(";")
                for line in "".join(_ranked_digraph(name, report)).splitlines()
                if line.startswith('  "') and " -> " not in line
            ]
            assert len(set(nodes)) == len(nodes) == _count(report.reachable), name

    def test_pair_objects_are_named_as_the_lists_name_them(self, per_pair_payload):
        # A state of g that is a decorated state, as the states of the EIC
        # insertion automaton are, keeps its phase bare where it is the
        # actual state of an EI pair, as its pair objects do.
        d = DecoratedState(1, Decoration.A)
        g = Automaton.dfa(
            [0, 1, d], ["a"], {(0, "a"): d, (d, "a"): 1, (1, "a"): 0}, 0, secret=[d]
        )
        report = check_ei_enforceable(g)
        expected = per_pair_payload("d", report)
        assert ei_report("d", report) == expected
        assert {"(0,1_a)", "(1\\_a,1_a)"} <= set(expected["verifier_states"])
