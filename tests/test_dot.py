from __future__ import annotations

import functools
from pathlib import Path

from veiler.cli import _FILL_OF_CODE, EXIT_NOT_ENFORCEABLE, cli_main
from veiler.constrained import InsertionConstraints, check_eic_enforceable
from veiler.dot import _FILLS, _digraph, _quote, emit_dot
from veiler.fsm import Automaton, sorted_labels, state_display
from veiler.insertion import (
    _ADMISSIBLE,
    _IN_VERIFIER,
    build_indicator,
    build_insertion_automaton,
    check_ei_enforceable,
)
from veiler.oracle import random_dfa
from veiler.textio import parse_document

DATA = Path(__file__).parent / "data"


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


def _naive_digraph(name, rows, fills, initial, moves, labels):
    """The reference for ``_digraph``: node ranks in a dict, the nodes of
    each name drawn after sorting them by fill, and the edges of each
    source listed pair by pair through ``moves(x)``, as (label index,
    target) pairs, and sorted on their own."""
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append('  __start [shape=point, label=""];')
    width = len(labels) or 1
    quoted, groups, rank = [], [], {}
    last = None
    for text, x, code in rows:
        if text != last:
            last = text
            quoted.append(_quote(text))
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
        attrs.append(f" [label={_quote(text)}{', style=dashed' if inserted else ''}];")
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
    """The reference for ``EnforcementReport.rows``: every reachable pair's
    object named, coded and sorted one pair at a time."""
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
        # Pairs that share a display name.
        comma = parse_document((DATA / "comma.aut").read_text()).automaton
        yield "comma", check_ei_enforceable(comma)
        decorated = parse_document((DATA / "decorated.aut").read_text()).automaton
        yield "decorated", check_eic_enforceable(decorated, InsertionConstraints.of("a", "b"))

    def test_verify_draws_match_it(self):
        # The kernel's edge keys and the one sort give the per-pair
        # renderer's bytes, on EI and EIC systems that prune, halt and
        # collide names.
        drawn = shared = 0
        for name, report in self._reports():
            rows = report.rows()
            assert rows == _naive_rows(report), name
            kernel = report.kernel
            labels = kernel.edge_labels()
            edges = functools.partial(kernel.edge_keys, report.reachable)
            text = _digraph(name, rows, _FILL_OF_CODE, (kernel.start,), labels, edges)
            expected = _naive_digraph(
                name, rows, _FILL_OF_CODE, (kernel.start,), kernel.moves, labels
            )
            assert text == expected, name
            drawn += 1
            shared += len({text for text, _, _ in rows}) < len(rows)
        assert drawn == 258 and shared >= 2

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
