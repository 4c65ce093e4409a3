from __future__ import annotations

from veiler.cli import EXIT_NOT_ENFORCEABLE, cli_main
from veiler.dot import emit_dot
from veiler.fsm import Automaton
from veiler.insertion import build_indicator, build_insertion_automaton


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
