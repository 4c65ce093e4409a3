from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from textwrap import dedent

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_imports import SOURCES, _private_definitions

import veiler.insertion
from veiler import fsm, observer
from veiler.cli import (
    EXIT_DISAGREE,
    EXIT_ERROR,
    EXIT_NOT_ENFORCEABLE,
    EXIT_NOT_OPAQUE,
    EXIT_OK,
    _build_parser,
    cli_main,
)
from veiler.constrained import (
    DecoratedState,
    InsertionConstraints,
    _EicKernel,
    build_eic_indicator,
    build_eic_insertion_automaton,
    check_eic_enforceable,
)
from veiler.dot import emit_dot
from veiler.fsm import Automaton, EventLabel, _tarjan
from veiler.insertion import (
    IndicatorState,
    _PairKernel,
    build_indicator,
    build_insertion_automaton,
    check_ei_enforceable,
)
from veiler.observer import check_current_state_opacity
from veiler.oracle import is_desirable_bounded, is_feasible, random_constraints, random_dfa
from veiler.report import ei_report, eic_report, to_json
from veiler.textio import ParseError, emit_automaton, parse_document

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
G1 = str(DATA / "g1.aut")
PARTIAL = str(DATA / "partial.aut")


def _count_constructions(monkeypatch, kernel: type) -> list:
    """A list that gains one entry each time ``kernel`` is constructed."""
    built = []
    init = kernel.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernel, "__init__", counted)
    return built


@pytest.fixture
def hidden_doc(tmp_path) -> str:
    path = tmp_path / "hidden.aut"
    path.write_text(
        dedent(
            """\
            automaton h
            events a u
            unobservable u
            states 0 1
            initial 0
            trans 0 u 1
            trans 1 a 1
            end
            """
        )
    )
    return str(path)


@pytest.fixture
def secretless_doc(tmp_path) -> str:
    path = tmp_path / "plain.aut"
    path.write_text(
        dedent(
            """\
            automaton plain
            events a
            states 0 1
            initial 0
            trans 0 a 1
            end
            """
        )
    )
    return str(path)


@pytest.fixture
def all_secret_doc(tmp_path) -> str:
    path = tmp_path / "allsecret.aut"
    path.write_text(
        dedent(
            """\
            automaton allsecret
            events a
            states 0
            initial 0
            secret 0
            trans 0 a 0
            end
            """
        )
    )
    return str(path)


class TestCheckOpacity:
    def test_the_running_example_is_not_opaque(self, capsys):
        assert cli_main(["check-opacity", G1]) == EXIT_NOT_OPAQUE
        out = capsys.readouterr().out
        assert "automaton g1: not opaque" in out
        assert "witness observation: b" in out
        assert "violating estimates: {2} {3}" in out

    def test_a_system_without_secrets_is_opaque(self, capsys, secretless_doc):
        assert cli_main(["check-opacity", secretless_doc]) == EXIT_OK
        assert "opaque" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert cli_main(["check-opacity", G1, "--json"]) == EXIT_NOT_OPAQUE
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "veiler"
        assert payload["command"] == "check-opacity"
        assert payload["automaton"] == "g1"
        assert payload["opaque"] is False
        assert payload["witness_observation"] == ["b"]
        assert payload["violating_estimates"] == ["{2}", "{3}"]

    @pytest.mark.parametrize(
        "flags, golden",
        [
            ([], "partial-opacity.txt"),
            (["--json"], "partial-opacity.json"),
            ([], "observed-opacity.txt"),
            (["--json"], "observed-opacity.json"),
        ],
    )
    def test_output_matches_the_golden_file(self, capsys, flags, golden):
        # partial.aut: a partially observed system; the witness b a a passes
        # through unobservable moves, and three violating estimates hold
        # several states.  observed.aut: a fully observed 60-state DFA, the
        # benchmark's large inputs in small; every estimate is one state,
        # 18 of them violate, and the witness is a a b.
        path = str(DATA / (golden.split("-")[0] + ".aut"))
        assert cli_main(["check-opacity", path, *flags]) == EXIT_NOT_OPAQUE
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    def test_a_system_without_initial_states_is_opaque(self, capsys, tmp_path):
        # Its only estimate is empty, and an empty estimate reveals nothing.
        path = tmp_path / "nostart.aut"
        path.write_text(
            "automaton nostart\nevents a\nstates 0 1\ninitial\nsecret 0 1\ntrans 0 a 1\nend\n"
        )
        assert cli_main(["check-opacity", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "automaton nostart: opaque\n"
        assert cli_main(["check-opacity", str(path), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["opaque"] is True
        assert payload["violating_estimates"] == []
        assert payload["witness_observation"] is None


class TestVerifyEi:
    def test_the_running_example_is_enforceable(self, capsys):
        assert cli_main(["verify-ei", G1]) == EXIT_OK
        out = capsys.readouterr().out
        assert "automaton g1: enforceable=true" in out
        assert "verifier states: 19" in out
        assert "staying-nonblocking pairs: 14" in out
        assert "admissible pairs: 8" in out

    def test_an_unenforceable_system_names_the_uncovered_states(
        self, capsys, all_secret_doc
    ):
        assert cli_main(["verify-ei", all_secret_doc]) == EXIT_NOT_ENFORCEABLE
        out = capsys.readouterr().out
        assert "enforceable=false" in out
        assert "uncovered actual states: 0" in out

    def test_partially_observed_systems_are_rejected(self, capsys, hidden_doc):
        assert cli_main(["verify-ei", hidden_doc]) == EXIT_ERROR
        assert "unobservable" in capsys.readouterr().err

    def test_dot_output_is_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "indicator.dot"
        assert cli_main(["verify-ei", G1, "--dot", str(target)]) == EXIT_OK
        text = target.read_text()
        assert text.startswith('digraph "g1" {')
        assert "style=dashed" in text
        assert "#e05a4e" in text and "#66bb6a" in text
        assert [p.name for p in tmp_path.iterdir()] == ["indicator.dot"]

    def test_json_report(self, capsys):
        assert cli_main(["verify-ei", G1, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["enforceable"] is True
        assert len(payload["verifier_states"]) == 19
        assert len(payload["staying_nonblocking"]) == 14
        assert len(payload["admissible"]) == 8
        assert payload["uncovered_actual_states"] == []
        assert payload["unreachable_actual_states"] == []

    def test_output_matches_the_staged_reference(self, capsys, tmp_path, staged_ei_report):
        paths = [Path(G1)]
        for seed in range(20):
            path = tmp_path / f"r{seed}.aut"
            g = random_dfa(seed, n_states=3 + seed % 6, live=seed % 2 == 0)
            path.write_text(emit_automaton(g, f"r{seed}"))
            paths.append(path)
        for path in paths:
            doc = parse_document(path.read_text())
            g = doc.automaton
            expected = staged_ei_report(g)
            indicator = build_indicator(g, build_insertion_automaton(g))
            dot = tmp_path / "out.dot"
            code = cli_main(["verify-ei", str(path), "--json", "--dot", str(dot)])
            assert code == (EXIT_OK if expected.enforceable else EXIT_NOT_ENFORCEABLE)
            assert capsys.readouterr().out == to_json(expected.payload(doc.name))
            assert dot.read_text() == emit_dot(
                indicator,
                doc.name,
                nonblocking=expected.staying_nonblocking,
                pruned=indicator.states - expected.verifier.states,
            )

    def test_dot_matches_the_golden_file(self, capsys, tmp_path):
        # g1-ei.dot is saved output of an earlier emit_dot, so the expected
        # text does not come from the code under test.
        dot = tmp_path / "out.dot"
        assert cli_main(["verify-ei", G1, "--dot", str(dot)]) == EXIT_OK
        assert dot.read_bytes() == (DATA / "g1-ei.dot").read_bytes()

    def test_dot_comes_from_the_same_kernel_run(self, capsys, monkeypatch, tmp_path):
        built = _count_constructions(monkeypatch, _PairKernel)
        assert cli_main(["verify-ei", G1, "--dot", str(tmp_path / "out.dot")]) == EXIT_OK
        assert len(built) == 1

    def test_a_halted_run_reveals_nothing_further(self, capsys, tmp_path, secretless_doc):
        # 0 -a-> 1, then silence.  Pruning empties the paper's verifier, but
        # (0,0) and (1,1) stay, and the JSON report and DOT name them.
        assert cli_main(["verify-ei", secretless_doc]) == EXIT_OK
        assert capsys.readouterr().out == (
            "automaton plain: enforceable=true\n"
            "verifier states: 0\n"
            "staying-nonblocking pairs: 2\n"
            "admissible pairs: 2\n"
        )
        dot = tmp_path / "out.dot"
        assert cli_main(["verify-ei", secretless_doc, "--json", "--dot", str(dot)]) == EXIT_OK
        out = capsys.readouterr().out
        g = parse_document(Path(secretless_doc).read_text()).automaton
        assert out == to_json(ei_report("plain", check_ei_enforceable(g)))
        payload = json.loads(out)
        assert payload["staying_nonblocking"] == payload["admissible"] == ["(0,0)", "(1,1)"]
        assert payload["verifier_states"] == []
        # Every pair was pruned; red wins over green.
        text = dot.read_text()
        assert '"(0,0)" [style=filled, fillcolor="#e05a4e"];' in text
        assert '"(1,1)" [style=filled, fillcolor="#e05a4e"];' in text
        assert '"(1,0)" [style=filled, fillcolor="#66bb6a"];' in text

    @pytest.mark.parametrize(
        "live, lines",
        [
            (True, ["automaton pin: enforceable=true", "verifier states: 94640",
                    "staying-nonblocking pairs: 94640", "admissible pairs: 65166"]),
            (False, ["automaton pin: enforceable=true", "verifier states: 82439",
                     "staying-nonblocking pairs: 88535", "admissible pairs: 63762"]),
        ],
        ids=["live", "halting"],
    )
    def test_the_counts_at_320_states_are_pinned(self, capsys, tmp_path, live, lines):
        # a system far past the random tests' 14 states, live and halting;
        # the halting one's verifier prunes staying pairs too
        path = tmp_path / "pin.aut"
        g = random_dfa(1, 320, n_events=3, trans_density=0.5, live=live)
        path.write_text(emit_automaton(g, "pin"))
        assert cli_main(["verify-ei", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == lines


class TestVerifyEic:
    def test_split_alphabets_keep_the_example_enforceable(self, capsys):
        code = cli_main(
            ["verify-eic", G1, "--insert-before", "b,c", "--insert-after", "a"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "enforceable=true" in out
        assert "insertable before: b c" in out
        assert "insertable after: a" in out
        assert "verifier states: 17" in out

    def test_before_only_insertion_fails_on_the_secret_cycle(self, capsys):
        code = cli_main(
            ["verify-eic", G1, "--insert-before", "a,b,c", "--insert-after", ""]
        )
        assert code == EXIT_NOT_ENFORCEABLE
        out = capsys.readouterr().out
        assert "insertable after: (none)" in out
        assert "uncovered actual states: 2 3" in out

    @pytest.mark.parametrize("spaced", ["b, c", " b ,c ", "b,,c, "])
    @pytest.mark.parametrize("command", [[], ["oracle-check", "--eic", "--count", "3"]])
    def test_whitespace_around_an_event_is_ignored(self, capsys, command, spaced):
        # verify-eic and oracle-check --eic read the flags alike
        argv = command or ["verify-eic", G1, "--json"]
        outputs = []
        for before, after in (("b,c", "a"), (spaced, " a ,")):
            code = cli_main(argv + ["--insert-before", before, "--insert-after", after])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == EXIT_OK and not outputs[0][2]

    @pytest.mark.parametrize(
        "live, lines",
        [
            (True, ["automaton pin: enforceable=true", "verifier states: 237928",
                    "staying-nonblocking pairs: 107695", "admissible pairs: 71860"]),
            (False, ["automaton pin: enforceable=false", "verifier states: 214918",
                     "staying-nonblocking pairs: 100723", "admissible pairs: 72406",
                     "uncovered actual states: 0"]),
        ],
        ids=["live", "halting"],
    )
    def test_the_counts_at_320_states_are_pinned(self, capsys, tmp_path, live, lines):
        # a system far past the random tests' 14 states, live and halting
        path = tmp_path / "pin.aut"
        g = random_dfa(1, 320, n_events=3, trans_density=0.5, live=live)
        path.write_text(emit_automaton(g, "pin"))
        c = random_constraints(1, "abc")
        argv = ["verify-eic", str(path), "--insert-before", ",".join(sorted(c.before))]
        code = cli_main(argv + ["--insert-after", ",".join(sorted(c.after))])
        assert code == (EXIT_OK if live else EXIT_NOT_ENFORCEABLE)
        out = capsys.readouterr().out.splitlines()
        assert out == lines[:1] + ["insertable before: a", "insertable after: a b c"] + lines[1:]

    def test_constraint_symbols_must_belong_to_the_alphabet(self, capsys):
        assert cli_main(["verify-eic", G1, "--insert-before", "z"]) == EXIT_ERROR
        assert "outside the alphabet" in capsys.readouterr().err

    def test_stray_symbols_are_named_before_nondeterminism(self, capsys, tmp_path):
        # The constraints are checked once, by the decision, and first.
        path = tmp_path / "branching.aut"
        path.write_text(
            "automaton n\nevents a\nstates 0 1\ninitial 0\ntrans 0 a 0\ntrans 0 a 1\nend\n"
        )
        assert cli_main(["verify-eic", str(path), "--insert-before", "z"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: constraint symbols outside the alphabet: z\n"
        assert cli_main(["verify-eic", str(path), "--insert-before", "a"]) == EXIT_ERROR
        assert "requires a deterministic automaton" in capsys.readouterr().err

    def test_partially_observed_systems_are_rejected(self, capsys, hidden_doc):
        assert cli_main(["verify-eic", hidden_doc]) == EXIT_ERROR
        assert "unobservable" in capsys.readouterr().err

    def test_json_report(self, capsys):
        code = cli_main(
            [
                "verify-eic",
                G1,
                "--insert-before",
                "b,c",
                "--insert-after",
                "a",
                "--json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["insertable_before"] == ["b", "c"]
        assert payload["insertable_after"] == ["a"]
        assert payload["staying_nonblocking"]["(1,1_a)"] == 2
        assert payload["staying_nonblocking"]["(0,0)"] == 1
        assert len(payload["admissible"]) == 9

    def test_dot_output(self, tmp_path):
        target = tmp_path / "eic.dot"
        code = cli_main(
            [
                "verify-eic",
                G1,
                "--insert-before",
                "b,c",
                "--insert-after",
                "a",
                "--dot",
                str(target),
            ]
        )
        assert code == EXIT_OK
        assert target.read_text().startswith('digraph "g1" {')

    def test_output_matches_the_staged_reference(self, capsys, tmp_path, staged_eic_report):
        cases = [(Path(G1), InsertionConstraints.of({"b", "c"}, {"a"}))]
        for seed in range(20):
            path = tmp_path / f"r{seed}.aut"
            g = random_dfa(seed, n_states=3 + seed % 6, live=seed % 2 == 0)
            path.write_text(emit_automaton(g, f"r{seed}"))
            cases.append((path, random_constraints(seed, "abc")))
        for path, c in cases:
            doc = parse_document(path.read_text())
            g = doc.automaton
            expected = staged_eic_report(g, c)
            indicator = build_eic_indicator(g, build_eic_insertion_automaton(g, c))
            dot = tmp_path / "out.dot"
            code = cli_main(
                [
                    "verify-eic",
                    str(path),
                    "--insert-before",
                    ",".join(sorted(c.before)),
                    "--insert-after",
                    ",".join(sorted(c.after)),
                    "--json",
                    "--dot",
                    str(dot),
                ]
            )
            assert code == (EXIT_OK if expected.enforceable else EXIT_NOT_ENFORCEABLE)
            assert capsys.readouterr().out == to_json(expected.payload(doc.name, c))
            assert dot.read_text() == emit_dot(
                indicator,
                doc.name,
                nonblocking=expected.staying_nonblocking,
                pruned=indicator.states - expected.verifier.states,
            )

    def test_dot_matches_the_golden_file(self, capsys, tmp_path):
        # g1-eic.dot is saved output of an earlier emit_dot, so the expected
        # text does not come from the code under test.
        dot = tmp_path / "out.dot"
        argv = ["verify-eic", G1, "--insert-before", "b,c", "--insert-after", "a"]
        assert cli_main(argv + ["--dot", str(dot)]) == EXIT_OK
        assert dot.read_bytes() == (DATA / "g1-eic.dot").read_bytes()

    def test_dot_comes_from_the_same_kernel_run(self, capsys, monkeypatch, tmp_path):
        built = _count_constructions(monkeypatch, _EicKernel)
        argv = ["verify-eic", G1, "--insert-before", "b,c", "--insert-after", "a"]
        assert cli_main(argv + ["--dot", str(tmp_path / "out.dot")]) == EXIT_OK
        assert len(built) == 1

    def test_a_halted_run_reveals_nothing_further(self, capsys, tmp_path, secretless_doc):
        argv = ["verify-eic", secretless_doc, "--insert-before", "a"]
        assert cli_main(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            "automaton plain: enforceable=true\n"
            "insertable before: a\n"
            "insertable after: (none)\n"
            "verifier states: 0\n"
            "staying-nonblocking pairs: 2\n"
            "admissible pairs: 2\n"
        )
        dot = tmp_path / "out.dot"
        assert cli_main(argv + ["--json", "--dot", str(dot)]) == EXIT_OK
        out = capsys.readouterr().out
        g = parse_document(Path(secretless_doc).read_text()).automaton
        c = InsertionConstraints.of({"a"}, ())
        assert out == to_json(eic_report("plain", check_eic_enforceable(g, c), c))
        payload = json.loads(out)
        assert payload["staying_nonblocking"] == {"(0,0)": 1, "(1,1)": 1}
        assert payload["verifier_states"] == []
        text = dot.read_text()
        assert '"(0,0)" [style=filled, fillcolor="#e05a4e"];' in text
        assert '"(1,0_b)" [style=filled, fillcolor="#66bb6a"];' in text

    def test_an_omitted_constraint_flag_means_no_events(self, capsys):
        pairs = [
            ([], ["--insert-before", "", "--insert-after", ""]),
            (["--insert-before", "b,c"], ["--insert-before", "b,c", "--insert-after", ""]),
            (["--insert-after", "a"], ["--insert-before", "", "--insert-after", "a"]),
        ]
        for omitted, spelled in pairs:
            for flags in ([], ["--json"]):
                code = cli_main(["verify-eic", G1, *omitted, *flags])
                out = capsys.readouterr().out
                assert cli_main(["verify-eic", G1, *spelled, *flags]) == code
                assert capsys.readouterr().out == out
        assert cli_main(["verify-eic", G1]) == EXIT_NOT_ENFORCEABLE
        assert "insertable before: (none)" in capsys.readouterr().out


def _negated(decide):
    """The decider with its verdict flipped, so that every seed disagrees."""

    def decide_wrongly(*args):
        report = decide(*args)
        report.enforceable = not report.enforceable
        return report

    return decide_wrongly


class TestNameCollisions:
    # Without an escape two pairs would share a name: a state name holding
    # a comma, or a plain state named like a decorated one (1_a against 1
    # in its after-phase).  Inside a pair name a backslash goes before each
    # backslash, comma and underscore of a state name, so every pair has a
    # name of its own: (p\,q,r) is not (p,q\,r), nor (1,1\_a) (1,1_a).
    CASES = {
        "comma-ei": ["verify-ei", str(DATA / "comma.aut")],
        "decorated-eic": [
            "verify-eic", str(DATA / "decorated.aut"), "--insert-before", "a", "--insert-after", "b"
        ],
    }

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_shared_names_keep_the_saved_output(self, capsys, tmp_path, key):
        argv, saved = self.CASES[key], (DATA / f"{key}.json").read_text()
        dot = tmp_path / "out.dot"
        assert cli_main(argv + ["--json", "--dot", str(dot)]) == EXIT_OK
        assert capsys.readouterr().out == saved
        assert dot.read_bytes() == (DATA / f"{key}.dot").read_bytes()
        assert cli_main(argv + ["--json"]) == EXIT_OK
        assert capsys.readouterr().out == saved
        # The files declare each node once.
        nodes = re.findall(r'^  ("[^"]*")( \[[^\]]*\])?;$', dot.read_text(), re.M)
        names = [node for node, _ in nodes]
        assert len(set(names)) == len(names)

    def test_estimates_over_such_names_have_names_of_their_own(self, capsys, tmp_path):
        # Inside an estimate's name a backslash goes before each backslash
        # and comma of a state name: {a\,b} is the state a,b and {a,b} the
        # states a and b; {a\\\,b} is the state a\,b and {a\\,b} the states
        # a\ and b.  Unescaped, each pair would share one name.
        path = tmp_path / "escapes.aut"
        path.write_text(dedent(r"""
            automaton escapes
            events e f g h
            states s a,b a b a\,b a\
            initial s
            secret a,b a b a\,b a\
            trans s e a,b
            trans s f a
            trans s f b
            trans s g a\,b
            trans s h a\
            trans s h b
            end
        """).lstrip())
        names = ["{a,b}", r"{a\,b}", r"{a\\,b}", r"{a\\\,b}"]
        assert cli_main(["check-opacity", str(path)]) == EXIT_NOT_OPAQUE
        assert capsys.readouterr().out.splitlines()[-1] == "violating estimates: " + " ".join(names)
        assert cli_main(["check-opacity", str(path), "--json"]) == EXIT_NOT_OPAQUE
        assert json.loads(capsys.readouterr().out)["violating_estimates"] == names
        g = parse_document(path.read_text()).automaton
        verdict = check_current_state_opacity(g, g.events)
        assert sorted(x.display() for x in verdict.violating_estimates) == names
        assert cli_main(["check-opacity", str(DATA / "comma.aut")]) == EXIT_NOT_OPAQUE
        assert capsys.readouterr().out.splitlines()[-1] == r"violating estimates: {q\,r}"

    def test_the_library_report_names_them_alike(self):
        g = parse_document((DATA / "comma.aut").read_text()).automaton
        assert to_json(ei_report("comma", check_ei_enforceable(g))) == (
            DATA / "comma-ei.json"
        ).read_text()
        g = parse_document((DATA / "decorated.aut").read_text()).automaton
        c = InsertionConstraints.of({"a"}, {"b"})
        assert to_json(eic_report("decorated", check_eic_enforceable(g, c), c)) == (
            DATA / "decorated-eic.json"
        ).read_text()


class TestOracleCheck:
    def test_agreeing_seeds_exit_cleanly(self, capsys):
        assert cli_main(["oracle-check", "--seed", "0", "--count", "5"]) == EXIT_OK
        assert "5/5 agree" in capsys.readouterr().out

    def test_a_disagreeing_seed_is_reported(self, capsys, monkeypatch):
        # Seed 126 is one the construction and the search both refuse.
        monkeypatch.setattr("veiler.cli.check_ei_enforceable", _negated(check_ei_enforceable))
        code = cli_main(["oracle-check", "--seed", "126", "--count", "1"])
        assert code == EXIT_DISAGREE
        out = capsys.readouterr().out
        assert "<- disagree" in out
        assert "construction=true search=false" in out

    def test_constrained_disagreement(self, capsys, monkeypatch):
        monkeypatch.setattr("veiler.cli.check_eic_enforceable", _negated(check_eic_enforceable))
        code = cli_main(["oracle-check", "--eic", "--seed", "25", "--count", "1"])
        assert code == EXIT_DISAGREE

    def test_fixed_empty_constraints_agree(self, capsys):
        code = cli_main(
            [
                "oracle-check",
                "--eic",
                "--insert-before",
                "",
                "--insert-after",
                "",
                "--seed",
                "0",
                "--count",
                "3",
            ]
        )
        assert code == EXIT_OK

    def test_fixed_constraints_require_the_constrained_mode(self, capsys):
        code = cli_main(["oracle-check", "--insert-before", "a"])
        assert code == EXIT_ERROR
        assert "--eic" in capsys.readouterr().err

    def test_count_must_be_positive(self, capsys):
        assert cli_main(["oracle-check", "--count", "0"]) == EXIT_ERROR

    def test_json_report(self, capsys, monkeypatch):
        monkeypatch.setattr("veiler.cli.check_ei_enforceable", _negated(check_ei_enforceable))
        code = cli_main(["oracle-check", "--seed", "126", "--count", "1", "--json"])
        assert code == EXIT_DISAGREE
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is False
        assert payload["disagreements"] == [126]
        assert payload["trials"] == [
            {"seed": 126, "construction": True, "search": False, "agree": False}
        ]


class TestTopLevel:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert cli_main([]) == EXIT_ERROR

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert cli_main(["frobnicate"]) == EXIT_ERROR

    def test_missing_file(self, capsys):
        assert cli_main(["verify-ei", "/nonexistent/g.aut"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_reports_the_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.aut"
        bad.write_text("automaton g\nwhat\n")
        assert cli_main(["check-opacity", str(bad)]) == EXIT_ERROR
        assert "line 2" in capsys.readouterr().err

    def test_undecodable_input_reports_the_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.aut"
        bad.write_bytes(b"automaton g\r\nevents a\nstates 0 \xff1\ninitial 0\nend\n")
        for command in ("check-opacity", "verify-ei", "verify-eic"):
            assert cli_main([command, str(bad)]) == EXIT_ERROR
            assert capsys.readouterr() == (
                "", "error: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"
            )

    def test_a_byte_order_mark_is_skipped(self, capsys, tmp_path):
        plain = Path(G1).read_bytes()
        marked = tmp_path / "marked.aut"
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        for argv in (["check-opacity"], ["check-opacity", "--json"], ["verify-ei", "--json"],
                     ["verify-eic", "--insert-before", "a", "--json"]):
            expected = (cli_main([*argv, G1]), capsys.readouterr())
            assert (cli_main([*argv, str(marked)]), capsys.readouterr()) == expected, argv
        # The library's parser takes text, in which the mark is a character.
        with pytest.raises(ParseError, match=re.escape("line 1: unknown declaration '\\ufeff'")):
            parse_document("\ufeff" + plain.decode())

    def test_undecodable_input_after_a_byte_order_mark_reports_the_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.aut"
        bad.write_bytes(b"\xef\xbb\xbfautomaton g\nevents a\n\nstates 0 \xc31\ninitial 0\nend\n")
        assert cli_main(["check-opacity", str(bad)]) == EXIT_ERROR
        assert capsys.readouterr() == (
            "", "error: line 4: byte 0xc3 is not UTF-8 (invalid continuation byte)\n"
        )

    def test_dot_into_a_missing_directory_names_the_given_path(self, capsys, tmp_path):
        # Not the temporary file the DOT text is written to first.
        dot = str(tmp_path / "missing" / "x.dot")
        for argv in (
            ["verify-ei", G1, "--json", "--dot", dot],
            ["verify-eic", G1, "--insert-before", "a", "--dot", dot],
        ):
            assert cli_main(argv) == EXIT_ERROR
            assert capsys.readouterr() == (
                "", f"error: [Errno 2] No such file or directory: {dot!r}\n"
            )
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_a_new_dot_file_gets_the_mode_open_would_give(self, capsys, tmp_path, umask, mode):
        dot = tmp_path / "x.dot"
        old = os.umask(umask)
        try:
            assert cli_main(["verify-ei", G1, "--dot", str(dot)]) == EXIT_OK
        finally:
            os.umask(old)
        assert stat.S_IMODE(dot.stat().st_mode) == mode

    @pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
    def test_a_replaced_dot_file_keeps_its_mode(self, capsys, tmp_path):
        dot = tmp_path / "x.dot"
        dot.write_text("old\n")
        dot.chmod(0o604)
        assert cli_main(["verify-ei", G1, "--dot", str(dot)]) == EXIT_OK
        assert dot.read_bytes() == (DATA / "g1-ei.dot").read_bytes()
        assert stat.S_IMODE(dot.stat().st_mode) == 0o604

    @pytest.mark.skipif(os.name != "posix", reason="symbolic links are POSIX")
    def test_a_dot_path_through_a_symbolic_link_writes_its_target(self, capsys, tmp_path):
        # As open(path, "w") would: the links stay links, an existing target
        # gets the drawing and keeps its mode, and a dangling link's target
        # is made, each with no temporary file left beside it.
        out = tmp_path / "out"
        out.mkdir()
        old, new = out / "old.dot", out / "new.dot"
        old.write_text("old\n")
        old.chmod(0o604)
        (tmp_path / "to-old.dot").symlink_to(old)
        (tmp_path / "to-new.dot").symlink_to(Path("out") / "new.dot")
        for link in ("to-old.dot", "to-new.dot"):
            assert cli_main(["verify-ei", G1, "--dot", str(tmp_path / link)]) == EXIT_OK
            assert (tmp_path / link).is_symlink(), link
        for target in (old, new):
            assert target.read_bytes() == (DATA / "g1-ei.dot").read_bytes(), target
        assert stat.S_IMODE(old.stat().st_mode) == 0o604
        assert sorted(os.listdir(tmp_path)) == ["out", "to-new.dot", "to-old.dot"]
        assert sorted(os.listdir(out)) == ["new.dot", "old.dot"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="FIFOs are POSIX")
    def test_a_dot_path_naming_a_fifo_writes_into_it(self, capsys, tmp_path):
        # A FIFO is written in place, not replaced by a regular file.  The
        # reader is a daemon thread, so a run that never opens the FIFO
        # fails the test without holding the process open.
        fifo = tmp_path / "drawing"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert cli_main(["verify-ei", G1, "--dot", str(fifo)]) == EXIT_OK
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert received == [(DATA / "g1-ei.dot").read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["drawing"]

    def test_a_failure_while_the_dot_streams_changes_nothing(self, capsys, monkeypatch, tmp_path):
        # The drawing starts its edges after the header and the nodes are
        # written into the temporary file, by listing the edge labels, also
        # where state names hold what pair names escape (comma.aut).
        # Raising there leaves the old file as it was.
        dot = tmp_path / "x.dot"
        dot.write_bytes(b"old drawing\n")
        seen = []

        def fail(self, *args):
            seen.extend(path.name for path in tmp_path.iterdir())
            raise ValueError("no edges")

        for method, argv in (
            ("edge_labels", ["verify-ei", G1, "--json", "--dot", str(dot)]),
            ("edge_labels", ["verify-eic", G1, "--insert-before", "a", "--dot", str(dot)]),
            ("edge_labels", ["verify-ei", str(DATA / "comma.aut"), "--json", "--dot", str(dot)]),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(_PairKernel, method, fail)
                assert cli_main(argv) == EXIT_ERROR
            assert capsys.readouterr() == ("", "error: no edges\n")
            assert dot.read_bytes() == b"old drawing\n"
            assert os.listdir(tmp_path) == ["x.dot"]
        assert len([name for name in seen if name.startswith(".veiler-tmp-")]) == 3

    def test_an_empty_dot_path_is_an_error(self, capsys, monkeypatch, tmp_path):
        # As open("") fails: exit 1, no report, and no temporary file in the
        # working directory or beside it.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        for argv in (
            ["verify-ei", G1, "--json", "--dot", ""],
            ["verify-eic", G1, "--insert-before", "a", "--dot", ""],
        ):
            assert cli_main(argv) == EXIT_ERROR
            assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")
        assert os.listdir(work) == []
        assert os.listdir(tmp_path) == ["work"]

    def test_version_flag(self, capsys):
        assert cli_main(["--version"]) == EXIT_OK
        assert "veiler 0.1.0" in capsys.readouterr().out

    def test_the_parser_is_built_once_and_outlives_usage_errors(self, capsys):
        _build_parser.cache_clear()
        assert cli_main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out == "veiler 0.1.0\n"
        argv = ["verify-eic", G1, "--insert-before", "b,c", "--json"]
        expected = (cli_main(argv), capsys.readouterr())
        for bad in (
            ["verify-eic", G1, "--bogus"],
            ["verify-eic", G1, "--insert-before"],
            ["check-opacity"],
            ["oracle-check", "--count", "0"],
            ["frobnicate"],
        ):
            assert cli_main(bad) == EXIT_ERROR, bad
            assert "error:" in capsys.readouterr().err, bad
            assert (cli_main(argv), capsys.readouterr()) == expected, bad
        assert _build_parser.cache_info().misses == 1

    def test_console_script_output_is_byte_deterministic(self):
        command = [sys.executable, "-m", "veiler", "verify-eic", G1,
                   "--insert-before", "b,c", "--insert-after", "a", "--json"]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["enforceable"] is True

    def test_output_is_byte_identical_across_hash_seeds(self, tmp_path):
        # String state names hash differently in each process, so this pins
        # that every sort behind the report and the DOT file is total.
        named = tmp_path / "named.aut"
        named.write_text(
            dedent(
                """\
                automaton named
                events a b c
                states s0 s1 s2 t
                initial s0
                secret t
                trans s0 a s1
                trans s0 b t
                trans s1 a s2
                trans s1 c t
                trans s2 b s0
                trans t a s2
                trans t c t
                end
                """
            )
        )
        commands = {
            "g1-ei": ["verify-ei", G1],
            "g1-eic": ["verify-eic", G1, "--insert-before", "b,c", "--insert-after", "a"],
            "named-ei": ["verify-ei", str(named)],
            "named-eic": [
                "verify-eic", str(named), "--insert-before", "a,c", "--insert-after", "b"
            ],
        }
        for key, argv in commands.items():
            runs = []
            for seed in ("0", "1"):
                env = {**os.environ, "PYTHONHASHSEED": seed}
                dot = tmp_path / f"{key}-{seed}.dot"
                command = [sys.executable, "-m", "veiler", *argv, "--json", "--dot", str(dot)]
                done = subprocess.run(command, capture_output=True, env=env)
                runs.append((done.returncode, done.stdout, dot.read_bytes()))
            assert runs[0] == runs[1], key
            if key.startswith("g1"):
                assert runs[0][2] == (DATA / f"{key}.dot").read_bytes()

    def test_module_entry_point_matches_the_api(self, capsys):
        result = subprocess.run(
            [sys.executable, "-m", "veiler", "check-opacity", G1],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_NOT_OPAQUE
        assert cli_main(["check-opacity", G1]) == EXIT_NOT_OPAQUE
        assert result.stdout == capsys.readouterr().out


# The paper's stages, by module.  The kernels decide every verdict and draw
# every DOT file, so these serve only as the tests' reference.
STAGED = {
    "insertion": (
        "build_insertion_automaton", "build_indicator", "partition_subspaces",
        "find_trapping_sccs", "build_verifier", "find_staying_nonblocking",
    ),
    "constrained": (
        "build_eic_insertion_automaton", "build_eic_indicator", "find_eic_trapping_states",
        "build_eic_verifier", "find_staying_eic_nonblocking",
    ),
}


def _forbid(monkeypatch, original, forbidden) -> None:
    """Put ``forbidden`` in place of ``original`` under every name a veiler
    module holds it by."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "veiler"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, forbidden)


def _run_every_command(tmp_path) -> None:
    """The four commands on g1 and partial, with and without ``--json``,
    each verify command's DOT file equal to its golden."""
    dot = tmp_path / "ei.dot"
    assert cli_main(["verify-ei", G1, "--json", "--dot", str(dot)]) == EXIT_OK
    assert dot.read_bytes() == (DATA / "g1-ei.dot").read_bytes()
    dot = tmp_path / "eic.dot"
    argv = ["verify-eic", G1, "--insert-before", "b,c", "--insert-after", "a"]
    assert cli_main(argv + ["--dot", str(dot)]) == EXIT_OK
    assert dot.read_bytes() == (DATA / "g1-eic.dot").read_bytes()
    for mode in ([], ["--eic"]):
        assert cli_main(["oracle-check", *mode, "--seed", "0", "--count", "4"]) == EXIT_OK
    for path in (G1, PARTIAL):
        for mode in ([], ["--json"]):
            assert cli_main(["check-opacity", path, *mode]) == EXIT_NOT_OPAQUE


class TestDecisionPath:
    def test_no_command_calls_a_staged_stage(self, capsys, monkeypatch, tmp_path):
        def forbidden(*args, **kwargs):
            raise AssertionError("a staged stage ran on the decision path")

        for layer, names in STAGED.items():
            for name in names:
                original = getattr(importlib.import_module(f"veiler.{layer}"), name)
                _forbid(monkeypatch, original, forbidden)
        # The staged builders' drawing of the kernel's move table, which
        # the constrained kernel inherits.
        monkeypatch.setattr(_PairKernel, "insertion_automaton", forbidden)
        _run_every_command(tmp_path)

    def test_no_command_calls_a_library_only_path(self, capsys, monkeypatch, tmp_path):
        # emit_dot, the string-level checks and the automaton's move index
        # serve library callers only, and are written plainly, not for
        # speed: a command that calls one of them again must show on the
        # benchmark first.
        def forbidden(*args, **kwargs):
            raise AssertionError("a library-only path ran in a command")

        for original in (emit_dot, is_feasible, is_desirable_bounded):
            _forbid(monkeypatch, original, forbidden)
        for method in ("outgoing", "enabled_events", "accessible_part"):
            monkeypatch.setattr(Automaton, method, forbidden)
        _run_every_command(tmp_path)

    def test_no_command_builds_the_transition_table(self, capsys, monkeypatch, tmp_path):
        # Every command reads the per-label moves as the parser and
        # Automaton.dfa store them; the (state, label) table, derived from
        # them on first read, serves library callers only.
        def forbidden(automaton):
            raise AssertionError("a command derived the (state, label) table")

        monkeypatch.setattr(Automaton.transitions, "func", forbidden)
        _run_every_command(tmp_path)

    def test_the_verify_commands_build_no_pair_object(self, capsys, monkeypatch, tmp_path):
        # The CLI renders from pair ids: no pair or decorated state object,
        # and no automaton beyond the one the parser builds.
        objects = [
            _count_constructions(monkeypatch, kind)
            for kind in (IndicatorState, DecoratedState)
        ]
        automata = _count_constructions(monkeypatch, Automaton)
        parse_document(Path(G1).read_text())
        parsed = len(automata)
        eic = ["verify-eic", G1, "--insert-before", "b,c", "--insert-after", "a"]
        for argv in (
            ["verify-ei", G1, "--json"],
            ["verify-ei", G1, "--json", "--dot", str(tmp_path / "ei.dot")],
            eic + ["--json", "--dot", str(tmp_path / "eic.dot")],
        ):
            automata.clear()
            assert cli_main(argv) == EXIT_OK
            assert [len(built) for built in objects] == [0, 0], argv
            assert len(automata) <= parsed, argv
        # The library returns the same report: it and its JSON build
        # nothing either, until a pair field is read.  That read builds the
        # pair objects and the verifier automaton, once.
        g1 = parse_document(Path(G1).read_text()).automaton
        automata.clear()
        c = InsertionConstraints.of({"b", "c"}, {"a"})
        ei, eic = check_ei_enforceable(g1), check_eic_enforceable(g1, c)
        to_json(ei_report("g1", ei))
        to_json(eic_report("g1", eic, c))
        assert [len(built) for built in objects] == [0, 0] and automata == []
        verifier = ei.verifier
        assert ei.verifier is verifier
        assert objects[0] and not objects[1] and len(automata) == 1
        assert eic.verifier is eic.verifier
        assert all(objects) and len(automata) == 2

    def test_no_verify_command_searches_the_pairs(
        self, capsys, monkeypatch, tmp_path, secretless_doc
    ):
        # verify-ei and verify-eic decide on bitmasks and search no pair,
        # also when pruning removes pairs (every pair of 0 -a-> 1), and the
        # DOT file still draws the pruned pairs.
        searches = []
        search = _PairKernel.search

        def counted(kernel, *args, **kwargs):
            searches.append(kernel)
            return search(kernel, *args, **kwargs)

        monkeypatch.setattr(_PairKernel, "search", counted)
        dot = tmp_path / "out.dot"
        for path in (G1, secretless_doc):
            for argv in (
                ["verify-ei", path, "--json", "--dot", str(dot)],
                ["verify-eic", path, "--insert-before", "a", "--dot", str(dot)],
            ):
                assert cli_main(argv) in {EXIT_OK, EXIT_NOT_ENFORCEABLE}, argv
        assert searches == []
        assert "#66bb6a" in dot.read_text()

    def test_no_verify_command_draws_through_pair_moves(
        self, capsys, monkeypatch, tmp_path, secretless_doc
    ):
        # The DOT file's edges come from the kernel's tables one actual
        # state at a time, not from a move generator per pair.
        calls = []
        moves = _PairKernel.moves

        def counted(kernel, *args, **kwargs):
            calls.append(kernel)
            return moves(kernel, *args, **kwargs)

        monkeypatch.setattr(_PairKernel, "moves", counted)
        dot = tmp_path / "out.dot"
        for path in (G1, secretless_doc):
            for argv in (
                ["verify-ei", path, "--json", "--dot", str(dot)],
                ["verify-eic", path, "--insert-before", "a", "--dot", str(dot)],
            ):
                dot.unlink(missing_ok=True)
                assert cli_main(argv) in {EXIT_OK, EXIT_NOT_ENFORCEABLE}, argv
                assert " -> " in dot.read_text().replace("__start -> ", ""), argv
        assert calls == []
        # The counter does count: the library's search lists pair moves.
        g = parse_document(Path(G1).read_text()).automaton
        build_indicator(g, build_insertion_automaton(g))
        assert calls

    def test_the_ei_verdict_lists_no_pair_move(self, capsys, monkeypatch, tmp_path):
        # Decided, and pruned, without enumerating one move: a live system
        # with 404,505 reachable pairs and nothing to prune, and a halting
        # one whose pruning removes pairs.
        calls = []
        moves = _PairKernel.moves

        def counted(kernel, *args, **kwargs):
            calls.append(kernel)
            return moves(kernel, *args, **kwargs)

        monkeypatch.setattr(_PairKernel, "moves", counted)
        path = tmp_path / "big.aut"
        for live, counts in (
            (True, ["verifier states: 404505"]),
            (False, [
                "verifier states: 334093",
                "staying-nonblocking pairs: 369571",
                "admissible pairs: 261421",
            ]),
        ):
            g = random_dfa(1, 640, n_events=3, trans_density=0.5, live=live)
            path.write_text(emit_automaton(g, "big"))
            assert cli_main(["verify-ei", str(path)]) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            assert all(line in out for line in counts), out
        assert calls == []

    def test_the_eic_verdict_lists_no_pair_move(self, capsys, monkeypatch, tmp_path):
        # The constrained indicator of an n=160 system, reached and pruned
        # without searching a pair or enumerating one move.
        path = tmp_path / "big.aut"
        g = random_dfa(1, 160, n_events=3, live=True)
        c = random_constraints(1, "abc")
        path.write_text(emit_automaton(g, "big"))
        calls = []
        for name in ("search", "moves"):
            method = getattr(_PairKernel, name)

            def counted(kernel, *args, method=method, **kwargs):
                calls.append(method.__name__)
                return method(kernel, *args, **kwargs)

            monkeypatch.setattr(_PairKernel, name, counted)
        argv = ["verify-eic", str(path), "--insert-before", ",".join(sorted(c.before))]
        argv += ["--insert-after", ",".join(sorted(c.after))]
        assert cli_main(argv) == EXIT_NOT_ENFORCEABLE
        out = capsys.readouterr().out
        assert "verifier states: 61480\n" in out
        assert "staying-nonblocking pairs: 27279\n" in out
        assert "admissible pairs: 19623\n" in out
        assert calls == []

    def test_each_fact_about_g_is_read_once(self, capsys, monkeypatch, tmp_path):
        # A verify run with --json and --dot solves each distinct insertion
        # alphabet's SCCs once, and sorts the pair names and lists the solid
        # moves once, for the report and the drawing alike.
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(veiler.insertion, "_tarjan", counted("_tarjan", _tarjan))
        for table in (_PairKernel.name_order, _PairKernel.solid):
            monkeypatch.setattr(table, "func", counted(table.attrname, table.func))
        dot = tmp_path / "out.dot"
        eic = ["verify-eic", G1, "--json", "--dot", str(dot)]
        for argv, alphabets, golden in (
            (["verify-ei", G1, "--json", "--dot", str(dot)], 1, "g1-ei.dot"),
            (eic + ["--insert-before", "b,c", "--insert-after", "a"], 2, "g1-eic.dot"),
            (eic + ["--insert-before", "a", "--insert-after", "a"], 1, None),
            (eic, 1, None),
        ):
            calls.clear()
            assert cli_main(argv) in {EXIT_OK, EXIT_NOT_ENFORCEABLE}, argv
            assert calls == {"_tarjan": alphabets, "name_order": 1, "solid": 1}, argv
            if golden is not None:
                assert dot.read_bytes() == (DATA / golden).read_bytes(), argv

    def test_check_opacity_builds_no_observer(self, capsys, monkeypatch, tmp_path):
        # check-opacity decides and names on frozenset estimates: no observer
        # automaton, no automaton beyond the parsed one, and no ObserverState,
        # not even for a violating estimate (the 2000-state system has 630).
        def forbidden(*args, **kwargs):
            raise AssertionError("build_observer ran on the decision path")

        monkeypatch.setattr(observer, "build_observer", forbidden)
        estimates = _count_constructions(monkeypatch, observer.ObserverState)
        # The parsed automaton is built once, through either constructor, and
        # its table, checked line by line, is not walked again.
        built, validated = [], []
        init, checked, checked_moves = Automaton.__init__, Automaton._checked, fsm._checked_moves

        def counted_init(automaton, *args, **kwargs):
            built.append("__init__")
            init(automaton, *args, **kwargs)

        def counted_checked(cls, *args, **kwargs):
            built.append("_checked")
            return checked.__func__(cls, *args, **kwargs)

        def counted_checked_moves(*args):
            validated.append(args)
            return checked_moves(*args)

        monkeypatch.setattr(Automaton, "__init__", counted_init)
        monkeypatch.setattr(Automaton, "_checked", classmethod(counted_checked))
        monkeypatch.setattr(fsm, "_checked_moves", counted_checked_moves)
        big = tmp_path / "big.aut"
        big.write_text(emit_automaton(random_dfa(1, 2000, live=True), "big"))
        for path, violating in ((PARTIAL, 4), (str(big), 630)):
            estimates.clear()
            built.clear()
            validated.clear()
            assert cli_main(["check-opacity", path, "--json"]) == EXIT_NOT_OPAQUE
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["violating_estimates"]) == violating
            assert len(estimates) == 0
            assert len(built) == 1
            assert len(validated) == 0

    def test_parsing_makes_one_label_per_declared_event(self, monkeypatch):
        # 3 events and 1015 transitions: the table is keyed by the
        # declared events' own labels.
        g = random_dfa(1, 500, live=True)
        text = emit_automaton(g, "big")
        built = []
        new = EventLabel.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(EventLabel, "__new__", staticmethod(counted))
        a = parse_document(text).automaton
        assert len(a.transitions) == 1015 and len(a.events) == 3
        assert sorted(built) == [("a",), ("b",), ("c",)]
        assert a == g

    def test_every_traced_name_resolves(self, monkeypatch):
        # perfbench/run.py --trace 1 wraps these names by module; a rename or
        # move would make Tracer.install raise AttributeError.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(tracing)
        for layer, names in tracing.TARGETS.items():
            module = importlib.import_module(f"veiler.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"veiler.{layer}.{name}"
        for method in tracing.AUTOMATON_METHODS:
            assert callable(getattr(Automaton, method, None)), method


# The tokens of g1.aut with the whitespace between them, and the words a
# mutation may put in a token's place: the file's own, and ones the grammar
# or the analyses must refuse.
G1_TOKENS = re.split(r"(\s+)", Path(G1).read_text())
MUTANTS = sorted(
    {t for t in G1_TOKENS if not t.isspace()}
    | {"", "-1", "01", "²", "x", "#", "a_i", "end", "trans", "secret", "unobservable"}
)


class TestRobustness:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("replace", "repeat", "break")),
                st.integers(min_value=0),
                st.sampled_from(MUTANTS),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_a_mutated_file_fails_cleanly(self, tmp_path_factory, mutations):
        tokens = list(G1_TOKENS)
        for op, position, word in mutations:
            words = [i for i, t in enumerate(tokens) if t and not t.isspace()]
            i = words[position % len(words)]
            if op == "replace":
                tokens[i] = word
            elif op == "repeat":
                tokens[i] = f"{tokens[i]} {tokens[i]}"
            else:
                tokens[i] += "\n"
        path = tmp_path_factory.getbasetemp() / "mutated.aut"
        path.write_text("".join(tokens))
        dot = str(path.with_suffix(".dot"))
        eic = ["--insert-before", "b,c", "--insert-after", "a"]
        for argv in (
            ["check-opacity", str(path)],
            ["verify-ei", str(path), "--json", "--dot", dot],
            ["verify-eic", str(path), *eic],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            assert code in {EXIT_OK, EXIT_ERROR, EXIT_NOT_OPAQUE, EXIT_NOT_ENFORCEABLE}, argv
            assert "Traceback" not in err.getvalue(), argv


class TestReadme:
    def test_every_transcript_matches_the_cli(self, capsys, monkeypatch):
        # Each ```text block that opens with `$ veiler ...` is run from the
        # repository root; the rest of the block is its exact stdout.
        monkeypatch.chdir(ROOT)
        readme = (ROOT / "README.md").read_text()
        transcripts = re.findall(r"```text\n\$ (veiler [^\n]*)\n(.*?)```", readme, re.S)
        assert len(transcripts) == readme.count("\n$ veiler ") > 0
        for command, expected in transcripts:
            cli_main(shlex.split(command)[1:])
            assert capsys.readouterr().out == expected, command

    def test_every_named_test_exists_and_every_semantic_names_one(self):
        # A node is `tests/<file>.py::<class or function>[::<method>]`.
        readme = (ROOT / "README.md").read_text()
        named = re.findall(r"`(tests/\w+\.py(?:::\w+)+)`", readme)
        missing = []
        for node in named:
            path, *names = node.split("::")
            scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
            for name in names:
                found = [n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
                scope = next((n.body for n in found if n.name == name), None)
                if scope is None:
                    missing.append(node)
                    break
        assert named and not missing, f"no such test: {missing}"
        semantics = readme.split("\n## Semantics\n")[1].split("\n## ")[0]
        bullets = re.split(r"\n- ", semantics)[1:]
        unpinned = [b.split(".")[0] for b in bullets if "`tests/" not in b]
        assert bullets and not unpinned, f"Semantics bullets naming no test: {unpinned}"

    def test_names_no_private_definition_of_the_package(self):
        # Private module- and class-level names, found as test_imports finds
        # them; a pair name's phase suffixes _a, _b and _ab are not names.
        readme = (ROOT / "README.md").read_text()
        private = set()
        for path in SOURCES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
                private |= _private_definitions(scope).keys()
        named = [name for name in private if re.search(rf"(?<!\w){re.escape(name)}\b", readme)]
        assert not named, f"README names private definitions: {sorted(named)}"
