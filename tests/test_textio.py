from __future__ import annotations

import re
from pathlib import Path
from textwrap import dedent

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veiler.fsm import Automaton
from veiler.insertion import build_insertion_automaton
from veiler.textio import (
    AutomatonDocument,
    ParseError,
    emit_automaton,
    emit_document,
    parse_automaton,
    parse_document,
)

DATA = Path(__file__).parent / "data"
_G1_PIECES = re.split(r"(\s+)", (DATA / "g1.aut").read_text())
# Characters the fuzz splices into g1.aut: structure, names, and digits
# that str.isdigit accepts but int() does not, or that int() reads.
_FUZZ_CHARS = " \t\n#0123abcdeinst_-\u00b2\u0663\u2028\x0c"


def _doc(text: str) -> AutomatonDocument:
    return parse_document(dedent(text))


def _error(text: str) -> ParseError:
    with pytest.raises(ParseError) as caught:
        parse_document(dedent(text))
    return caught.value


class TestParse:
    def test_the_shipped_example_parses_to_the_fixture(self, g1):
        doc = parse_document((DATA / "g1.aut").read_text())
        assert doc.name == "g1"
        assert doc.automaton == g1
        assert doc.unobservable == frozenset()

    def test_comments_and_blank_lines_are_ignored(self):
        doc = _doc(
            """\
            # leading comment

            automaton tiny  # trailing comment
            events a
            states 0 1
            initial 0
            trans 0 a 1
            end
            """
        )
        assert doc.name == "tiny"
        assert len(doc.automaton.states) == 2

    def test_digit_state_tokens_become_integers(self):
        doc = _doc(
            """\
            automaton mixed
            events a
            states 0 idle
            initial idle
            trans idle a 0
            end
            """
        )
        assert doc.automaton.states == frozenset({0, "idle"})

    def test_determinism_is_inferred(self):
        deterministic = """\
            automaton d
            events a
            states 0 1
            initial 0
            trans 0 a 1
            end
            """
        branching = """\
            automaton n
            events a
            states 0 1
            initial 0
            trans 0 a 0
            trans 0 a 1
            end
            """
        assert _doc(deterministic).automaton.deterministic
        assert not _doc(branching).automaton.deterministic

    def test_unobservable_events_ride_on_the_document(self):
        doc = _doc(
            """\
            automaton h
            events a u
            unobservable u
            states 0 1
            initial 0
            trans 0 u 1
            end
            """
        )
        assert doc.unobservable == frozenset({"u"})

    def test_parse_automaton_drops_the_wrapper(self, g1):
        assert parse_automaton((DATA / "g1.aut").read_text()) == g1


class TestParseErrors:
    def test_errors_are_value_errors_with_a_line_number(self):
        error = _error("banana\n")
        assert isinstance(error, ValueError)
        assert error.line == 1
        assert "banana" in str(error)

    def test_unknown_declaration(self):
        error = _error(
            """\
            automaton g
            alphabet a b
            """
        )
        assert error.line == 2

    def test_duplicate_section(self):
        error = _error(
            """\
            automaton g
            events a
            events b
            """
        )
        assert error.line == 3
        assert "duplicate" in str(error)

    def test_sections_out_of_order(self):
        error = _error(
            """\
            automaton g
            states 0
            events a
            """
        )
        assert error.line == 3
        assert "events must come before states" in str(error)

    def test_sections_after_the_first_transition(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            initial 0
            trans 0 a 0
            secret 0
            """
        )
        assert error.line == 6
        assert "secret must come before trans" in str(error)

    def test_text_after_end(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            initial 0
            end
            trans 0 a 0
            """
        )
        assert error.line == 6
        assert "after end" in str(error)

    def test_missing_required_section(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            end
            """
        )
        assert "missing initial section" in str(error)

    def test_empty_input_reports_line_one(self):
        error = _error("")
        assert error.line == 1
        assert "missing automaton section" in str(error)

    def test_automaton_takes_one_name(self):
        error = _error("automaton one two\n")
        assert error.line == 1

    def test_trans_arity(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            initial 0
            trans 0 a
            """
        )
        assert error.line == 5

    def test_trans_requires_initial_first(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            trans 0 a 0
            """
        )
        assert error.line == 4
        assert "after initial" in str(error)

    def test_undeclared_trans_state(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            initial 0
            trans 0 a 9
            """
        )
        assert error.line == 5
        assert "undeclared state '9'" in str(error)

    def test_undeclared_trans_event(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            initial 0
            trans 0 z 0
            """
        )
        assert error.line == 5
        assert "undeclared event 'z'" in str(error)

    def test_state_declared_twice(self):
        error = _error(
            """\
            automaton g
            events a
            states 0 0
            initial 0
            end
            """
        )
        assert error.line == 3
        assert "state '0' declared twice" in str(error)

    def test_digit_names_of_one_number_are_one_state(self):
        # 01 and 1 both parse as the integer 1; accepting both would turn
        # "trans 1 a 01" into a self-loop.
        error = _error(
            """\
            automaton g
            events a
            states 01 1
            initial 1
            trans 1 a 01
            end
            """
        )
        assert error.line == 3
        assert "state '1' declared twice" in str(error)

    def test_event_declared_twice(self):
        error = _error(
            """\
            automaton g
            events a a
            states 0
            initial 0
            end
            """
        )
        assert error.line == 2
        assert "event 'a' declared twice" in str(error)

    def test_undeclared_initial_state_points_at_its_line(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            initial 7
            end
            """
        )
        assert error.line == 4

    def test_undeclared_secret_state_points_at_its_line(self):
        error = _error(
            """\
            automaton g
            events a
            states 0
            initial 0
            secret 7
            end
            """
        )
        assert error.line == 5

    def test_undeclared_unobservable_event_points_at_its_line(self):
        error = _error(
            """\
            automaton g
            events a
            unobservable u
            states 0
            initial 0
            end
            """
        )
        assert error.line == 3

    def test_non_ascii_digits_never_crash(self):
        # A state token is a number only when int() reads it: the
        # superscript two is a name, the Arabic-Indic three is the number 3.
        doc = _doc(
            """\
            automaton g
            events a
            states 0 \u00b2
            initial 0
            trans 0 a \u00b2
            end
            """
        )
        assert doc.automaton.states == {0, "\u00b2"}
        error = _error(
            """\
            automaton g
            events a
            states 3 \u0663
            """
        )
        assert error.line == 3
        assert "declared twice" in str(error)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(0, len(_G1_PIECES) - 1),
                st.text(st.sampled_from(_FUZZ_CHARS), max_size=4),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_mutated_files_fail_only_with_a_line_number(self, edits):
        # Each edit replaces one token, or one run of whitespace, of g1.aut.
        pieces = list(_G1_PIECES)
        for at, text in edits:
            pieces[at] = text
        text = "".join(pieces)
        try:
            parse_document(text)
        except ParseError as error:
            assert 1 <= error.line <= max(1, len(text.splitlines()))
            assert str(error).startswith(f"line {error.line}: ")


class TestEmit:
    def test_round_trip_preserves_the_document(self, g1):
        doc = AutomatonDocument("g1", g1, frozenset())
        text = emit_document(doc)
        assert parse_document(text) == doc

    def test_round_trip_preserves_unobservable_events(self):
        doc = _doc(
            """\
            automaton h
            events a u
            unobservable u
            states 0 1
            initial 0
            trans 0 u 1
            end
            """
        )
        assert parse_document(emit_document(doc)) == doc

    def test_output_is_canonical(self, g1):
        text = emit_automaton(g1, "g1")
        lines = text.splitlines()
        assert lines[0] == "automaton g1"
        trans = [line for line in lines if line.startswith("trans")]
        assert trans == sorted(trans)
        assert text.endswith("end\n")
        assert emit_automaton(g1, "g1") == text

    def test_secret_line_is_omitted_when_empty(self):
        doc = _doc(
            """\
            automaton plainer
            events a
            states 0
            initial 0
            trans 0 a 0
            end
            """
        )
        assert "secret" not in emit_document(doc)

    def test_inserted_events_have_no_text_form(self, g1):
        gf = build_insertion_automaton(g1)
        with pytest.raises(ValueError):
            emit_automaton(gf, "gf")

    @pytest.mark.parametrize(
        "state, offender",
        [("01", "'01' reads back as 1"), (-1, "'-1' reads back as '-1'"),
         ("x y", "'x y' is empty"), ("", "'' is empty"), ("a#b", "'a#b' is empty")],
    )
    def test_a_state_that_would_not_read_back_is_refused(self, state, offender):
        a = Automaton.dfa([0, state], ["a"], {(0, "a"): state}, 0)
        with pytest.raises(ValueError, match=f"state {state!r} has no text form: {offender}"):
            emit_automaton(a, "g")

    @pytest.mark.parametrize("symbol", ["a b", "#", ""])
    def test_an_event_that_would_not_read_back_is_refused(self, symbol):
        a = Automaton.dfa([0], [symbol], {(0, symbol): 0}, 0)
        with pytest.raises(ValueError, match=f"event {symbol!r} has no text form"):
            emit_document(AutomatonDocument("g", a, frozenset()))

    def test_names_that_read_back_are_written(self):
        a = Automaton.dfa(["s0", "-1", 10], ["a"], {("s0", "a"): "-1", ("-1", "a"): 10}, "s0")
        assert parse_automaton(emit_automaton(a, "g")) == a
