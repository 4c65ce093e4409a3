from __future__ import annotations

import copy
import pickle
import random
import re
import sys
from pathlib import Path
from textwrap import dedent

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veiler import fsm
from veiler.fsm import Automaton, EventLabel, State, state_display
from veiler.insertion import build_insertion_automaton
from veiler.oracle import random_dfa, random_nfa
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
_EDITS = st.lists(
    st.tuples(
        st.integers(0, len(_G1_PIECES) - 1),
        st.text(st.sampled_from(_FUZZ_CHARS), max_size=4),
    ),
    min_size=1,
    max_size=6,
)
# Whole words a token may become, as in the CLI's mutation fuzz: g1.aut's
# own, section keywords, and names the grammar refuses or reads as another
# state.
_WORDS = sorted(
    {t for t in _G1_PIECES if t and not t.isspace()}
    | {"", "-1", "01", "\u00b2", "x", "#", "a_i", "end", "trans", "secret", "unobservable"}
)


def _doc(text: str) -> AutomatonDocument:
    return parse_document(dedent(text))


def _error(text: str) -> ParseError:
    with pytest.raises(ParseError) as caught:
        parse_document(dedent(text))
    return caught.value


def _edited(edits) -> str:
    """g1.aut with each edit replacing one token, or one run of whitespace."""
    pieces = list(_G1_PIECES)
    for at, text in edits:
        pieces[at] = text
    return "".join(pieces)


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

    @pytest.mark.parametrize(
        "sections, line",
        [
            (["end", "trans 0 a 0"], 6),
            # After a trans line, a trans line of declared tokens takes the
            # fast path until end is read, and not after it.
            (["trans 0 a 0", "end", "trans 0 a 0"], 7),
        ],
    )
    def test_text_after_end(self, sections, line):
        text = "\n".join(["automaton g", "events a", "states 0", "initial 0", *sections])
        error = _error(text + "\n")
        assert error.line == line
        assert str(error) == f"line {line}: text after end"

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

    @pytest.mark.parametrize("sections", [["states 0"], ["states 0", "secret 0"]])
    def test_trans_requires_initial_first(self, sections):
        # A trans line of declared tokens before initial is checked in full.
        text = "\n".join(["automaton g", "events a", *sections, "trans 0 a 0"])
        error = _error(text + "\n")
        line = 3 + len(sections)
        assert str(error) == f"line {line}: trans must come after initial"

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

    @pytest.mark.parametrize(
        "lines, line",
        [
            (["states 0 {big}"], 3),
            (["states 0", "initial {big}"], 4),
            (["states 0", "initial 0", "secret {big}"], 5),
            (["states 0", "initial 0", "trans 0 a {big}"], 5),
        ],
    )
    def test_a_number_too_long_to_read_points_at_its_line(self, lines, line):
        # A decimal token is an int, and int() refuses more digits than
        # the interpreter's limit; that is an error of the file's line.
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        big = "9" * (limit + 1)
        text = "\n".join(["automaton g", "events a", *lines, "end"]).format(big=big)
        with pytest.raises(ParseError) as caught:
            parse_document(text)
        assert caught.value.line == line
        assert str(caught.value) == (
            f"line {line}: state of {limit + 1} digits; at most {limit} are read"
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edits=_EDITS)
    def test_mutated_files_fail_only_with_a_line_number(self, edits):
        text = _edited(edits)
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

    def test_a_number_too_long_to_read_has_no_text_form(self):
        # The parser refuses a decimal token of more digits than int()
        # reads, so the emitter refuses such a state: a plain ValueError,
        # as there is no line of a file to point at.
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        state = "9" * (limit + 1)
        a = Automaton.dfa([state], ["a"], {}, state, [])
        with pytest.raises(ValueError) as caught:
            emit_automaton(a, "g")
        assert not isinstance(caught.value, ParseError)
        assert str(caught.value) == (
            f"state {state!r} has no text form: {state!r} is a number of more than {limit} digits"
        )

    @pytest.mark.parametrize("symbol", ["a b", "#", ""])
    def test_an_event_that_would_not_read_back_is_refused(self, symbol):
        a = Automaton.dfa([0], [symbol], {(0, symbol): 0}, 0)
        with pytest.raises(ValueError, match=f"event {symbol!r} has no text form"):
            emit_document(AutomatonDocument("g", a, frozenset()))

    def test_names_that_read_back_are_written(self):
        a = Automaton.dfa(["s0", "-1", 10], ["a"], {("s0", "a"): "-1", ("-1", "a"): 10}, "s0")
        assert parse_automaton(emit_automaton(a, "g")) == a


# The parser as it stood before labels were tuples: it builds the table by
# symbol and converts it through Automaton.nfa, and re-derives the sections
# that must come later on every line.  Kept as the reference that error
# messages, line numbers and their precedence are compared against.
_REFERENCE_ORDER = ["automaton", "events", "unobservable", "states", "initial", "secret", "trans", "end"]
_REFERENCE_REQUIRED = {"automaton", "events", "states", "initial", "end"}


def _reference_state_token(token: str) -> State:
    return int(token) if token.isdecimal() else token


def _reference_declare(lineno: int, kind: str, tokens: list[str], names: list) -> set:
    declared: set = set()
    for token, name in zip(tokens, names):
        if name in declared:
            raise ParseError(lineno, f"{kind} {token!r} declared twice")
        declared.add(name)
    return declared


def _reference_parse(text: str) -> AutomatonDocument:
    name = ""
    events: list[str] = []
    event_set: set = set()
    unobservable: list[str] = []
    states: list[State] = []
    state_set: set = set()
    initial: list[State] = []
    secret: list[State] = []
    trans: list[tuple[State, str, State, int]] = []
    seen: dict[str, int] = {}
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if ended:
            raise ParseError(lineno, "text after end")
        if keyword not in _REFERENCE_ORDER:
            raise ParseError(lineno, f"unknown declaration {keyword!r}")
        if keyword != "trans":
            if keyword in seen:
                raise ParseError(lineno, f"duplicate {keyword} section")
            seen[keyword] = lineno
        elif "trans" not in seen:
            seen["trans"] = lineno
        later = _REFERENCE_ORDER[_REFERENCE_ORDER.index(keyword) + 1 :]
        out_of_order = [k for k in later if k in seen and seen[k] < lineno]
        if out_of_order:
            raise ParseError(
                lineno, f"{keyword} must come before {out_of_order[0]}"
            )

        if keyword == "automaton":
            if len(args) != 1:
                raise ParseError(lineno, "automaton takes exactly one name")
            name = args[0]
        elif keyword == "events":
            events = args
            event_set = _reference_declare(lineno, "event", args, events)
        elif keyword == "unobservable":
            unobservable = args
        elif keyword == "states":
            states = [_reference_state_token(t) for t in args]
            state_set = _reference_declare(lineno, "state", args, states)
        elif keyword == "initial":
            initial = [_reference_state_token(t) for t in args]
        elif keyword == "secret":
            secret = [_reference_state_token(t) for t in args]
        elif keyword == "trans":
            if "initial" not in seen:
                raise ParseError(lineno, "trans must come after initial")
            if len(args) != 3:
                raise ParseError(lineno, "trans takes source, event, target")
            src, sym, dst = (
                _reference_state_token(args[0]), args[1], _reference_state_token(args[2])
            )
            if src not in state_set:
                raise ParseError(lineno, f"undeclared state {args[0]!r}")
            if dst not in state_set:
                raise ParseError(lineno, f"undeclared state {args[2]!r}")
            if sym not in event_set:
                raise ParseError(lineno, f"undeclared event {sym!r}")
            trans.append((src, sym, dst, lineno))
        elif keyword == "end":
            ended = True

    last_line = len(text.splitlines())
    missing = [k for k in _REFERENCE_ORDER if k in _REFERENCE_REQUIRED and k not in seen]
    if missing:
        raise ParseError(last_line or 1, f"missing {missing[0]} section")

    for group, label in ((initial, "initial"), (secret, "secret")):
        for x in group:
            if x not in state_set:
                raise ParseError(
                    seen[label], f"undeclared state {state_display(x)!r}"
                )
    for sym in unobservable:
        if sym not in event_set:
            raise ParseError(seen["unobservable"], f"undeclared event {sym!r}")

    table: dict[tuple[State, str], set] = {}
    for src, sym, dst, _ in trans:
        table.setdefault((src, sym), set()).add(dst)
    automaton = Automaton.nfa(states, events, table, initial, secret)
    return AutomatonDocument(name, automaton, frozenset(unobservable))


def _outcome(parse, text: str) -> tuple:
    """The document and its determinism, or the error's message and line.

    The automaton of a document must pass the checking constructor as it
    stands, to an equal automaton of the same determinism: the parser
    builds it without that constructor's walk of the transitions.
    """
    try:
        doc = parse(text)
    except ParseError as error:
        return str(error), error.line
    checked = Automaton(*doc.automaton._values)
    assert checked == doc.automaton
    assert checked.deterministic == doc.automaton.deterministic
    return doc, doc.automaton.deterministic


def _random_file(seed: int) -> tuple[str, AutomatonDocument]:
    """A valid file of a random DFA or NFA and the document it holds.

    States are numbers or names; initial and secret sets, and the
    unobservable events, are random subsets.  Transitions come in random
    order, some twice, and comments, blank lines and extra whitespace sit
    between and inside the lines.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    if rng.random() < 0.5:
        g = random_dfa(seed, n, n_events=rng.randint(1, 3), live=rng.random() < 0.5)
    else:
        g = random_nfa(seed, n, n_events=rng.randint(1, 3))
    rename = {x: f"s{x}" if rng.random() < 0.3 else x for x in g.states}
    initial = [x for x in g.states if rng.random() < 0.3] if rng.random() < 0.3 else g.initial
    g = Automaton(
        frozenset(rename.values()),
        g.events,
        {(rename[x], e): frozenset(rename[y] for y in ys) for (x, e), ys in g.transitions.items()},
        frozenset(rename[x] for x in initial),
        frozenset(rename[x] for x in g.secret),
    )
    unobservable = frozenset(e.symbol for e in g.events if rng.random() < 0.3)
    doc = AutomatonDocument(f"g{seed}", g, unobservable)
    emitted = emit_document(doc).splitlines()
    *head, end = [line for line in emitted if not line.startswith("trans")]
    trans = [line for line in emitted if line.startswith("trans")]
    trans += rng.sample(trans, len(trans) // 4)
    rng.shuffle(trans)
    lines = []
    for line in [*head, *trans, end]:
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "# a comment", "\t# trans 0 a 0"]))
        if rng.random() < 0.2:
            line = line.replace(" ", rng.choice(["  ", "\t", " \t "]))
        if rng.random() < 0.2:
            line += rng.choice([" # trailing", "#", "  "])
        lines.append(line)
    if rng.random() < 0.3:
        lines.append("# after the end")
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n"]), doc


class TestMatchesTheReferenceParser:
    """The parser and the reference agree on every document and every error."""

    # After one accepted trans line, a trans line of four declared tokens is
    # added at once; every other line takes the checked path.
    @pytest.mark.parametrize(
        "tail",
        [
            "trans 1 b 01\nend\n",  # 01 names state 1, but is no declared token
            "trans 01 a s\nend\n",
            "trans 1 b s   # a trailing comment\nend\n",
            "trans 1 b s#no space\nend\n",
            "trans x b s\nend\n",  # undeclared source
            "trans 1 b x\nend\n",  # undeclared target
            "trans 1 z s\nend\n",  # undeclared event
            "trans 1 b\nend\n",
            "trans 1 b s s\nend\n",
            "end\ntrans 1 b s\n",
            "end\ntrans 1 b s # after the end\n",
            "trans 0 a s\ntrans 0 a 0\nend\n",  # more targets for (0, a)
            "trans 1 b s\ntrans 1 b s\nend\n",
            "trans 1 b s\nsecret 1\nend\n",
            "trans 1 b s\n",
        ],
    )
    def test_lines_after_an_accepted_trans_line(self, tail):
        text = "automaton g\nevents a b\nstates 0 1 s\ninitial 0\ntrans 0 a 1\n" + tail
        assert _outcome(parse_document, text) == _outcome(_reference_parse, text)

    # A '#' anywhere strips comments from every line before any is read;
    # without one, each line is only split.  The head lines below hold one
    # while no trans line does.
    def test_a_comment_only_in_the_head_lines(self):
        text = (
            "automaton g # the name\nevents a b#\nstates 0 1 s\ninitial 0\n#\n"
            "trans 0 a 1\ntrans 1 b s\ntrans s a 0\nend\n"
        )
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_reference_parse, text)
        doc, deterministic = outcome
        assert (doc.name, len(doc.automaton.transitions), deterministic) == ("g", 3, True)

    @pytest.mark.parametrize(
        "head, body, transitions",
        [
            (  # trans as an event
                "events trans b\nstates 0 1 s\ninitial 0\n",
                "trans 0 trans 1\ntrans 1 b s\ntrans s trans 0\ntrans 1 trans 0\n",
                4,
            ),
            (  # trans as a state
                "events a b\nstates trans 1 s\ninitial trans\n",
                "trans trans a 1\ntrans 1 b trans\ntrans s a trans\ntrans trans b s\n",
                4,
            ),
            (  # as both, on one line
                "events trans b\nstates trans 1\ninitial trans\n",
                "trans trans trans trans\ntrans trans b 1\ntrans 1 trans trans\n",
                3,
            ),
        ],
    )
    def test_trans_as_a_state_or_event_name(self, head, body, transitions):
        text = f"automaton g\n{head}{body}end\n"
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_reference_parse, text)
        assert len(outcome[0].automaton.transitions) == transitions
        # A trans line of three tokens after the accepted ones is refused.
        text = f"automaton g\n{head}{body}trans trans trans\nend\n"
        line = len(text.splitlines()) - 1
        assert _outcome(parse_document, text) == _outcome(_reference_parse, text) == (
            f"line {line}: trans takes source, event, target", line
        )

    @pytest.mark.parametrize("repeat", ["trans 0 a 2\n", "trans 0 a 1\n"])
    def test_a_repeated_key_late_in_a_long_block(self, repeat):
        # After 300 trans lines, (0, a) gets a second target, or its first again.
        n = 300
        states = " ".join(map(str, range(n)))
        body = "".join(f"trans {x} a {(x + 1) % n}\n" for x in range(n))
        text = f"automaton g\nevents a\nstates {states}\ninitial 0\n{body}{repeat}end\n"
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_reference_parse, text)
        doc, deterministic = outcome
        assert doc.automaton.transitions[(0, EventLabel("a"))] == {1, int(repeat.split()[3])}
        assert deterministic == (repeat == "trans 0 a 1\n")

    @pytest.mark.parametrize(
        "initial, body, deterministic",
        [
            ("0", "trans 0 a 1\ntrans 0 a 1\n", True),  # a repeated line
            ("0", "trans 0 a 1\ntrans 0 a 01\n", True),  # the same target, checked path
            ("0", "trans 0 a 1\ntrans 1 b s\ntrans 0 a 1\n", True),
            ("0", "trans 0 a 1\ntrans 0 a 0\n", False),  # a second target on one key
            ("0", "trans 0 a 1\ntrans 0 a 00\n", False),
            ("0 1", "trans 0 a 1\n", False),  # two initial states
            ("0 0", "trans 0 a 1\n", True),  # one initial state, named twice
            ("", "trans 0 a 1\n", False),  # none
        ],
    )
    def test_determinism(self, initial, body, deterministic):
        text = f"automaton g\nevents a b\nstates 0 1 s\ninitial {initial}\n{body}end\n"
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_reference_parse, text)
        assert outcome[1] is deterministic

    def test_a_parsed_automaton_pickles_and_copies_through_the_checking_constructor(
        self, monkeypatch
    ):
        validated = []
        checked_moves = fsm._checked_moves

        def counted(*args):
            validated.append(args)
            return checked_moves(*args)

        monkeypatch.setattr(fsm, "_checked_moves", counted)
        for seed in range(40):
            text = _random_file(seed)[0]
            validated.clear()
            a = parse_document(text).automaton
            assert validated == [], seed
            for back in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
                assert back == a and back is not a, seed
                assert back.deterministic == a.deterministic, seed
            assert len(validated) == 3, seed

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_line_ends(self, newline):
        lines = ["automaton g", "events a b", "states 0 1", "initial 0", "trans 0 a 1",
                 "trans 1 b 0", "trans 1 b x", "end"]
        text = newline.join(lines) + newline
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_reference_parse, text) == ("line 7: undeclared state 'x'", 7)
        text = text.replace(f"trans 1 b x{newline}", "")
        assert _outcome(parse_document, text) == _outcome(_reference_parse, text)
        assert _outcome(parse_document, text)[1] is True

    @pytest.mark.parametrize(
        "last, message",
        [
            ("trans 1999 a x", "undeclared state 'x'"),
            ("trans x a 0", "undeclared state 'x'"),
            ("trans 0 z 1", "undeclared event 'z'"),
            ("trans 0 a", "trans takes source, event, target"),
        ],
    )
    def test_an_error_on_the_last_trans_line_of_a_large_file(self, last, message):
        # Every trans line before it takes the fast path; the error names
        # its own line, the one before end.
        lines = emit_automaton(random_dfa(1, 2000, live=True), "big").splitlines()
        lines.insert(len(lines) - 1, last)
        text = "\n".join(lines) + "\n"
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_reference_parse, text)
        assert outcome == (f"line {len(lines) - 1}: {message}", len(lines) - 1)
        assert len(lines) > 4000

    def test_random_valid_files(self):
        for seed in range(300):
            text, doc = _random_file(seed)
            outcome = _outcome(parse_document, text)
            assert outcome == _outcome(_reference_parse, text), seed
            assert outcome == (doc, doc.automaton.deterministic), seed

    def test_random_files_with_lines_moved_repeated_or_dropped(self):
        # Out-of-order, duplicate and missing sections, with every section
        # present to name: these pin which error wins and on which line.
        kinds = ("duplicate", "must come before", "missing", "text after end")
        seen = set()
        for seed in range(600):
            rng = random.Random(seed)
            lines = _random_file(seed)[0].splitlines()
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
                op = rng.choice(("move", "repeat", "drop"))
                if op == "move":
                    lines.insert(j, lines.pop(i))
                elif op == "repeat":
                    lines.insert(j, lines[i])
                elif len(lines) > 1:
                    del lines[i]
            text = "\n".join(lines)
            outcome = _outcome(parse_document, text)
            assert outcome == _outcome(_reference_parse, text), seed
            seen.update(kind for kind in kinds if kind in str(outcome[0]))
        assert seen == set(kinds)  # the draw reaches every kind of section error

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edits=_EDITS)
    def test_edited_tokens(self, edits):
        text = _edited(edits)
        assert _outcome(parse_document, text) == _outcome(_reference_parse, text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("replace", "repeat", "break")),
                st.integers(min_value=0),
                st.sampled_from(_WORDS),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_replaced_repeated_or_broken_words(self, mutations):
        pieces = list(_G1_PIECES)
        for op, position, word in mutations:
            words = [i for i, t in enumerate(pieces) if t and not t.isspace()]
            i = words[position % len(words)]
            if op == "replace":
                pieces[i] = word
            elif op == "repeat":
                pieces[i] = f"{pieces[i]} {pieces[i]}"
            else:
                pieces[i] += "\n"
        text = "".join(pieces)
        assert _outcome(parse_document, text) == _outcome(_reference_parse, text)
