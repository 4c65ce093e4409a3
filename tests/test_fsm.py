from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veiler.fsm import (
    Automaton,
    EventLabel,
    Tag,
    as_label,
    sorted_states,
    state_display,
    strongly_connected_components,
    word,
)
from veiler.constrained import (
    DecoratedState,
    Decoration,
    InsertionConstraints,
    _EicKernel,
    check_eic_enforceable,
)
from veiler.insertion import IndicatorState, SubspacePartition, _PairKernel, check_ei_enforceable
from veiler.observer import (
    ObserverState,
    OpacityVerdict,
    build_observer,
    check_current_state_opacity,
)
from veiler.oracle import (
    ExtendedInsertionSequence,
    oracle_ei_enforceable,
    oracle_eic_enforceable,
    random_constraints,
    random_dfa,
    random_nfa,
)
from veiler.report import ei_report, eic_report
from veiler.textio import AutomatonDocument, ParseError, emit_automaton, parse_document


class TestEventLabel:
    """Label parsing and display."""

    def test_word_splits_on_whitespace_with_suffix_tags(self):
        w = word("c a_i b_bi a_ai")
        assert [e.symbol for e in w] == ["c", "a", "b", "a"]
        assert [e.tag for e in w] == [
            Tag.ACTUAL,
            Tag.INSERTED,
            Tag.INSERTED_BEFORE,
            Tag.INSERTED_AFTER,
        ]

    def test_word_without_spaces_reads_single_characters(self):
        assert [e.symbol for e in word("cababa")] == list("cababa")
        assert all(e.tag is Tag.ACTUAL for e in word("cababa"))

    def test_longest_suffix_wins(self):
        # b_bi is b tagged before-inserted, not symbol "b_b" tagged inserted
        (label,) = word("b_bi")
        assert label.symbol == "b" and label.tag is Tag.INSERTED_BEFORE

    def test_display_round_trips_through_word(self):
        for text in ("a", "a_i", "a_bi", "a_ai"):
            (label,) = word(text)
            assert label.display() == text

    def test_as_label_takes_symbols_verbatim(self):
        assert as_label("b").tag is Tag.ACTUAL
        assert as_label(word("b_i")[0]).tag is Tag.INSERTED

    def test_as_actual_strips_tag(self):
        (label,) = word("a_bi")
        assert label.as_actual() == as_label("a")
        assert not label.as_actual().inserted
        assert label.inserted

    def test_a_label_is_its_symbol_tag_tuple(self):
        for label in word("a b_i a_bi c_ai"):
            plain = (label.symbol, label.tag)
            assert label == plain and hash(label) == hash(plain)
            assert {plain: 1}[label] == 1
        assert as_label("a") == ("a", 0) != ("a", 1)

    def test_labels_sort_by_symbol_then_tag(self):
        labels = list(word("b a_ai a_i b_bi a"))
        random.Random(0).shuffle(labels)
        assert [e.display() for e in sorted(labels)] == ["a", "a_i", "a_ai", "b", "b_bi"]
        assert sorted(labels) == sorted((e.symbol, e.tag) for e in labels)

    def test_repr_names_the_fields(self):
        assert repr(word("a_i")[0]) == "EventLabel(symbol='a', tag=<Tag.INSERTED: 1>)"

    def test_fields_are_read_only(self):
        label = as_label("a")
        for name in ("symbol", "tag"):
            with pytest.raises(AttributeError):
                setattr(label, name, "b")


class TestRun:
    """Transition-function walks."""

    def test_accepted_word_ends_at_single_state(self, g1):
        assert g1.run(0, word("cababa")) == frozenset({4})

    def test_undefined_word_yields_empty_set(self, g1):
        assert g1.run(0, word("cbaa")) == frozenset()

    def test_empty_word_stays_put(self, g1):
        assert g1.run(0, ()) == frozenset({0})

    def test_string_argument_is_parsed(self, g1):
        assert g1.run(0, "ca") == frozenset({4})

    def test_unknown_source_state_rejected(self, g1):
        with pytest.raises(ValueError):
            g1.run(99, "a")

    def test_unknown_label_rejected(self, g1):
        with pytest.raises(ValueError):
            g1.run(0, "z")

    def test_step_reads_a_symbol_as_run_does(self):
        g = random_dfa(1, 4)
        for x in sorted_states(g.states):
            for sym in "abcz":
                assert g.step(x, sym) == g.step(x, EventLabel(sym)), (x, sym)
                if sym != "z":
                    assert g.step(x, sym) == g.run(x, sym), (x, sym)
        assert g.run(0, "a") == g.step(0, "a") == frozenset({1})

    @settings(max_examples=60, derandomize=True)
    @given(seed=st.integers(0, 10**6), split=st.integers(0, 6), data=st.data())
    def test_run_composes_over_concatenation(self, seed, split, data):
        g = random_dfa(seed)
        symbols = sorted(e.symbol for e in g.events)
        s = data.draw(st.lists(st.sampled_from(symbols), max_size=split))
        t = data.draw(st.lists(st.sampled_from(symbols), max_size=4))
        x0 = next(iter(g.initial))
        stepwise = frozenset(
            z for y in g.run(x0, s) for z in g.run(y, t)
        )
        assert g.run(x0, s + t) == stepwise


class TestStateMaps:
    """Enabled events."""

    def test_enabled_events(self, g1):
        assert {e.symbol for e in g1.enabled_events(0)} == {"a", "b", "c"}
        assert {e.symbol for e in g1.enabled_events(4)} == {"b"}


class TestAccessiblePart:
    def test_drops_unreachable_states(self):
        g = Automaton.dfa(
            states=[0, 1, 9],
            events=["a"],
            transitions={(0, "a"): 1, (9, "a"): 9},
            initial=0,
        )
        trimmed = g.accessible_part()
        assert trimmed.states == frozenset({0, 1})
        assert (9, as_label("a")) not in trimmed.transitions

    def test_idempotent(self, g1):
        once = g1.accessible_part()
        assert once.accessible_part() == once


class TestMoveIndex:
    """The per-state index of moves, built on first use."""

    @pytest.mark.parametrize("seed", range(40))
    def test_a_built_index_leaves_the_value_as_it_was(self, seed):
        size = 2 + seed % 9
        if seed % 2:
            g = random_nfa(seed, n_states=size, trans_density=(0.2, 0.5)[seed % 4 // 2])
        else:
            g = random_dfa(seed, size, trans_density=(0.3, 0.6)[seed % 4 // 2], live=seed % 4 == 0)
        fresh = Automaton(*(getattr(g, name) for name in g._fields))
        assert "_outgoing" not in vars(g)
        for x in sorted_states(g.states):
            moves = {e: ys for (y, e), ys in g.transitions.items() if y == x}
            assert g.outgoing(x) == moves
            assert g.enabled_events(x) == frozenset(moves)
        assert "_outgoing" in vars(g)
        reached, todo = set(g.initial), list(g.initial)
        while todo:
            x = todo.pop()
            for (y, _), ys in g.transitions.items():
                if y == x:
                    todo += ys - reached
                    reached |= ys
        part = g.accessible_part()
        assert part == Automaton(
            frozenset(reached),
            g.events,
            {key: ys for key, ys in g.transitions.items() if key[0] in reached},
            g.initial,
            g.secret & reached,
        )
        assert g == fresh and fresh == g and g.deterministic == fresh.deterministic
        assert repr(g) == repr(fresh) and pickle.dumps(g) == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert type(twin) is Automaton and twin == g == fresh
            assert twin.deterministic == g.deterministic
            assert "_outgoing" not in vars(twin)
            assert all(twin.outgoing(x) == g.outgoing(x) for x in g.states)


def _stored_form_faults(a: Automaton) -> list[str]:
    """What breaks the stored form of ``a``: ``moves`` must be the per-label
    split of ``transitions``, hold no empty map, and equal the moves of
    the automaton rebuilt from ``a``'s fields."""
    split: dict = {}
    for (x, e), ys in a.transitions.items():
        split.setdefault(e, {})[x] = ys
    faults = []
    if a.moves != split:
        faults.append("moves is not the per-label split of transitions")
    if not all(a.moves.values()):
        faults.append("moves holds an empty map")
    if Automaton(*(getattr(a, name) for name in a._fields)).moves != a.moves:
        faults.append("the rebuilt automaton has other moves")
    return faults


class TestStoredMoves:
    """Every way of building an automaton stores its moves once, per label;
    ``transitions`` is their (state, label) view."""

    TABLES = [
        ({(0, "a"): [1], (1, "a"): [0], (1, "b"): [1]}, [0]),
        ({(0, "a"): [1], (1, "a"): [0, 1]}, [0, 1]),  # two targets, two initial states
        ({(1, "b"): [0]}, [1]),  # a, and state 0, have no move
        ({}, [0]),
    ]

    @pytest.mark.parametrize("table, initial", TABLES)
    @pytest.mark.parametrize("build", ["frozenset", "set", "dfa", "nfa", "parsed"])
    def test_every_constructor_stores_the_per_label_split(self, build, table, initial):
        if build == "dfa" and (len(initial) != 1 or any(len(ys) > 1 for ys in table.values())):
            return  # a DFA has one initial state and one target per move
        a = _build(build, [0, 1], ["a", "b"], table, initial, [1])
        for b in (a, a.accessible_part(), build_observer(a, a.events)):
            assert _stored_form_faults(b) == [], build
        assert all(type(e) is EventLabel for e in a.moves)

    def test_a_later_key_of_one_move_replaces_the_earlier(self):
        a = Automaton.dfa([0, 1], ["a"], {(0, "a"): 1, (0, EventLabel("a")): 0}, 0)
        assert a.moves == {EventLabel("a"): {0: frozenset({0})}}
        assert _stored_form_faults(a) == []

    def test_random_systems_and_their_constructions(self):
        for seed in range(200):
            size = 2 + seed % 6
            g = random_dfa(seed, size, live=seed % 2 == 0)
            built = [g, random_nfa(seed, n_states=size), g.accessible_part()]
            built.append(build_observer(built[1], "ab"))
            for kernel in (_PairKernel(g), _EicKernel(g, random_constraints(seed, "abc"))):
                built += [kernel.insertion_automaton(), kernel.automaton(kernel.search())]
            for a in built:
                assert _stored_form_faults(a) == [], seed


class TestValueTypes:
    """The composite states and the insertion sequence behave as the frozen
    dataclasses they replaced: equal only within their own class, hashed
    like their field tuple, read-only, and pickled and copied whole."""

    C = InsertionConstraints.of("a", "")
    VALUES = [
        (IndicatorState(0, (1, "a")), (0, (1, "a")),
         "IndicatorState(dummy=0, actual=(1, 'a'))"),
        (DecoratedState(0, Decoration.A), (0, Decoration.A),
         "DecoratedState(base=0, decoration=<Decoration.A: 1>)"),
        (ObserverState(frozenset({1, 2})), (frozenset({1, 2}),),
         "ObserverState(estimate=frozenset({1, 2}))"),
        (ExtendedInsertionSequence((("a",),), ((),), C), ((("a",),), ((),), C),
         "ExtendedInsertionSequence(before=(('a',),), after=((),), constraints="
         "InsertionConstraints(before=frozenset({'a'}), after=frozenset()))"),
    ]
    IDS = [type(value).__name__ for value, _, _ in VALUES]

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
    def test_equal_only_within_the_class(self, value, fields, text):
        twin = type(value)(*fields)
        assert twin == value and not twin != value and twin is not value
        assert value != fields and fields != value
        assert {fields: 1}.get(value) is None
        others = [v for v, _, _ in self.VALUES if type(v) is not type(value)]
        assert all(value != other for other in others)

    def test_a_decorated_state_never_equals_a_plain_tuple_state(self):
        # DecoratedState shares automata with the plain states of g.
        assert DecoratedState(0, Decoration.A) != (0, 1)
        assert IndicatorState(0, 1) != (0, 1) and ObserverState(1) != (1,)
        assert len({(0, 1), DecoratedState(0, Decoration.A), IndicatorState(0, 1)}) == 3

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
    def test_hash_and_repr_are_the_dataclass_ones(self, value, fields, text):
        # Hashing like the field tuple keeps set iteration orders unchanged.
        assert hash(value) == hash(fields)
        assert repr(value) == text

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
    def test_fields_are_read_only(self, value, fields, text):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = None
        assert value == type(value)(*fields)

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
    def test_pickle_and_copy_round_trip(self, value, fields, text):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value
            assert hash(twin) == hash(value) and repr(twin) == text

    def test_the_constructor_checks_its_arguments(self):
        with pytest.raises(TypeError):
            IndicatorState(0)
        with pytest.raises(ValueError):
            ExtendedInsertionSequence((("a",),), ())
        with pytest.raises(ValueError):
            ExtendedInsertionSequence((("b",),), ((),), self.C)

    def test_an_automaton_is_a_frozen_unhashable_value(self, g1):
        twin = pickle.loads(pickle.dumps(g1))
        assert twin == g1 and twin.deterministic and copy.deepcopy(g1) == g1
        assert g1 != tuple(getattr(g1, name) for name in g1._fields)
        assert repr(Automaton.dfa([0, 1], ["a"], {(0, "a"): 1}, 0, [1])) == (
            "Automaton(states=frozenset({0, 1}), events=frozenset({EventLabel(symbol='a', "
            "tag=<Tag.ACTUAL: 0>)}), transitions={(0, EventLabel(symbol='a', "
            "tag=<Tag.ACTUAL: 0>)): frozenset({1})}, initial=frozenset({0}), "
            "secret=frozenset({1}))"
        )
        with pytest.raises(AttributeError):
            g1.states = frozenset()
        with pytest.raises(TypeError):
            hash(g1)

    def test_records_are_named_tuples(self, g1):
        # Records that are never states equal their field tuples.
        records = [
            (InsertionConstraints.of("a", "b"), (frozenset("a"), frozenset("b"))),
            (OpacityVerdict(True, frozenset(), None), (True, frozenset(), None)),
            (SubspacePartition({}, {}), ({}, {})),
            (AutomatonDocument("g1", g1, frozenset()), ("g1", g1, frozenset())),
        ]
        for record, fields in records:
            assert record == fields and tuple(record) == fields
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)


class TestConstruction:
    """Validation in the dataclass constructors."""

    def test_dfa_is_marked_deterministic(self, g1):
        assert g1.deterministic

    def test_nfa_determinism_is_inferred(self):
        det = Automaton.nfa([0, 1], ["a"], {(0, "a"): [1]}, [0])
        assert det.deterministic
        nondet = Automaton.nfa([0, 1], ["a"], {(0, "a"): [0, 1]}, [0])
        assert not nondet.deterministic
        twostart = Automaton.nfa([0, 1], ["a"], {}, [0, 1])
        assert not twostart.deterministic

    def test_determinism_is_read_off_the_data(self, g1):
        # Determinism is no field, so it is not in the constructor or __eq__:
        # equal data build equal automata, however they are built.  Automata
        # are unhashable by declaration, since the transitions are a dict.
        fields = (g1.states, g1.events, dict(g1.transitions), g1.initial, g1.secret)
        with pytest.raises(TypeError):
            Automaton(*fields, deterministic=True)
        with pytest.raises(TypeError):
            Automaton(*fields, True)
        assert Automaton.__hash__ is None
        direct = Automaton(*fields)
        assert direct == g1 and direct.deterministic
        by_nfa = Automaton.nfa(
            g1.states, g1.events, {key: set(ys) for key, ys in g1.transitions.items()},
            g1.initial, g1.secret,
        )
        assert by_nfa == g1 == g1.accessible_part()
        a = frozenset({as_label("a")})
        twostart = Automaton(frozenset({0, 1}), a, {}, frozenset({0, 1}))
        assert not twostart.deterministic
        branching = Automaton(
            frozenset({0, 1}), a, {(0, as_label("a")): frozenset({0, 1})}, frozenset({0})
        )
        assert not branching.deterministic

    @pytest.mark.parametrize(
        "table, initial, secret, message",
        [
            ({}, [5], [], "initial states must belong to the state set"),
            ({}, [0], [5], "secret states must belong to the state set"),
            ({(7, "a"): [0]}, [0], [], "transition source '7' is not a state"),
            ({("x", "a"): [0]}, [0], [], "transition source 'x' is not a state"),
            ({(0, "b"): [0]}, [0], [], "transition label 'b' is not an event"),
            ({(0, "a"): [9]}, [0], [], "transition target outside the state set"),
            # several faults: the initial set is checked first, then the
            # transitions in order, each entry's source, label and target
            ({(7, "a"): [0]}, [5], [5], "initial states must belong to the state set"),
            ({(7, "a"): [0]}, [0], [5], "secret states must belong to the state set"),
            ({(0, "a"): [9], (7, "a"): [0]}, [0], [], "transition target outside the state set"),
            ({(7, "a"): [0], (0, "a"): [9]}, [0], [], "transition source '7' is not a state"),
            ({(0, "a"): [1], (1, "b"): [0], (8, "a"): [0]}, [0], [], "transition label 'b' is not an event"),
            ({(7, "b"): [9]}, [0], [], "transition source '7' is not a state"),
            ({(0, "b"): [9]}, [0], [], "transition label 'b' is not an event"),
            # an undeclared label is named by its display, tag and all
            ({(0, EventLabel("a", Tag.INSERTED)): [0]}, [0], [], "transition label 'a_i' is not an event"),
        ],
    )
    @pytest.mark.parametrize("build", ["frozenset", "set", "dfa", "nfa"])
    def test_every_rejection_names_its_first_fault(self, build, table, initial, secret, message):
        with pytest.raises(ValueError) as caught:
            _build(build, [0, 1], ["a"], table, initial, secret)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "initial, secret, trans, message",
        [
            ("5", "0", "trans 0 a 1", "line 4: undeclared state '5'"),
            ("0", "5", "trans 0 a 1", "line 5: undeclared state '5'"),
            ("0", "0", "trans 7 a 0", "line 6: undeclared state '7'"),
            ("0", "0", "trans 0 b 0", "line 6: undeclared event 'b'"),
            ("0", "0", "trans 0 a 9", "line 6: undeclared state '9'"),
            # the parser's own order: a trans line as it is read, its source,
            # target and then event; the initial and secret lines at the end
            ("5", "5", "trans 7 a 0", "line 6: undeclared state '7'"),
            ("0", "0", "trans 7 b 9", "line 6: undeclared state '7'"),
            ("0", "0", "trans 0 b 9", "line 6: undeclared state '9'"),
        ],
    )
    def test_parsed_input_is_refused_by_the_parser_first(self, initial, secret, trans, message):
        text = f"automaton g\nevents a\nstates 0 1\ninitial {initial}\nsecret {secret}\n{trans}\nend\n"
        with pytest.raises(ParseError) as caught:
            parse_document(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("build", ["frozenset", "set"])
    def test_an_empty_target_set_is_refused_after_the_entries_before_it(self, build):
        with pytest.raises(ValueError) as caught:
            _build(build, [0, 1], ["a"], {(0, "a"): [1], (1, "a"): []}, [0], [])
        assert str(caught.value) == "transition entries must be nonempty"
        with pytest.raises(ValueError) as caught:
            _build(build, [0, 1], ["a"], {(1, "a"): [], (0, "a"): [9]}, [0], [])
        assert str(caught.value) == "transition entries must be nonempty"
        # Automaton.nfa drops an empty entry instead.
        a = _build("nfa", [0, 1], ["a"], {(0, "a"): [1], (1, "a"): []}, [0], [])
        assert list(a.transitions) == [(0, as_label("a"))]

    @pytest.mark.parametrize(
        "table, initial, deterministic",
        [
            ({(0, "a"): [1], (1, "a"): [0]}, [0], True),
            ({(0, "a"): [1], (1, "a"): [0]}, [0, 1], False),  # two initial states
            ({(0, "a"): [1], (1, "a"): [0]}, [], False),  # none
            ({(0, "a"): [1], (1, "a"): [0, 1]}, [0], False),  # a move with two targets
            ({(0, "a"): [0, 1], (1, "a"): [0, 1]}, [0, 1], False),
            ({}, [1], True),
        ],
    )
    @pytest.mark.parametrize("build", ["frozenset", "set", "dfa", "nfa", "parsed"])
    def test_determinism_of_every_way_of_building(self, build, table, initial, deterministic):
        single = len(initial) == 1 and all(len(ys) == 1 for ys in table.values())
        if build == "dfa" and not single:
            return  # a DFA has one initial state and one target per move
        a = _build(build, [0, 1], ["a"], table, initial, [])
        assert a.deterministic is deterministic

    @pytest.mark.parametrize(
        "events, table",
        [
            # declared as str and as EventLabel, moves keyed by either
            (
                ["a", EventLabel("b"), EventLabel("a", Tag.INSERTED)],
                {(0, "a"): 1, (1, EventLabel("a")): 0, (0, EventLabel("a", Tag.INSERTED)): 0,
                 (1, "b"): 1},
            ),
            # a move keyed by str and one by its label: the later one stays
            (["a"], {(0, "a"): 1, (0, EventLabel("a")): 0}),
            # an event only a move names, as str or as a tagged label
            (["a"], {(0, "a"): 1, (1, "c"): 0}),
            ([EventLabel("a")], {(0, EventLabel("c", Tag.INSERTED_AFTER)): 0}),
        ],
        ids=["mixed", "both-keys", "move-only-str", "move-only-label"],
    )
    def test_dfa_is_nfa_of_the_one_target_table(self, events, table):
        def outcome(build):
            try:  # the events given once, as an iterator
                return build([0, 1], iter(events), table, 0)
            except ValueError as exc:
                return str(exc)

        by_dfa = outcome(Automaton.dfa)
        by_nfa = outcome(lambda states, events, table, x0: Automaton.nfa(
            states, events, {key: [y] for key, y in table.items()}, [x0]
        ))
        assert by_dfa == by_nfa
        if isinstance(by_dfa, Automaton):
            assert by_dfa.deterministic
            assert all(type(e) is EventLabel for e in by_dfa.events)
            assert all(type(e) is EventLabel for _, e in by_dfa.transitions)

    def test_transition_endpoints_must_be_declared(self):
        with pytest.raises(ValueError):
            Automaton.dfa([0], ["a"], {(0, "a"): 1}, 0)
        with pytest.raises(ValueError):
            Automaton.dfa([0, 1], ["b"], {(0, "a"): 1}, 0)

    def test_secret_and_initial_must_be_states(self):
        with pytest.raises(ValueError):
            Automaton.dfa([0], ["a"], {}, 1)
        with pytest.raises(ValueError):
            Automaton.dfa([0], ["a"], {}, 0, secret=[5])


class TestCallerTable:
    """``Automaton(...)`` reads the table it is given and keeps none of it."""

    def test_mutating_the_table_afterwards_changes_nothing(self):
        a = as_label("a")
        table = {(0, a): frozenset({1})}
        built = Automaton(frozenset({0, 1}), frozenset({a}), table, frozenset({0}))
        twin = Automaton(frozenset({0, 1}), frozenset({a}), dict(table), frozenset({0}))
        table[(1, a)] = frozenset({0})
        table[(0, a)] = frozenset({0})
        assert built.transitions == {(0, a): frozenset({1})} == twin.transitions
        assert built.moves == {a: {0: frozenset({1})}}
        assert built == twin
        back = pickle.loads(pickle.dumps(built))
        assert back.transitions == built.transitions and back.moves == built.moves
        assert pickle.dumps(built) == pickle.dumps(twin)

    def test_a_plain_tuple_key_becomes_the_declared_label(self):
        # A (symbol, tag) tuple equals the label it spells; the move keeps
        # the declared label object, so the text writer reads its symbol.
        g = Automaton(frozenset({0, 1}), frozenset({"a"}), {(0, ("a", 0)): {1}}, frozenset({0}))
        (key,) = g.moves
        assert type(key) is EventLabel and key == as_label("a")
        assert "\ntrans 0 a 1\n" in emit_automaton(g)


SYMBOLS = "abc"
# An int or bytes symbol is neither a str nor a label: one SYMBOL_OR_LABEL draw in twenty.
STRANGE = st.sampled_from([0, 2, b"a", b"c"])
SYMBOL_OR_LABEL = st.sampled_from([False] * 19 + [True]).flatmap(
    lambda strange: STRANGE
    if strange
    else st.sampled_from(SYMBOLS) | st.builds(EventLabel, st.sampled_from(SYMBOLS))
)
LABELS = SYMBOL_OR_LABEL | st.builds(EventLabel, st.sampled_from(SYMBOLS), st.sampled_from(Tag))
# A plain (symbol, tag) tuple, equal to the label it spells, as a move's key.
MOVE_LABELS = LABELS | st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(range(len(Tag))))
NEITHER = " is neither a str symbol nor an EventLabel"
NAMES = st.integers(0, 6)  # 6 is never declared below, so some names are unknown
TARGETS = st.tuples(st.sampled_from([set, frozenset, list, tuple]), st.lists(NAMES, max_size=3))


def _first_fault(states, events, table, initial, secret):
    """What ``Automaton(...)`` must refuse first, read by the rule the
    constructor documents, or None for an input it must build: the events
    as ``events`` iterates them, then the sets, then each entry."""
    strange = [e for e in events if not isinstance(e, (str, EventLabel))]
    if strange:
        return f"event {strange[0]!r}{NEITHER}"
    labels = set(map(as_label, events))
    if not set(initial) <= states:
        return "initial states must belong to the state set"
    if not set(secret) <= states:
        return "secret states must belong to the state set"
    for (x, e), ys in table.items():
        if x not in states:
            return f"transition source {state_display(x)!r} is not a state"
        if e not in labels:  # a plain tuple equal to a declared label is that label
            if not isinstance(e, (str, EventLabel)):
                return f"event {e!r}{NEITHER}"
            if as_label(e) not in labels:
                return f"transition label {as_label(e).display()!r} is not an event"
        if not ys:
            return "transition entries must be nonempty"
        if not set(ys) <= states:
            return "transition target outside the state set"
    return None


# The ValueErrors the deciders document: a nondeterministic system, stray
# constraint symbols and unknown observable labels; and an observable
# symbol that is neither a str nor a label ends with NEITHER.
DOCUMENTED = (
    "insertion analysis requires a deterministic automaton",
    "string-level checks require a deterministic automaton",
    "constraint symbols outside the alphabet: ",
    "observable labels must be a subset of the automaton's events",
)


class TestEveryInputEndsInAVerdictOrANamedError:
    """Whatever table, events and constraints a caller gives, the
    constructor refuses the first fault by name or every decider answers
    or raises only the ValueError it documents."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        states=st.sets(st.integers(0, 5), max_size=5),
        events=st.lists(LABELS, max_size=4),
        table=st.dictionaries(st.tuples(NAMES, MOVE_LABELS), TARGETS, max_size=8),
        initial=st.sets(NAMES, max_size=2),
        secret=st.sets(NAMES, max_size=2),
        before=st.lists(SYMBOL_OR_LABEL, max_size=2),
        after=st.lists(SYMBOL_OR_LABEL, max_size=2),
        observable=st.lists(SYMBOL_OR_LABEL, max_size=3),
    )
    # Random tables seldom build, so the plain tuple key is also given.
    @example(
        states={0, 1}, events=["a"], table={(0, ("a", 0)): (set, [1])}, initial={0},
        secret=set(), before=[], after=[], observable=[],
    )
    def test_any_input(self, states, events, table, initial, secret, before, after, observable):
        table = {key: kind(ys) for key, (kind, ys) in table.items()}
        events = frozenset(events)
        fault = _first_fault(states, events, table, initial, secret)
        try:
            g = Automaton(frozenset(states), events, table, frozenset(initial), frozenset(secret))
        except ValueError as exc:
            assert str(exc) == fault
            return
        assert fault is None
        # a list, not a set union, which would keep the declared label and
        # drop an equal plain tuple that moves held
        assert all(type(e) is EventLabel for e in [*g.events, *g.moves])
        assert all(type(ys) is frozenset for row in g.moves.values() for ys in row.values())
        # a plain tuple key equals the label it spells
        labels = {e: e if isinstance(e, tuple) else as_label(e) for _, e in table}
        assert g.transitions == {(x, labels[e]): frozenset(ys) for (x, e), ys in table.items()}
        c = InsertionConstraints.of(before, after)
        deciders = [
            lambda: check_current_state_opacity(g, observable),
            lambda: ei_report("g", check_ei_enforceable(g)),
            lambda: eic_report("g", check_eic_enforceable(g, c), c),
            lambda: oracle_ei_enforceable(g),
            lambda: oracle_eic_enforceable(g, c),
        ]
        for decide in deciders:
            try:
                decide()
            except ValueError as exc:
                assert str(exc).startswith(DOCUMENTED) or str(exc).endswith(NEITHER), exc


def _build(how, states, events, table, initial, secret):
    """The automaton of ``table``, which maps (state, symbol) keys to lists of
    targets, built with frozenset or plain set targets by the constructor, by
    ``Automaton.dfa`` or ``Automaton.nfa``, or parsed from its text."""
    if how == "dfa":
        (start,) = initial
        return Automaton.dfa(states, events, {k: ys[0] for k, ys in table.items()}, start, secret)
    if how == "nfa":
        return Automaton.nfa(states, events, table, initial, secret)
    if how == "parsed":
        g = Automaton.nfa(states, events, table, initial, secret)
        return parse_document(emit_automaton(g)).automaton
    targets = frozenset if how == "frozenset" else set
    transitions = {(x, as_label(e)): targets(ys) for (x, e), ys in table.items()}
    return Automaton(
        frozenset(states), frozenset(map(as_label, events)), transitions,
        frozenset(initial), frozenset(secret),
    )


class TestSortedStates:
    def test_mixed_state_kinds_sort_by_display(self):
        # display order is lexicographic, so it never compares raw states
        pairs = sorted_states([3, 11, 2])
        assert pairs == [11, 2, 3]

    def test_state_display_uses_display_method_when_present(self, g1):
        assert state_display(4) == "4"


class TestStronglyConnectedComponents:
    """Tarjan partition against hand cases and a quadratic oracle."""

    def test_two_cycles_and_a_bridge(self):
        p = strongly_connected_components(
            [1, 2, 3, 4], [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]
        )
        assert set(p.components) == {frozenset({1, 2}), frozenset({3, 4})}
        assert p.component_of[1] == p.component_of[2]
        assert p.component_of[3] == p.component_of[4]
        assert p.component_of[1] != p.component_of[3]

    def test_self_loop_and_isolated_singletons(self):
        p = strongly_connected_components([0, 1], [(0, 0)])
        assert set(p.components) == {frozenset({0}), frozenset({1})}

    def test_every_node_lands_in_exactly_one_component(self):
        p = strongly_connected_components(
            ["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")]
        )
        assert set(p.component_of) == {"x", "y", "z"}
        assert len(p.components) == 1

    def test_dangling_edge_endpoint_rejected(self):
        with pytest.raises(ValueError):
            strongly_connected_components([0], [(0, 1)])

    def test_partition_is_deterministic(self):
        nodes = list(range(12))
        edges = [(i, (i * 5 + 3) % 12) for i in nodes] + [(7, 2), (2, 7)]
        first = strongly_connected_components(nodes, edges)
        second = strongly_connected_components(list(reversed(nodes)), edges)
        assert first.components == second.components

    def test_agrees_with_quadratic_reachability(self):
        # same-component iff mutually reachable, checked by per-node BFS
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randrange(2, 16)
            nodes = list(range(n))
            edges = [
                (u, v)
                for u in nodes
                for v in nodes
                if rng.random() < 0.15
            ]
            p = strongly_connected_components(nodes, edges)
            reach = {u: _bfs(nodes, edges, u) for u in nodes}
            for u in nodes:
                for v in nodes:
                    together = p.component_of[u] == p.component_of[v]
                    mutual = v in reach[u] and u in reach[v]
                    assert together == mutual, (seed, u, v)


def _bfs(nodes, edges, start):
    adjacency = {u: [] for u in nodes}
    for u, v in edges:
        adjacency[u].append(v)
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen
