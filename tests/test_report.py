from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veiler.constrained import InsertionConstraints, check_eic_enforceable
from veiler.dot import _ranked_digraph
from veiler.fsm import Automaton, state_display
from veiler.insertion import _count, check_ei_enforceable
from veiler.oracle import oracle_ei_enforceable, oracle_eic_enforceable, random_dfa
from veiler.report import (
    _base,
    _oracle_payload,
    _verify_payload,
    ei_report,
    eic_report,
    oracle_report,
    to_json,
)

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=25,
)


class TestToJson:
    @settings(max_examples=200, deadline=None)
    @given(PAYLOADS)
    def test_it_writes_what_json_dumps_writes(self, payload):
        assert to_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.text(),
            st.lists(st.text()) | st.dictionaries(st.text(), st.integers() | st.booleans()),
        )
    )
    def test_the_joined_shapes_match_too(self, payload):
        # Lists of strings and maps to ints take the one-join paths; a map
        # holding a bool must not.
        assert to_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(
        st.booleans(),
        st.lists(st.tuples(st.integers(), st.booleans(), st.booleans()), max_size=40),
    )
    def test_the_trials_text_is_what_json_dumps_writes(self, constrained, trials):
        # oracle-check writes its trials as JSON text; oracle_report reads
        # it back into the plain payload, one dict per trial.
        name = f"random[0:{len(trials)}]"
        plain = _base("oracle-check", name)
        plain["constrained"] = constrained
        plain["trials"] = [
            {"seed": seed, "construction": lhs, "search": rhs, "agree": lhs == rhs}
            for seed, lhs, rhs in trials
        ]
        plain["disagreements"] = sorted(seed for seed, lhs, rhs in trials if lhs != rhs)
        plain["agree"] = not plain["disagreements"]
        text = to_json(_oracle_payload(name, constrained, trials))
        assert text == json.dumps(plain, sort_keys=True, indent=2) + "\n"
        report = oracle_report(name, constrained, trials)
        assert report == plain
        assert all(type(trial) is dict for trial in report["trials"])


# State names for the renderer: characters JSON escapes, characters that
# sort below ")" and ",", commas, and plain names equal to decorated ones.
_NAMES = [
    "a", "a!", "a$", "a&", "a'", "a(", "ab", "a_a", "a_b", "1", "1_a", "1_ab",
    '"', "\\", "a\\", 'a"', "é", "中", "aé", "a,", "a,b", ",", "b,a",
]


def _named(g: Automaton, names: list) -> Automaton:
    """``g`` with its states, in sorted order, called ``names``."""
    rename = dict(zip(sorted(g.states), names))
    return Automaton(
        frozenset(rename.values()),
        g.events,
        {(rename[x], e): frozenset(rename[y] for y in ys) for (x, e), ys in g.transitions.items()},
        frozenset(rename[x] for x in g.initial),
        frozenset(rename[x] for x in g.secret),
    )


class TestPairLists:
    def test_hostile_names_match_the_per_pair_reference(self, per_pair_payload):
        # The JSON lists are written from the masks in (opening rank,
        # closing rank) order, and no list names two pairs alike; the
        # library's report reads the same text back.
        collided = ranked = reordered = 0
        for seed in range(240):
            rng = random.Random(seed)
            g = random_dfa(
                seed,
                n_states=2 + seed % 9,
                trans_density=(0.2, 0.5, 0.8)[seed % 3],
                live=seed % 4 < 2,
            )
            # Names with a comma, which the pair names escape, are drawn on a
            # third of the systems.
            pool = _NAMES if seed % 3 == 0 else [x for x in _NAMES if "," not in x]
            g = _named(g, rng.sample(pool, len(g.states)))
            name = f"h{seed}"
            if seed % 2:
                report, c = check_ei_enforceable(g), None
                library = ei_report(name, report)
            else:
                symbols = sorted(e.symbol for e in g.events)
                c = InsertionConstraints.of(
                    rng.sample(symbols, rng.randint(0, 3)), rng.sample(symbols, rng.randint(0, 3))
                )
                report = check_eic_enforceable(g, c)
                library = eic_report(name, report, c)
            expected = per_pair_payload(name, report, c)
            assert to_json(_verify_payload(name, report, c)) == to_json(expected), seed
            assert library == expected, seed
            lists = ("staying_nonblocking", "verifier_states", "admissible")
            masks = (report.staying_masks, report.verifier_masks, report.admissible_masks)
            collided += any(len(set(expected[key])) < _count(m) for key, m in zip(lists, masks))
            order = report.kernel.name_order
            # The closings rank otherwise than the names without their ")" do.
            closings = report.kernel.name_parts[1]
            bare = sorted(range(len(closings)), key=lambda a: closings[a][:-1])
            ranked += 1
            reordered += order[1] != bare
        assert collided == 0 and ranked >= 180 and reordered >= 40

    def test_states_of_one_display_name_are_decided_but_never_named(self):
        # States 1 and "1" both display as "1", so (1, "1") and ("1", 1)
        # would print alike: the verdict is made, and every pair list and
        # DOT file refuses to name the pairs.
        g = Automaton.dfa(
            [1, "1", 2], ["a"], {(1, "a"): "1", ("1", "a"): 2, (2, "a"): 1}, 1, secret=[2]
        )
        c = InsertionConstraints.of({"a"}, {"a"})
        ei, eic = check_ei_enforceable(g), check_eic_enforceable(g, c)
        assert ei.enforceable is oracle_ei_enforceable(g) is True
        assert eic.enforceable is oracle_eic_enforceable(g, c) is True
        # The library's pair objects are not refused, and display alike:
        # nine distinct pairs under four names, "(1,1)" four times.
        staying = ei.staying_nonblocking
        assert len(staying) == 9
        assert Counter(state_display(pair) for pair in staying) == {
            "(1,1)": 4, "(1,2)": 2, "(2,1)": 2, "(2,2)": 1
        }
        renderers = [
            lambda: ei_report("g", ei),
            lambda: eic_report("g", eic, c),
            lambda: _verify_payload("g", eic, c),
            lambda: "".join(_ranked_digraph("g", ei)),
            lambda: "".join(_ranked_digraph("g", eic)),
        ]
        for render in renderers:
            with pytest.raises(ValueError, match="^two states display as '1'"):
                render()

    def test_empty_alphabets_and_lists_match_the_per_pair_reference(self, per_pair_payload):
        # The lists read only the actual states that hold a pair, the
        # admissible list reads the staying list's table, and the phase
        # masks apply no insertion relation without a nonzero row: EIC runs
        # with no before-symbol, no after-symbol or neither, and reports
        # with no admissible pair or an empty verifier, written from the
        # masks in name order.  The staying list is never empty: the
        # initial pair stays.
        subsets = [[], ["a"], ["b", "c"], ["a", "b", "c"]]
        # Names that sort by their parts: no comma, and none a decorated other.
        pool = [x for x in _NAMES if "," not in x and "_" not in x]
        seen = Counter()
        for seed in range(256):
            rng = random.Random(seed)
            g = random_dfa(
                seed,
                n_states=2 + seed % 9,
                trans_density=(0.2, 0.5, 0.8)[seed % 3],
                secret_density=(0.3, 0.7)[seed // 3 % 2],
                live=seed % 4 < 2,
            )
            if seed % 2:
                g = _named(g, rng.sample(pool, len(g.states)))
            c = InsertionConstraints.of(subsets[seed // 4 % 4], subsets[seed // 16 % 4])
            report = check_eic_enforceable(g, c)
            name = f"e{seed}"
            expected = per_pair_payload(name, report, c)
            assert to_json(_verify_payload(name, report, c)) == to_json(expected), seed
            assert eic_report(name, report, c) == expected, seed
            assert report.kernel.name_order is not None, seed
            seen["no before"] += not c.before and bool(c.after)
            seen["no after"] += bool(c.before) and not c.after
            seen["neither"] += not c.before and not c.after
            seen["nothing admissible"] += not expected["admissible"]
            seen["no verifier"] += not expected["verifier_states"]
        assert seen["no before"] == seen["no after"] == 48 and seen["neither"] == 16, seen
        assert seen["nothing admissible"] >= 15 and seen["no verifier"] >= 15, seen
