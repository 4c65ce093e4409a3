from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from veiler.constrained import InsertionConstraints, check_eic_enforceable
from veiler.fsm import Automaton
from veiler.insertion import check_ei_enforceable
from veiler.oracle import random_dfa
from veiler.report import _name_order, _verify_payload, ei_report, eic_report, to_json

SCALARS = st.none() | st.booleans() | st.integers() | st.text()
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
        # The JSON lists are written from the masks in (prefix rank, suffix
        # rank) order, or sorted pair by pair where names collide; the
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
            # Names with a comma, which force the sort, are drawn on a third
            # of the systems.
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
            order = _name_order(report.kernel)
            if order is None:
                collided += 1
            else:
                # The suffixes rank otherwise than the bare names do.
                names = report.kernel.actual_names
                bare = sorted(range(len(names)), key=names.__getitem__)
                ranked += 1
                reordered += order[1] != bare
        assert collided >= 30 and ranked >= 180 and reordered >= 40
