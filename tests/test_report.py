from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from veiler.report import to_json

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
