"""The command line's indented JSON writer (``cli._indented_json``) writes
exactly what ``json.dumps(value, indent=2, sort_keys=True)`` writes, and
refuses with ``TypeError`` what it refuses."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympacket import cli


class Record(dict):
    pass


class Row(list):
    pass


class Count(int):
    pass


# every code point, surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([True, 1, 1.0, False, 0, 0.0, -0.0]),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.integers().map(Count),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    TEXT,
)
# keys of one dict are all strings or all numbers, as sorting needs
NUMBER_KEYS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Row),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4).map(Record),
        st.dictionaries(NUMBER_KEYS, children, max_size=1),
        st.dictionaries(st.integers(), children, max_size=4),
    )


VALUES = st.recursive(SCALARS, _containers, max_leaves=30)


def _outcome(render, value):
    try:
        return render(value)
    except TypeError as exc:
        return type(exc)


@given(VALUES)
@example([True, 1, 1.0, {"1.0": 1.0, "true": True, "1": 1}])
@example({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "": [[], {}, ()]})
@example(["\ud800", "\udfff\ud800", "\x00\x1f\x7f", "\u2028\u00e9\U0001f600", 10**40, -(10**40)])
@example(Record(b=Row([Record()]), a=(Count(3),)))
@example({2: "two", 1.5: "one and a half", True: "one"})
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(value):
    expected = _outcome(lambda v: json.dumps(v, indent=2, sort_keys=True), value)
    assert _outcome(cli._indented_json, value) == expected


@pytest.mark.parametrize(
    "value",
    [object(), [1, object()], {"a": {"b": object()}}, {object(): 1}, {(1, 2): 0},
     {1: 0, "a": 0}, {None: 0, 1: 0}, {1, 2}, b"bytes"],
    ids=["object", "in-list", "in-dict", "object-key", "tuple-key", "mixed-keys",
         "none-and-int-keys", "set", "bytes"],
)
def test_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._indented_json(value)
