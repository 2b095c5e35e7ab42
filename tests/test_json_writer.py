"""The command line's indented JSON writer (``cli._indented_json``) writes
exactly what ``json.dumps(value, indent=2, sort_keys=True)`` writes, and
refuses with ``TypeError`` what it refuses.  A parameter anywhere in the
tree is written as ``json.dumps`` writes its ``cli.param_to_json`` object,
and a character as it writes the object of its four fields."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympacket import characters, cli, membership
from sympacket.characters import PacketCharacter
from sympacket.params import ArthurParameter, DiscreteBlock, UnipotentBlock


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


# every member of every pi_n(m) and sigma_{n,k} packet at ranks 1-7
MEMBERS = sorted({
    psi
    for n in range(1, 8)
    for packets in [membership.enumerate_packets_pi(n, m) for m in range(n + 1)]
    + [membership.enumerate_packets_sigma(n, k) for k in range(1, n // 2 + 1)]
    for psi, _ in packets
})
# user-built: any ints (bools too, which equal 1 and 0 as tuple fields), in
# any number of blocks of each kind, the discrete part often empty
FIELDS = st.one_of(st.integers(-3, 12), st.booleans())
USER_BUILT = st.builds(
    ArthurParameter,
    st.integers(0, 12),
    st.lists(st.builds(UnipotentBlock, FIELDS, FIELDS), max_size=4).map(tuple),
    st.lists(st.builds(DiscreteBlock, FIELDS, FIELDS), max_size=3).map(tuple),
)
# enumerated members, the same members as the wire reader returns them, and
# user-built parameters
PARAMETERS = st.one_of(
    st.sampled_from(MEMBERS),
    st.sampled_from(MEMBERS).map(lambda psi: cli.param_from_json(cli.param_to_json(psi))),
    USER_BUILT,
)
# both characters of every member at ranks 1-6
MEMBER_CHARACTERS = [
    rho(psi, n, v, delta)
    for n in range(1, 7)
    for rho, enumerate_packets, values in (
        (characters.rho_pi_general, membership.enumerate_packets_pi, range(n + 1)),
        (characters.rho_sigma_general, membership.enumerate_packets_sigma, range(1, n // 2 + 1)),
    )
    for v in values
    for psi, _ in enumerate_packets(n, v)
    for delta in (1, -1)
]
# every printed row at ranks 1-6, VANISHING ones among them
TABLE_ROWS = [
    characters.rho_unipotent_table(form, n, m, which, delta)
    for form in characters.TABLE_FORMS
    for which in characters.TABLE_COLUMNS
    for n in range(1, 7)
    for m in range(1, n + 1)
    for delta in (1, -1)
]
# user-built: blocks of either class with any int or bool fields, so that
# equal blocks differ in class or field type
USER_CHARACTERS = st.lists(
    st.one_of(st.builds(UnipotentBlock, FIELDS, FIELDS), st.builds(DiscreteBlock, FIELDS, FIELDS)),
    max_size=4,
).flatmap(lambda blocks: st.builds(
    PacketCharacter,
    st.sampled_from([1, -1]),
    st.just(tuple(blocks)),
    st.lists(st.sampled_from([1, -1]), min_size=len(blocks), max_size=len(blocks)).map(tuple),
    st.lists(TEXT, max_size=2).map(tuple),
))
CHARACTERS = st.one_of(
    st.sampled_from(MEMBER_CHARACTERS), st.sampled_from(TABLE_ROWS), USER_CHARACTERS
)
TREES = st.recursive(st.one_of(SCALARS, PARAMETERS, CHARACTERS), _containers, max_leaves=30)


def _wire(value):
    """The tree with each parameter and character replaced by its wire
    object."""
    if isinstance(value, ArthurParameter):
        return cli.param_to_json(value)
    if isinstance(value, PacketCharacter):
        return {
            "whittaker": value.whittaker,
            "blocks": [cli._block_to_json(b) for b in value.blocks],
            "signs": list(value.signs),
            "flags": list(value.flags),
        }
    if isinstance(value, dict):
        return {key: _wire(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wire(item) for item in value]
    return value


SHARED = ArthurParameter(3, (UnipotentBlock(1, 3), UnipotentBlock(0, 1)), (DiscreteBlock(1, 2),))
VANISHING = [row for row in TABLE_ROWS if row.flags]


def _character(*blocks):
    return PacketCharacter(1, blocks, (1,) * len(blocks))


@given(TREES)
@example(MEMBERS[0])
@example([SHARED, [SHARED, {"deeper": [SHARED]}], {"a": SHARED}])
@example(ArthurParameter(0, (UnipotentBlock(0, 1),)))
@example([ArthurParameter(2, (UnipotentBlock(1, 1),), (DiscreteBlock(1, 2),)),
          ArthurParameter(2, (UnipotentBlock(True, True),), (DiscreteBlock(True, 2),)),
          ArthurParameter(2, (UnipotentBlock(1, 2),), (DiscreteBlock(1, 2),))])
@example([_character(UnipotentBlock(1, 1), DiscreteBlock(1, 2)),
          _character(UnipotentBlock(True, True), DiscreteBlock(True, 2))])
@example([_character(UnipotentBlock(1, 3)), _character(DiscreteBlock(1, 3)),
          {"rows": [MEMBER_CHARACTERS[-1], VANISHING[0]]}])
@settings(max_examples=200, deadline=None)
def test_writer_writes_parameters_as_their_wire_objects(value):
    expected = _outcome(lambda v: json.dumps(_wire(v), indent=2, sort_keys=True), value)
    assert _outcome(cli._indented_json, value) == expected
