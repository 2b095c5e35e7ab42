"""The frozen records of ``weights._record`` against dataclass twins.

Each record is compared with a ``dataclasses.make_dataclass`` twin of the
same fields, defaults and flags (``frozen=True``, ``order`` as the record
has it, ``slots=True`` where it declares ``__slots__``), carrying the
record's own ``__post_init__``: the attributes it holds, ``repr``, ``==`` and
``!=`` within a class and across classes, ``hash``, ordering or its
``TypeError``, ``FrozenInstanceError`` on set and delete,
``__match_args__``, keyword construction, defaults and a missing argument.
"""

import dataclasses
import inspect
import operator

import pytest

from sympacket import characters, cohomology, langlands, membership, quadforms, tableaux
from sympacket import weights
from sympacket.params import ArthurParameter, DiscreteBlock, UnipotentBlock

U, D = UnipotentBlock, DiscreteBlock
PSI = ArthurParameter(0, (U(0, 1),))
ORTH = weights.OrthRepLabel((1, 0), 1)
DET = weights.OrthRepLabel((0, 0), -1)
V, W = cohomology.HalfIntVector((1, -1)), cohomology.HalfIntVector((2, 0))

# record class, order, two sets of field values (the second differs)
RECORDS = [
    (characters.ComponentGroup, False,
     ((U(0, 1),), (1,)), ((D(2, 1), U(1, 3)), (2, 1))),
    (characters.PacketCharacter, False,
     (1, (U(0, 1),), (1,), ()), (-1, (D(2, 1), D(2, 1)), (1, -1), ("VANISHING",))),
    (membership.Peel, False, (0, PSI, 1, 1), (1, PSI, 2, 1)),
    (weights.HighestWeight, True, ((2, 1),), ((3, 3),)),
    (weights.InfinitesimalCharacter, True, ((1, 0, -1),), ((2, 0, -2),)),
    (weights.Unitarity, False, (True, 1, 0), (False, 2, 1)),
    (weights.OrthRepLabel, False, ((1, 0), 1), ((), -1)),
    (weights.HoweSource, False, ("a", 2, ORTH, None, None), ("d", 3, ORTH, 2, DET)),
    (cohomology.HalfIntVector, False, ((1, -1),), ((2,),)),
    (cohomology.RhoVectors, False, (V, V, V, W, W, 1), (W, V, V, W, W, 2)),
    (cohomology.InductionWeight, False, (3, 1, 2, 1), (5, 2, 0, -1)),
    (cohomology.AqLambda, False,
     (1, weights.HighestWeight((2, 1)), (0, 1), (-1, -1)),
     (0, weights.HighestWeight((1,)), (1,), (0,))),
    (langlands.StandardModule, False, (((0, 2), (1, 1)), 1), ((), 3)),
    (quadforms.OrthCharacter, False, (0, 1, 1, (0, 1)), (1, 0, -1, (1, 1))),
    (tableaux.SignedTableau, False, (((2, 1), (1, 1), (1, -1)),), (((1, 1), (1, -1)),)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def _slotted(cls):
    return "__slots__" in vars(cls)


def _defaults(cls):
    """The fields' defaults: the class attributes, or, where the class
    declares ``__slots__`` (a slot's class attribute is its descriptor),
    those of its own ``__init__``."""
    if _slotted(cls):
        parameters = inspect.signature(cls.__init__).parameters.values()
        return {p.name: p.default for p in parameters if p.default is not p.empty}
    return {name: vars(cls)[name] for name in cls.__annotations__ if name in vars(cls)}


def _twin(cls, order, slots=None):
    """The dataclass a record stands in for; with slots where the record
    has them, unless ``slots`` says otherwise."""
    defaults = _defaults(cls)
    spec = [
        (name, object, dataclasses.field(default=defaults[name]))
        if name in defaults else (name, object)
        for name in cls.__annotations__
    ]
    namespace = {}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.make_dataclass(
        cls.__name__, spec, namespace=namespace, frozen=True, order=order,
        slots=_slotted(cls) if slots is None else slots)


def _held(record):
    """The attributes a record holds, in order: its ``__dict__``, or the
    values of its slots where it has none."""
    if hasattr(record, "__dict__"):
        return list(vars(record).items())
    return [(name, getattr(record, name)) for name in type(record).__slots__]


def _outcome(action):
    """What an action returns, or the type and message of what it raises."""
    try:
        return ("value", action())
    except Exception as exc:  # the outcome itself is compared
        return (type(exc), str(exc))


def test_there_are_fifteen_records():
    assert len(RECORDS) == 15
    assert all(not dataclasses.is_dataclass(cls) for cls, *_ in RECORDS)


@pytest.mark.parametrize("cls, order, a, b", RECORDS, ids=IDS)
def test_record_behaves_as_its_dataclass(cls, order, a, b):
    twin = _twin(cls, order)
    x, y, x2 = cls(*a), cls(*b), cls(*a)
    tx, ty, tx2 = twin(*a), twin(*b), twin(*a)

    assert repr(x) == repr(tx) and repr(y) == repr(ty)
    assert _held(x) == _held(tx)
    # == and != within the class
    assert (x == x2, x != x2, x == y, x != y) == (tx == tx2, tx != tx2, tx == ty, tx != ty)
    assert (x == x2, x == y) == (True, False)
    # and across classes: the twin, the tuple of fields, a subclass
    assert (x == tx, x != tx, tx == x) == (False, True, False)
    assert x.__eq__(tx) is NotImplemented and tx.__eq__(x) is NotImplemented
    assert x != a and tx != a
    sub, twin_sub = type("Sub", (cls,), {}), type("Sub", (twin,), {})
    assert (sub(*a) == x, repr(sub(*a))) == (twin_sub(*a) == tx, repr(twin_sub(*a)))
    assert hash(x) == hash(tx) == hash(x2) and hash(y) == hash(ty)
    assert {x, x2, y} == {x, y}

    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for p, q, tp, tq in ((x, y, tx, ty), (y, x, ty, tx), (x, x2, tx, tx2)):
            assert _outcome(lambda: compare(p, q)) == _outcome(lambda: compare(tp, tq))
        assert _outcome(lambda: compare(x, tx))[0] is TypeError
    if not order:
        assert _outcome(lambda: x < y)[0] is TypeError

    # a slotted frozen dataclass's ``__setattr__`` and ``__delattr__`` name
    # the class as it was before its slots were added, and raise TypeError
    # for a name that is not a field (CPython 3.11 does); so setting and
    # deleting are compared with the twin without slots
    name = cls.__match_args__[0]
    frozen = _twin(cls, order, slots=False)
    frozen_sub = type("Sub", (frozen,), {})
    for record, dc in ((x, frozen(*a)), (sub(*a), frozen_sub(*a))):
        for attr in (name, "extra"):
            assert _outcome(lambda: setattr(record, attr, 0)) == _outcome(lambda: setattr(dc, attr, 0))
            assert _outcome(lambda: delattr(record, attr)) == _outcome(lambda: delattr(dc, attr))
    assert _outcome(lambda: setattr(x, name, 0))[0] is dataclasses.FrozenInstanceError
    assert _outcome(lambda: delattr(x, name))[0] is dataclasses.FrozenInstanceError
    assert _held(x) == _held(tx)

    assert cls.__match_args__ == twin.__match_args__ == tuple(cls.__annotations__)
    keywords = dict(zip(cls.__match_args__, a))
    assert cls(**keywords) == x and repr(cls(**keywords)) == repr(twin(**keywords))
    first, *rest = a
    assert cls(first, **dict(zip(cls.__match_args__[1:], rest))) == x


@pytest.mark.parametrize("cls, order, a, b", RECORDS, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, order, a, b):
    twin = _twin(cls, order)
    names = cls.__match_args__
    required = [name for name in names if name not in _defaults(cls)]
    for args, kwargs in (((), {}), (a + (0,), {}), (a, {names[0]: a[0]}),
                         (a, {"bogus": 1})):
        got, want = _outcome(lambda: cls(*args, **kwargs)), _outcome(lambda: twin(*args, **kwargs))
        assert got[0] is want[0] is TypeError, (args, kwargs)
    missing = _outcome(lambda: cls())
    assert repr(required[0]) in missing[1] and "missing" in missing[1]


def test_defaults_are_the_class_attributes():
    orth = weights.OrthRepLabel((1,), 1)
    source = weights.HoweSource("a", 1, orth)
    assert (source.alt_ell, source.alt_orep) == (None, None)
    assert source == weights.HoweSource("a", 1, orth, None, None)
    assert repr(source) == repr(_twin(weights.HoweSource, False)("a", 1, orth))
    char = characters.PacketCharacter(1, (U(0, 1),), (1,))
    assert char.flags == () and char == characters.PacketCharacter(1, (U(0, 1),), (1,), ())
    with pytest.raises(TypeError, match="'signs'"):
        characters.PacketCharacter(1, (U(0, 1),))


def test_post_init_runs_and_is_looked_up_at_each_call(monkeypatch):
    with pytest.raises(ValueError, match="sign must be"):
        weights.OrthRepLabel((1, 0), 2)
    assert tableaux.SignedTableau(((1, -1), (2, 1))).rows == ((2, 1), (1, -1))
    seen = []
    monkeypatch.setattr(weights.OrthRepLabel, "__post_init__", lambda label: seen.append(label))
    label = weights.OrthRepLabel((1, 0), 2)
    assert seen == [label]


def test_the_decorator_keeps_the_class_and_writes_no_source():
    class Pair:
        x: int
        y: int = 0

    assert weights._record(Pair) is Pair
    assert weights._record(order=True)(Pair) is Pair
    assert Pair(1) < Pair(1, 1) and Pair(y=2, x=1) == Pair(1, 2)
    for method in ("__init__", "__repr__", "__eq__", "__hash__", "__lt__", "__setattr__"):
        # a closure defined in weights.py, not code compiled from a string
        assert getattr(Pair, method).__code__.co_filename == weights.__file__
        assert getattr(Pair, method).__qualname__ == f"{Pair.__qualname__}.{method}"
    match Pair(3, 4):
        case Pair(a, b):
            assert (a, b) == (3, 4)
