"""Unitary highest weight modules of the real symplectic group of rank n.

A holomorphic module is labelled by a weakly decreasing integer tuple
``mu = (m_1 >= ... >= m_n)``; the module itself has lowest U(n)-type of
highest weight ``(-m_n, ..., -m_1)``.  This module provides:

* the exact unitarity criterion ``m_n >= n - (u + v/2)``, where ``u`` counts
  the entries equal to ``m_n`` and ``v`` those equal to ``m_n + 1``;
* infinitesimal characters, stored as decreasing integer multisets of odd
  length that are symmetric under negation;
* the scalar family ``pi_nm(n, m)`` and the near-scalar unipotent family
  ``sigma_nk(n, k)``, and ``module_of``, their one resolved ``Module``
  record (sigma_{2k,k} is pi_{2k}(k+1));
* the compact dual pair datum (rank of the definite even orthogonal group
  and the finite dimensional representation on it) whose theta lift realizes
  a given unitary highest weight module;
* the ladder invariant ``regular_a_max`` indexing the unitary highest weight
  modules attached to a regular integral infinitesimal character.

Everything is integer arithmetic; half-integers are avoided by doubling.

At the bottom of the package's imports, it also holds what every module
shares: ``_record``, the frozen record decorator the records use in place
of ``@dataclass``, the sign power ``_sign_pow``, and ``_echo``, a value as
a refusal names it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError
from operator import attrgetter, ge, gt, le, lt, neg
from typing import NamedTuple

__all__ = [
    "HighestWeight",
    "InfinitesimalCharacter",
    "Unitarity",
    "OrthRepLabel",
    "HoweSource",
    "classify_unitary",
    "inf_char_of_weight",
    "Module",
    "module_of",
    "pi_nm",
    "sigma_nk",
    "howe_source",
    "regular_a_max",
]


def _record(cls=None, /, *, order=False):
    """Class decorator making ``cls`` a frozen record, in place of
    ``@dataclass(frozen=True)``, or of ``@dataclass(frozen=True,
    order=True)`` with ``order``.

    The fields are the annotated names, in order; a class attribute of the
    same name is the field's default.  As a dataclass does, it adds
    ``__init__`` (unless the class writes its own), which calls
    ``self.__post_init__()`` where the class has one; ``__repr__``;
    ``__eq__`` and ``__hash__`` on the tuple of fields, ``==`` comparing
    only within one class; with ``order``, the four comparisons; and
    ``__match_args__``.  Setting or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``.  The methods are closures over the
    field names: no source is written and compiled, which is most of what a
    dataclass costs at import.  Instances keep their ``__dict__`` unless the
    class declares ``__slots__``; such a class writes its own ``__init__``
    with its defaults, since a slot's class attribute is its descriptor.
    """
    if cls is None:
        return lambda cls: _record(cls, order=order)
    names = tuple(cls.__annotations__)
    count = len(names)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = hasattr(cls, "__post_init__")
    if count == 1:
        one = attrgetter(names[0])

        def fields(record):
            return (one(record),)
    else:
        fields = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join([f"{name}={value!r}" for name, value in zip(names, fields(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = {"__repr__": __repr__, "__eq__": __eq__, "__hash__": __hash__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    if "__init__" not in vars(cls):
        methods["__init__"] = __init__
    if order:
        for name, compare in (("__lt__", lt), ("__le__", le), ("__gt__", gt), ("__ge__", ge)):
            methods[name] = _ordering(fields, compare)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__ = names
    return cls


def _ordering(fields, compare):
    """A comparison of two records of one class by their tuples of fields."""

    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(fields(self), fields(other))
        return NotImplemented

    return method


def _bind(qualname, names, defaults, args, kwargs):
    """The field values, in order, of a record built with keywords or with
    defaulted fields left out; ``TypeError`` where a dataclass's
    ``__init__`` raises it."""
    if len(args) > len(names):
        raise TypeError(f"{qualname}.__init__() takes {len(names) + 1} positional "
                        f"arguments but {len(args) + 1} were given")
    values = {**defaults, **dict(zip(names, args))}
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{qualname}.__init__() got an unexpected keyword argument {name!r}")
        if name in names[: len(args)]:
            raise TypeError(f"{qualname}.__init__() got multiple values for argument {name!r}")
        values[name] = value
    for name in names:
        if name not in values:
            raise TypeError(f"{qualname}.__init__() missing required argument: {name!r}")
    return [values[name] for name in names]


def _sign_pow(k: int) -> int:
    """(-1)**k for possibly negative k."""
    return -1 if k % 2 else 1


# the longest ``repr`` of a value that a refusal echoes whole
_ECHO_LIMIT = 80


def _echo(value: object) -> str:
    """``repr(value)`` for a refusal, whole when it has at most
    ``_ECHO_LIMIT`` characters; a longer one is cut there and followed by the
    value's type and length (of its ``repr`` where the value has no
    ``len``), so a hostile value cannot inflate the message."""
    text = repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    try:
        size = len(value)
    except TypeError:
        size = len(text)
    return f"{text[:_ECHO_LIMIT]}... ({type(value).__name__} of length {size})"


def _not_integer(values: tuple) -> ValueError:
    """The error refusing the first value that is not an ``int``: a float,
    a string or a bool is not truncated or converted."""
    bad = next(x for x in values if type(x) is not int)
    return ValueError(f"entries must be integers, got {bad!r}")


@_record(order=True)
class HighestWeight:
    """Weakly decreasing integer tuple labelling a holomorphic module."""

    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(entries)
        if set(map(type, entries)) - {int}:
            raise _not_integer(entries)
        if not entries:
            raise ValueError("rank must be positive")
        if any(map(lt, entries, entries[1:])):
            raise ValueError(f"entries must be weakly decreasing: {entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)


@_record(order=True)
class InfinitesimalCharacter:
    """Integral infinitesimal character of a rank-n module.

    Stored as a decreasing tuple of 2n+1 integers, closed under negation,
    with 0 occurring an odd number of times.  Equality of two characters is
    equality of the underlying multisets.
    """

    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        values = tuple(entries)
        if set(map(type, values)) - {int}:
            raise _not_integer(values)
        entries = tuple(sorted(values, reverse=True))
        if len(entries) % 2 == 0:
            raise ValueError("length must be odd")
        # sorted and of odd length, it is closed under negation exactly when
        # it reads the same negated and reversed; 0 is then its middle entry
        # and occurs an odd number of times
        if entries != tuple(map(neg, reversed(entries))):
            if entries.count(0) % 2 == 0:
                raise ValueError("0 must occur with odd multiplicity")
            raise ValueError("multiset must be symmetric under negation")
        object.__setattr__(self, "entries", entries)

    @property
    def rank(self) -> int:
        return (len(self.entries) - 1) // 2

    def positive_part(self) -> tuple[int, ...]:
        return tuple(x for x in self.entries if x > 0)

    def multiplicity(self, value: int) -> int:
        return sum(1 for x in self.entries if x == value)

    def is_regular(self) -> bool:
        """No repeated entries: positive entries distinct and 0 simple."""
        counts = Counter(self.entries)
        return all(c == 1 for c in counts.values())


@_record
class Unitarity:
    """Outcome of the unitarity test, with the two counting invariants."""

    unitary: bool
    u: int
    v: int


def classify_unitary(mu: HighestWeight) -> Unitarity:
    """Decide unitarizability of the highest weight module labelled by mu.

    With ``u = #{i : m_i = m_n}`` and ``v = #{i : m_i = m_n + 1}``, the module
    is unitary exactly when ``m_n >= n - (u + v/2)``.  The comparison is done
    on doubled integers so the half is exact.
    """
    last = mu.entries[-1]
    u = sum(1 for x in mu.entries if x == last)
    v = sum(1 for x in mu.entries if x == last + 1)
    unitary = 2 * last >= 2 * mu.n - 2 * u - v
    return Unitarity(unitary, u, v)


def inf_char_of_weight(mu: HighestWeight) -> InfinitesimalCharacter:
    """Infinitesimal character of the module with highest weight label mu.

    It is the multiset ``{m_i - i} ∪ {-(m_i - i)} ∪ {0}`` arranged in
    decreasing order.
    """
    return InfinitesimalCharacter(_inf_char_entries(mu.entries))


def _inf_char_entries(weight: tuple[int, ...]) -> tuple[int, ...]:
    """The entries of ``inf_char_of_weight`` for the weight tuple, without
    building either object; the tuple is not checked."""
    shifts = [m - i for i, m in enumerate(weight, start=1)]
    return tuple(sorted(shifts + [-s for s in shifts] + [0], reverse=True))


class Module(NamedTuple):
    """pi_n(m) (family "pi", value m) or sigma_{n,k} with n > 2k (family
    "sigma", value k), as ``module_of`` builds it, in O(1)."""

    family: str
    n: int
    value: int

    def weight(self) -> tuple[int, ...]:
        """(m, ..., m), or 2k entries k+1 followed by n-2k entries k."""
        if self.family == "pi":
            return (self.value,) * self.n
        k = self.value
        return (k + 1,) * (2 * k) + (k,) * (self.n - 2 * k)

    def inf_char(self) -> tuple[int, ...]:
        """The entries of its infinitesimal character."""
        return _inf_char_entries(self.weight())


def module_of(family: str, n: int, value: int) -> Module:
    """pi_n(value) (family "pi", 0 <= m <= n) or sigma_{n,value} (family
    "sigma", 2 <= 2k <= n); anything else, a bool or float included, is
    refused.  The one place where sigma_{2k,k} becomes pi_{2k}(k+1): their
    weights coincide.  Rank 0, the trivial group's, is a scalar module here;
    ``pi_nm`` refuses it.
    """
    if family not in ("pi", "sigma"):
        raise ValueError(f"family must be 'pi' or 'sigma', got {family!r}")
    if type(n) is not int or type(value) is not int:
        raise ValueError(f"rank and value must be int, got n={n!r}, value={value!r}")
    if family == "pi":
        if n < 0:
            raise ValueError("rank must be positive")
        if not 0 <= value <= n:
            raise ValueError(f"need 0 <= m <= n, got m={value}, n={n}")
        return Module(family, n, value)
    if value < 1 or 2 * value > n:
        raise ValueError(f"need 2 <= 2k <= n, got k={value}, n={n}")
    if 2 * value == n:
        return Module("pi", n, value + 1)
    return Module(family, n, value)


def pi_nm(n: int, m: int) -> HighestWeight:
    """Scalar weight (m, ..., m) of rank n, restricted to 0 <= m <= n.

    Larger m gives holomorphic discrete series, which live outside the range
    handled here.
    """
    if type(n) is int and n < 1:  # module_of refuses a rank that is not an int
        raise ValueError("rank must be positive")
    return HighestWeight(module_of("pi", n, m).weight())


def sigma_nk(n: int, k: int) -> HighestWeight:
    """Near-scalar weight with 2k entries k+1 followed by n-2k entries k."""
    return HighestWeight(module_of("sigma", n, k).weight())


@_record
class OrthRepLabel:
    """Finite dimensional representation of a compact even orthogonal group.

    ``entries`` is the highest weight of (a constituent of) the restriction
    to the special orthogonal subgroup; ``sign`` distinguishes the two
    extensions to the full orthogonal group and is stored verbatim.
    """

    entries: tuple[int, ...]
    sign: int  # +1 or -1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def is_det_type(self) -> bool:
        """True when the label is the determinant character."""
        return self.sign == -1 and all(x == 0 for x in self.entries)


@_record
class HoweSource:
    """Dual pair datum realizing a unitary highest weight module.

    The module is the theta lift from the rank-``ell`` definite even
    orthogonal group of the representation ``orep``.  In the range where a
    second, smaller-rank realization exists, it is reported through the
    ``alt_*`` fields.
    """

    case: str  # one of "a", "b'", "b''", "c", "d"
    ell: int
    orep: OrthRepLabel
    alt_ell: int | None = None
    alt_orep: OrthRepLabel | None = None


def howe_source(mu: HighestWeight) -> HoweSource:
    """Locate a unitary highest weight module in the theta correspondence.

    The case split is driven by ``a = n - m_n`` against the invariants u, v:

    * ``m_n > n``: lift of ``[m_1-n, ..., m_n-n]_+`` from rank n (case "a");
    * ``a <= u``: lift of ``[m_1-l, ..., m_l-l]_+`` with ``l = m_n``;
      sub-case "b'" when ``a = u``, "b''" when ``u-1 <= 2a < 2u``, and "d"
      when ``2a <= u-2``, in which case the module is additionally the lift
      of a determinant-twisted label from rank ``m_n - 1``;
    * otherwise ``b = n - u - m_n >= 1`` and the module is the lift of
      ``[m_1-l, ..., m_{n-u-2b}-l, 0, ..., 0]_-`` (b zeros) from rank
      ``l = m_n`` (case "c").
    """
    cls = classify_unitary(mu)
    if not cls.unitary:
        raise ValueError("weight is not unitarizable")
    n = mu.n
    m = mu.entries
    last = m[-1]

    if last > n:
        return HoweSource("a", n, OrthRepLabel(tuple(x - n for x in m), +1))

    a = n - last
    if a <= cls.u:
        ell = last
        orep = OrthRepLabel(tuple(m[i] - ell for i in range(ell)), +1)
        if a == cls.u:
            return HoweSource("b'", ell, orep)
        if 2 * a >= cls.u - 1:
            return HoweSource("b''", ell, orep)
        alt_ell = last - 1
        head = 2 * alt_ell - n
        alt = OrthRepLabel(
            tuple(m[i] - alt_ell for i in range(head)) + (0,) * (n - alt_ell), -1
        )
        return HoweSource("d", ell, orep, alt_ell, alt)

    # b = a - u >= 1, and unitarity, 2 m_n >= 2n - 2u - v, gives v >= 2b
    b = n - cls.u - last
    ell = last
    head = n - cls.u - 2 * b
    orep = OrthRepLabel(tuple(m[i] - ell for i in range(head)) + (0,) * b, -1)
    return HoweSource("c", ell, orep)


def regular_a_max(chi: InfinitesimalCharacter) -> int:
    """Length of the terminal run (a, a-1, ..., 1) in a regular character.

    For a regular character with positive part ``chi_1 > ... > chi_n > 0``,
    the unitary highest weight modules with that infinitesimal character are
    indexed by ``0 <= a <= a_max`` where ``a_max = 0`` if ``chi_n != 1`` and
    otherwise is the largest a with ``(chi_{n-a+1}, ..., chi_n) = (a, ..., 1)``
    and either ``a = n`` or ``chi_{n-a} > a + 1``.
    """
    if not chi.is_regular():
        raise ValueError("character must be regular")
    pos = chi.positive_part()
    n = len(pos)
    if n == 0 or pos[-1] != 1:
        return 0
    a = 1
    while a < n and pos[n - a - 1] == a + 1:
        a += 1
    return a
