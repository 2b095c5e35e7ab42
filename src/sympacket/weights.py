"""Unitary highest weight modules of the real symplectic group of rank n.

A holomorphic module is labelled by a weakly decreasing integer tuple
``mu = (m_1 >= ... >= m_n)``; the module itself has lowest U(n)-type of
highest weight ``(-m_n, ..., -m_1)``.  This module provides:

* the exact unitarity criterion ``m_n >= n - (u + v/2)``, where ``u`` counts
  the entries equal to ``m_n`` and ``v`` those equal to ``m_n + 1``;
* infinitesimal characters, stored as decreasing integer multisets of odd
  length that are symmetric under negation;
* the scalar family ``pi_nm(n, m)`` and the near-scalar unipotent family
  ``sigma_nk(n, k)``;
* the compact dual pair datum (rank of the definite even orthogonal group
  and the finite dimensional representation on it) whose theta lift realizes
  a given unitary highest weight module;
* the ladder invariant ``regular_a_max`` indexing the unitary highest weight
  modules attached to a regular integral infinitesimal character.

Everything is integer arithmetic; half-integers are avoided by doubling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

__all__ = [
    "HighestWeight",
    "InfinitesimalCharacter",
    "Unitarity",
    "OrthRepLabel",
    "HoweSource",
    "classify_unitary",
    "inf_char_of_weight",
    "pi_nm",
    "sigma_nk",
    "howe_source",
    "regular_a_max",
]


@dataclass(frozen=True, order=True)
class HighestWeight:
    """Weakly decreasing integer tuple labelling a holomorphic module."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))
        if not self.entries:
            raise ValueError("rank must be positive")
        if any(a < b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError(f"entries must be weakly decreasing: {self.entries}")

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, order=True)
class InfinitesimalCharacter:
    """Integral infinitesimal character of a rank-n module.

    Stored as a decreasing tuple of 2n+1 integers, closed under negation,
    with 0 occurring an odd number of times.  Equality of two characters is
    equality of the underlying multisets.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted((int(x) for x in self.entries), reverse=True))
        object.__setattr__(self, "entries", entries)
        if len(entries) % 2 == 0:
            raise ValueError("length must be odd")
        counts = Counter(entries)
        if counts[0] % 2 == 0:
            raise ValueError("0 must occur with odd multiplicity")
        for value, count in counts.items():
            if counts[-value] != count:
                raise ValueError("multiset must be symmetric under negation")

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


@dataclass(frozen=True)
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


def pi_nm(n: int, m: int) -> HighestWeight:
    """Scalar weight (m, ..., m) of rank n, restricted to 0 <= m <= n.

    Larger m gives holomorphic discrete series, which live outside the range
    handled here.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return HighestWeight((m,) * n)


def sigma_nk(n: int, k: int) -> HighestWeight:
    """Near-scalar weight with 2k entries k+1 followed by n-2k entries k."""
    if k < 1 or 2 * k > n:
        raise ValueError(f"need 2 <= 2k <= n, got k={k}, n={n}")
    return HighestWeight((k + 1,) * (2 * k) + (k,) * (n - 2 * k))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    b = n - cls.u - last
    if not (1 <= b and 2 * b <= cls.v):
        raise AssertionError("unitary weight escaped the case analysis")
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
