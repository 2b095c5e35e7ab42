"""Normalized invariants of real quadratic forms and even orthogonal
character combinatorics under the theta correspondence.

A nondegenerate real form diagonalizes to ±1 entries, hence is determined by
its signature (p, q).  Besides the determinant class, two normalized
invariants are used: the discriminant ``eta(p, q)`` and the Hasse invariant
``eps_delta(p, q)``, both unchanged by adding a hyperbolic plane.  The
normalization depends on a token delta in {+1, -1}.

For even p + q the characters of O(p, q) are tabulated with their
restrictions to O(p,0) x O(0,q) as a pair of determinant exponents; the
first occurrence of a character in the symplectic tower is
``x*p + y*q`` for restriction exponents (x, y), which gives the conservation
law n0(c) + n0(c⊗det) = p + q for free.  The lowest U(n)-type of the lift
(when nonzero) and the associated degree are computed exactly.
"""

from __future__ import annotations

from typing import Sequence

from .weights import _echo, _record, _sign_pow

__all__ = [
    "hilbert_symbol_real",
    "det_class",
    "discriminant",
    "hasse_normalized",
    "hasse_from_diagonal",
    "add_hyperbolic",
    "OrthCharacter",
    "o_characters",
    "tensor_det",
    "first_occurrence",
    "howe_ktype",
    "howe_degree",
]


def hilbert_symbol_real(a: int, b: int) -> int:
    """Real Hilbert symbol on sign classes: -1 iff both arguments negative."""
    if type(a) is not int or type(b) is not int or a not in (1, -1) or b not in (1, -1):
        raise ValueError("arguments are sign classes, +1 or -1")
    return -1 if (a < 0 and b < 0) else 1


def det_class(p: int, q: int) -> int:
    """Determinant class of the signature-(p, q) form: (-1)^q."""
    _check_signature(p, q)
    return _sign_pow(q)


def discriminant(p: int, q: int) -> int:
    """Normalized discriminant: (-1)^((p-q)/2), resp. (-1)^((p-q-1)/2)."""
    _check_signature(p, q)
    if (p + q) % 2 == 0:
        return _sign_pow((p - q) // 2)
    return _sign_pow((p - q - 1) // 2)


def hasse_normalized(p: int, q: int, delta: int) -> int:
    """Normalized Hasse invariant from the signature.

    (-1)^floor(delta (p-q)/4) for even p + q, with p - q - 1 in place of
    p - q in the odd case; the floor is the mathematical one.
    """
    _check_signature(p, q)
    if type(delta) is not int or delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    d = p - q if (p + q) % 2 == 0 else p - q - 1
    return _sign_pow((delta * d) // 4)


def hasse_from_diagonal(diag: Sequence[int], delta: int) -> int:
    """Normalized Hasse invariant computed from a ±1 diagonal.

    With E(Q) the product of Hilbert symbols over pairs of diagonal entries,

        eps_delta(Q) = (-delta, eta(Q)) (-1, D(Q))^(N(N-1)/2)
                       (-1,-1)^floor((floor(N/2)+1)/2) E(Q).
    """
    if type(delta) is not int or delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    entries = tuple(diag)
    if any(type(x) is not int or x not in (1, -1) for x in entries):
        raise ValueError("diagonal entries must be +1 or -1")
    N = len(entries)
    D = 1
    for x in entries:
        D *= x
    eta = _sign_pow(N * (N - 1) // 2) * D
    E = 1
    for i in range(N):
        for j in range(i + 1, N):
            E *= hilbert_symbol_real(entries[i], entries[j])
    value = hilbert_symbol_real(-delta, eta) * E
    if (N * (N - 1) // 2) % 2:
        value *= hilbert_symbol_real(-1, D)
    if ((N // 2 + 1) // 2) % 2:
        value *= hilbert_symbol_real(-1, -1)
    return value


def add_hyperbolic(p: int, q: int) -> tuple[int, int]:
    """Add a hyperbolic plane; the normalized invariants do not change."""
    _check_signature(p, q)
    return (p + 1, q + 1)


def _check_signature(p: int, q: int) -> None:
    """Refuse a signature entry that is not an ``int`` (a bool or a float
    included, as ``weights.module_of`` does) or that is negative."""
    if type(p) is not int or type(q) is not int:
        raise ValueError(f"signature entries must be int, got p={_echo(p)}, q={_echo(q)}")
    if p < 0 or q < 0:
        raise ValueError("signature entries must be nonnegative")


@_record
class OrthCharacter:
    """Character of O(p, q), (p + q even), as a spinor-norm label.

    ``eta`` is 0 (trivial) or 1 (sign), ``tau`` the determinant twist and
    ``delta`` the normalization token; ``restriction`` records the pair of
    determinant exponents of the restriction to O(p,0) x O(0,q).
    """

    eta: int
    tau: int
    delta: int
    restriction: tuple[int, int]

    def __post_init__(self) -> None:
        eta, tau, delta = self.eta, self.tau, self.delta
        if (type(eta) is not int or type(tau) is not int
                or eta not in (0, 1) or tau not in (0, 1)):
            raise ValueError("eta and tau must be 0 or 1")
        if type(delta) is not int or delta not in (1, -1):
            raise ValueError("delta must be +1 or -1")
        if type(self.restriction) is not tuple or len(self.restriction) != 2:
            raise ValueError(f"restriction must be a pair, got {_echo(self.restriction)}")
        x, y = self.restriction
        if type(x) is not int or type(y) is not int or x not in (0, 1) or y not in (0, 1):
            raise ValueError("restriction exponents must be 0 or 1")


def o_characters(p: int, q: int, delta: int = 1) -> list[OrthCharacter]:
    """Characters of O(p, q) for even p + q, with restriction data.

    Four characters when pq != 0, two (trivial and determinant) when the
    form is definite.  For eta = sign and delta = +1 the restriction is
    (det^((p-q)/2+1), det^((p-q)/2)) modulo 2, tensoring with det adding one
    to both exponents; delta = -1 swaps the two sign-type characters.
    """
    _check_signature(p, q)
    if (p + q) % 2 != 0:
        raise ValueError("p + q must be even")
    if type(delta) is not int or delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    chars: list[OrthCharacter] = []
    for tau in (0, 1):
        chars.append(OrthCharacter(0, tau, delta, (tau % 2, tau % 2)))
    if p == 0 or q == 0:
        return chars
    half = (p - q) // 2
    base = (half + 1, half) if delta == 1 else (half, half + 1)
    for tau in (0, 1):
        chars.append(
            OrthCharacter(1, tau, delta, ((base[0] + tau) % 2, (base[1] + tau) % 2))
        )
    return chars


def tensor_det(c: OrthCharacter) -> OrthCharacter:
    """Twist a character by the determinant (flip both restriction exponents)."""
    x, y = c.restriction
    return OrthCharacter(c.eta, (c.tau + 1) % 2, c.delta, ((x + 1) % 2, (y + 1) % 2))


def first_occurrence(c: OrthCharacter, p: int, q: int) -> int:
    """Smallest symplectic rank with nonzero theta lift of the character.

    Equals x*p + y*q for restriction exponents (x, y): zero for the trivial
    character, p + q for the determinant, and p or q for the sign-type
    characters.
    """
    _check_signature(p, q)
    x, y = c.restriction
    return x * p + y * q


def howe_ktype(c: OrthCharacter, p: int, q: int, n: int) -> tuple[int, ...] | None:
    """Lowest U(n)-type of the theta lift, or None below first occurrence.

    The weight is the scalar shift (p-q)/2 plus (1^x, 0^(n-x-y), (-1)^y)
    where x = p or 0 and y = q or 0 according to the restriction exponents.
    The rank n is a nonnegative int.
    """
    _check_signature(p, q)
    if (p + q) % 2 != 0:
        raise ValueError("p + q must be even")
    if type(n) is not int:
        raise ValueError(f"rank must be int, got n={_echo(n)}")
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    if n < first_occurrence(c, p, q):
        return None
    shift = (p - q) // 2
    rx, ry = c.restriction
    x = p if rx else 0
    y = q if ry else 0
    return (shift + 1,) * x + (shift,) * (n - x - y) + (shift - 1,) * y


def howe_degree(weight: Sequence[int], p: int, q: int) -> int:
    """Degree of a U(n)-type in the oscillator grading: sum |w_i - (p-q)/2|."""
    _check_signature(p, q)
    for w in weight:
        if type(w) is not int:
            raise ValueError(f"weight entries must be int, got {_echo(w)}")
    if (p - q) % 2 != 0:
        raise ValueError("p - q must be even")
    shift = (p - q) // 2
    return sum(abs(w - shift) for w in weight)
