"""Exact weight combinatorics of the maximal theta-stable parabolic pairs.

For Sp(2n,R) the maximal theta-stable parabolic subalgebras are indexed by
pairs (p, q) with p + q <= n via the direction vector
``t_{p,q} = (1^p, 0^(n-p-q), (-1)^q)``; the Levi factor is
Sp(2(n-p-q),R) x U(p,q).  This module computes, in exact arithmetic over
doubled integers:

* the half-sums of roots in the Levi, in u ∩ p, u ∩ k and u, and their sum
  delta_{p,q}, together with S = dim(u ∩ k);
* the unitary-character differentials lambda(t) on the U(p, q) factor and
  the weak fairness test t >= 0;
* the lowest-K-type obstruction inequality deciding whether the scalar
  U(n)-type (-m, ..., -m) can occur in a module cohomologically induced
  through the pair, and its version for a general highest weight;
* the inducing character weights attached to the discrete blocks of an
  Arthur parameter (both printed variants are exposed);
* the A_q(lambda) datum of a unitary highest weight module with regular
  integral infinitesimal character.
"""

from __future__ import annotations

from fractions import Fraction

from .params import ArthurParameter
from .weights import (
    HighestWeight,
    InfinitesimalCharacter,
    _echo,
    _not_integer,
    _record,
    regular_a_max,
)

__all__ = [
    "HalfIntVector",
    "RhoVectors",
    "rho_vectors",
    "lambda_of",
    "weakly_fair",
    "ktype_inequality_scalar",
    "ktype_inequality_general",
    "InductionWeight",
    "induction_weights",
    "AqLambda",
    "aq_lambda_regular",
]


@_record
class HalfIntVector:
    """Vector with half-integer entries, stored as doubled integers."""

    doubled: tuple[int, ...]

    def __post_init__(self) -> None:
        doubled = tuple(self.doubled)
        if set(map(type, doubled)) - {int}:
            raise _not_integer(doubled)
        object.__setattr__(self, "doubled", doubled)

    def __len__(self) -> int:
        return len(self.doubled)

    def __add__(self, other: "HalfIntVector") -> "HalfIntVector":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return HalfIntVector(tuple(a + b for a, b in zip(self.doubled, other.doubled)))

    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, 2) for x in self.doubled)

    @property
    def is_integral(self) -> bool:
        return all(x % 2 == 0 for x in self.doubled)


@_record
class RhoVectors:
    """Half-sums of roots attached to the pair (p, q), plus S = dim(u ∩ k)."""

    delta_l: HalfIntVector
    delta_up: HalfIntVector
    delta_uk: HalfIntVector
    delta_u: HalfIntVector
    delta_pq: HalfIntVector
    S: int


def rho_vectors(n: int, p: int, q: int) -> RhoVectors:
    """Half-sums of the root sets of the (p, q) parabolic pair, in closed form.

    The positive system on the Levi is the one adapted to holomorphic
    induction: reversed on the first p coordinates, standard on the last q,
    and negated long/short sums on the middle symplectic factor.  With
    r = n - p - q and s the 0-based position of a coordinate in its run
    (first p, middle r, last q), the doubled half-sums are

        2 delta_l     = (2s - p - q + 1 | -2s - 2 | q - p - 1 - 2s),
        2 delta_{u∩p} = ((n - q + 1)^p, (p - q)^r, (-(n - p + 1))^q),
        2 delta_{u∩k} = ((n - p)^p, (q - p)^r, (-(n - q))^q),

    and S = p(n - p) + rq.
    """
    if type(n) is not int or type(p) is not int or type(q) is not int:
        raise ValueError(f"n, p and q must be int, got {_echo((n, p, q))}")
    if p < 0 or q < 0 or p + q > n:
        raise ValueError("need p, q >= 0 and p + q <= n")
    r = n - p - q
    delta_l = HalfIntVector(
        tuple(2 * s - p - q + 1 for s in range(p))
        + tuple(-2 * s - 2 for s in range(r))
        + tuple(q - p - 1 - 2 * s for s in range(q))
    )
    delta_up = HalfIntVector((n - q + 1,) * p + (p - q,) * r + (-(n - p + 1),) * q)
    delta_uk = HalfIntVector((n - p,) * p + (q - p,) * r + (-(n - q),) * q)
    delta_u = delta_up + delta_uk
    return RhoVectors(delta_l, delta_up, delta_uk, delta_u, delta_l + delta_u, p * (n - p) + r * q)


def lambda_of(n: int, p: int, q: int, t: int) -> HalfIntVector:
    """Differential of the U(p, q) character at reparametrized level t.

    The value is ((t+p+q-1)/2 - n) on the first p coordinates, 0 in the
    middle, and the negative mirror on the last q.  Integral exactly when
    t + p + q is odd, which always holds for parameter-derived data.
    """
    if type(n) is not int or type(p) is not int or type(q) is not int or type(t) is not int:
        raise ValueError(f"n, p, q and t must be int, got {_echo((n, p, q, t))}")
    if p < 0 or q < 0 or p + q > n:
        raise ValueError("need p, q >= 0 and p + q <= n")
    head = t + p + q - 1 - 2 * n
    return HalfIntVector((head,) * p + (0,) * (n - p - q) + (-head,) * q)


def weakly_fair(t: int) -> bool:
    """Weak fairness of the induction at level t."""
    if type(t) is not int:
        raise ValueError(f"t must be int, got {_echo(t)}")
    return t >= 0


def ktype_inequality_scalar(m: int, p: int, q: int, t: int) -> bool:
    """Necessary inequality for the scalar U(n)-type (-m, ..., -m) to occur
    in a module induced through the (p, q) pair at level t:

        m (q - p) >= (p + q)(t + p + q + 1)/2 - 2 p q,

    evaluated on doubled integers.  A negative p or q is refused, as
    ``lambda_of`` refuses it; with no rank given, p + q is not bounded.
    """
    if type(m) is not int or type(p) is not int or type(q) is not int or type(t) is not int:
        raise ValueError(f"m, p, q and t must be int, got {_echo((m, p, q, t))}")
    if p < 0 or q < 0:
        raise ValueError("need p, q >= 0")
    return 2 * m * (q - p) >= (p + q) * (t + p + q + 1) - 4 * p * q


def ktype_inequality_general(
    mu: HighestWeight, n: int, p: int, q: int, t: int
) -> bool:
    """The lowest-K-type inequality for the module labelled by mu.

    The K-type in question has highest weight (-m_n, ..., -m_1); pairing
    with the dual of the u-half-sum and clearing the common positive factor
    leaves

        sum_{j<=q} m_j - sum_{i<=p} m_{n+1-i}
            >= (p + q)(t + p + q + 1)/2 - 2 p q.
    """
    if type(n) is not int or type(p) is not int or type(q) is not int or type(t) is not int:
        raise ValueError(f"n, p, q and t must be int, got {_echo((n, p, q, t))}")
    if mu.n != n:
        raise ValueError("weight rank mismatch")
    if p < 0 or q < 0 or p + q > n:
        raise ValueError("need p, q >= 0 and p + q <= n")
    lhs = 2 * (sum(mu.entries[:q]) - sum(mu.entries[n - p :] if p else ()))
    return lhs >= (p + q) * (t + p + q + 1) - 4 * p * q


@_record
class InductionWeight:
    """Inducing character data attached to one discrete block.

    ``lam`` uses the (t-a+1)/2 endpoint, ``lam_variant`` the (t+a-1)/2 one;
    the two printed recipes disagree and both are exposed.
    """

    t: int
    a: int
    lam: int
    lam_variant: int


def induction_weights(psi: ArthurParameter, n: int) -> list[InductionWeight]:
    """Per-block weights of the compact-U(a_j) characters in the induction
    realizing packet members, blocks taken in canonical order.

        lam_j         = n - sum_{k<j} a_k - (t_j - a_j + 1)/2
        lam_variant_j = n - sum_{k<j} a_k - (t_j + a_j - 1)/2
    """
    if type(n) is not int:
        raise ValueError(f"rank must be int, got {_echo(n)}")
    if psi.n != n:
        raise ValueError("parameter rank mismatch")
    acc = 0
    out: list[InductionWeight] = []
    for b in psi.discrete:
        out.append(
            InductionWeight(
                b.t,
                b.a,
                n - acc - (b.t - b.a + 1) // 2,
                n - acc - (b.t + b.a - 1) // 2,
            )
        )
        acc += b.a
    return out


@_record
class AqLambda:
    """Inducing character of the a-th module on the regular ladder.

    ``lam`` is the differential on the compact Levi, ``mu`` the recovered
    highest weight label, ``lam_plus_rho`` the shifted vector
    (-1, ..., -a, -m_l + l, ..., -m_1 + 1) used as a consistency anchor.
    """

    a: int
    mu: HighestWeight
    lam: tuple[int, ...]
    lam_plus_rho: tuple[int, ...]


def aq_lambda_regular(chi: InfinitesimalCharacter, a: int) -> AqLambda:
    """Inducing datum of the a-th unitary highest weight module attached to
    a regular integral infinitesimal character.

    With positive part (chi_1 > ... > chi_n) and l = n - a, the weight label
    is m_i = chi_i + i for i <= l padded with l, and

        lambda = (0^a, -m_l + n + 1, ..., -m_1 + n + 1).
    """
    if type(a) is not int:
        raise ValueError(f"a must be int, got {_echo(a)}")
    amax = regular_a_max(chi)
    if not 0 <= a <= amax:
        raise ValueError(f"need 0 <= a <= {amax}, got {a}")
    pos = chi.positive_part()
    n = len(pos)
    ell = n - a
    ms = [pos[i] + (i + 1) for i in range(ell)]
    mu = HighestWeight(tuple(ms) + (ell,) * a)
    lam = (0,) * a + tuple(n + 1 - m for m in reversed(ms))
    rho = tuple(-(i + 1) for i in range(n))
    lam_plus_rho = tuple(x + r for x, r in zip(lam, rho))
    return AqLambda(a, mu, lam, lam_plus_rho)
