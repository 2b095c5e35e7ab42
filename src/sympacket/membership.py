"""Which Arthur packets contain a given unitary highest weight module.

The central decision procedures:

* ``decide_pi(psi, n, m)`` -- membership of the scalar module pi_n(m) in the
  packet of psi, by the closed criterion: after matching infinitesimal
  characters, the packet contains pi_n(m) exactly when one of

  - m = 0 and psi is the one-block parameter of the trivial representation;
  - the unipotent part is one dimensional, 2m > n+1, and the discrete
    segments [(t-a+1)/2, (t+a-1)/2] are pairwise disjoint;
  - the largest unipotent dimension is 2(n-m)+1 and the block
    sgn^m ⊠ R[2(n-m)+1] occurs;
  - 2m >= n+2, the largest unipotent dimension is 2(n-m)+3, and the block
    sgn^(m-1) ⊠ R[2(n-m)+3] occurs.

* ``decide_pi_recursive`` -- an independent oracle that strips discrete
  blocks one at a time (each strip lowering m by the block's SL(2) dimension)
  and decides the residual unipotent or one-dimensional cases directly.

* ``decide_sigma`` for the near-scalar family, ``decide_regular`` for regular
  infinitesimal characters, ``decide_unipotent`` for parameters with no
  discrete part, plus the necessary filter coming from the maximal Langlands
  exponent.

Route tags on verdicts are stable wire strings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

from .params import (
    CHAR_SGN,
    CHAR_TRIV,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    a_psi,
    a_psi_u,
    _assignment_count,
    _checked_covers,
    _cover_params,
    _order_key,
    contains_block,
    inf_char_of_param,
    remove_discrete_block,
    validate,
)
from .weights import (
    InfinitesimalCharacter,
    inf_char_of_weight,
    pi_nm,
    regular_a_max,
    sigma_nk,
)

__all__ = [
    "MembershipVerdict",
    "Peel",
    "decide_pi",
    "decide_sigma",
    "decide_regular",
    "decide_unipotent",
    "peel_step",
    "decide_pi_recursive",
    "exponent_bound_necessary",
    "enumerate_packets_pi",
    "enumerate_packets_sigma",
    "distinguished_parameter_sigma",
    "ROUTE_TRIVIAL",
    "ROUTE_I",
    "ROUTE_II_A1",
    "ROUTE_II_A3",
    "ROUTE_SIGMA",
    "ROUTE_UNIPOTENT",
    "ROUTE_REGULAR",
]

ROUTE_TRIVIAL = "TRIVIAL"
ROUTE_I = "THM71_I"
ROUTE_II_A1 = "THM71_II_A1"
ROUTE_II_A3 = "THM71_II_A3"
ROUTE_SIGMA = "SIGMA"
ROUTE_UNIPOTENT = "UNIPOTENT"
ROUTE_REGULAR = "REGULAR"


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    route: str | None
    multiplicity: int

    def __post_init__(self) -> None:
        if not self.member and self.multiplicity != 0:
            raise ValueError("non-members have multiplicity 0")


_NOT_MEMBER = MembershipVerdict(False, None, 0)


def _require_valid(psi: ArthurParameter) -> None:
    codes = validate(psi)
    if codes:
        raise ValueError(f"invalid parameter {psi}: {codes}")


def _segments_pairwise_disjoint(psi: ArthurParameter) -> bool:
    intervals = [(b.bottom, b.top) for b in psi.discrete]
    for (l1, h1), (l2, h2) in itertools.combinations(intervals, 2):
        if not (h1 < l2 or h2 < l1):
            return False
    return True


def _scalar_inf_char_matches(psi: ArthurParameter, n: int, m: int) -> bool:
    if n == 0:
        return m == 0 and inf_char_of_param(psi).entries == (0,)
    return inf_char_of_param(psi) == inf_char_of_weight(pi_nm(n, m))


def decide_pi(psi: ArthurParameter, n: int, m: int) -> MembershipVerdict:
    """Does the packet of psi contain the scalar module pi_n(m)?

    Routes fire in a fixed order (TRIVIAL, THM71_I, THM71_II_A1, THM71_II_A3)
    so the verdict is deterministic when several clauses hold.  Membership is
    always with multiplicity one.
    """
    _require_valid(psi)
    if psi.n != n:
        raise ValueError("parameter rank does not match n")
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}")
    if not _scalar_inf_char_matches(psi, n, m):
        return _NOT_MEMBER
    return _decide_pi_core(psi, n, m)


def _decide_pi_core(psi: ArthurParameter, n: int, m: int) -> MembershipVerdict:
    """The routes of ``decide_pi`` for a valid rank-n parameter whose
    infinitesimal character is that of pi_n(m), 0 <= m <= n; nothing is
    checked again."""
    if m == 0:
        trivial = psi.unipotent == (UnipotentBlock(CHAR_TRIV, 2 * n + 1),) and not psi.discrete
        return MembershipVerdict(True, ROUTE_TRIVIAL, 1) if trivial else _NOT_MEMBER

    if psi.dim_unipotent == 1 and 2 * m > n + 1 and _segments_pairwise_disjoint(psi):
        return MembershipVerdict(True, ROUTE_I, 1)

    exact = 2 * (n - m) + 1
    if a_psi_u(psi) == exact and contains_block(psi, UnipotentBlock(m % 2, exact)):
        return MembershipVerdict(True, ROUTE_II_A1, 1)

    shifted = 2 * (n - m) + 3
    if (
        2 * m >= n + 2
        and a_psi_u(psi) == shifted
        and contains_block(psi, UnipotentBlock((m - 1) % 2, shifted))
    ):
        return MembershipVerdict(True, ROUTE_II_A3, 1)

    return _NOT_MEMBER


def decide_sigma(psi: ArthurParameter, n: int, k: int) -> MembershipVerdict:
    """Does the packet of psi contain the near-scalar module sigma_{n,k}?

    For n = 2k the module coincides with pi_{2k}(k+1) and the scalar decider
    is used.  Otherwise membership requires the matching infinitesimal
    character, largest unipotent dimension 2(n-k)+1, and the presence of the
    block sgn^k ⊠ R[2(n-k)+1].
    """
    if k < 1 or 2 * k > n:
        raise ValueError(f"need 2 <= 2k <= n, got k={k}, n={n}")
    if n == 2 * k:
        return decide_pi(psi, n, k + 1)
    _require_valid(psi)
    if psi.n != n:
        raise ValueError("parameter rank does not match n")
    if inf_char_of_param(psi) != inf_char_of_weight(sigma_nk(n, k)):
        return _NOT_MEMBER
    return _decide_sigma_core(psi, n, k)


def _decide_sigma_core(psi: ArthurParameter, n: int, k: int) -> MembershipVerdict:
    """The routes of ``decide_sigma`` for a valid rank-n parameter whose
    infinitesimal character is that of sigma_{n,k}, 2 <= 2k <= n; nothing is
    checked again."""
    if n == 2 * k:
        return _decide_pi_core(psi, n, k + 1)
    big = 2 * (n - k) + 1
    if a_psi_u(psi) == big and contains_block(psi, UnipotentBlock(k % 2, big)):
        return MembershipVerdict(True, ROUTE_SIGMA, 1)
    return _NOT_MEMBER


def decide_regular(psi: ArthurParameter, a: int) -> bool:
    """Membership test at a regular integral infinitesimal character.

    The unitary highest weight modules with such a character form a ladder
    indexed by 0 <= a <= a_max; the a-th one lies in the packet of psi
    exactly when the (necessarily unique) unipotent block has dimension
    2a + 1.
    """
    _require_valid(psi)
    chi = inf_char_of_param(psi)
    if not chi.is_regular():
        raise ValueError("infinitesimal character is not regular")
    amax = regular_a_max(chi)
    if not 0 <= a <= amax:
        raise ValueError(f"need 0 <= a <= {amax}, got {a}")
    if len(psi.unipotent) != 1:
        raise AssertionError("regular character forces one unipotent block")
    return psi.unipotent[0].dim == 2 * a + 1


def decide_unipotent(psi: ArthurParameter, n: int) -> list[tuple[str, int]]:
    """Highest weight modules in the packet of a purely unipotent parameter.

    Returns a list of ("pi", m) / ("sigma", k) tags.  A one-block parameter
    carries only the trivial representation.  A three-block parameter
    ``eta_1 ⊠ R[a] + eta_2 ⊠ R[b] + eta_3 ⊠ R[1]`` (a >= b) meets a highest
    weight module exactly when some dimension-a block carries the character
    sgn^{(b+1)/2}; it then contains pi_n((b+1)/2) and, when b + 1 <= n, also
    sigma_{n,(b+1)/2}.  Both values of the remaining free character occur.
    """
    _require_valid(psi)
    if psi.discrete:
        raise ValueError("parameter has a discrete part")
    if psi.n != n:
        raise ValueError("parameter rank does not match n")
    blocks = psi.unipotent
    if len(blocks) == 1:
        return [("pi", 0)] if blocks[0].char == CHAR_TRIV else []
    if len(blocks) != 3:
        return []
    dims = [b.dim for b in blocks]  # canonical order: decreasing
    if dims[2] != 1:
        return []
    a, b = dims[0], dims[1]
    k = (b + 1) // 2
    if not any(blk.dim == a and blk.char == k % 2 for blk in blocks):
        return []
    found = [("pi", k)]
    if b + 1 <= n:
        found.append(("sigma", k))
    return found


@dataclass(frozen=True)
class Peel:
    """One successful reduction step: the block removed and the residue."""

    index: int
    parameter: ArthurParameter
    n: int
    m: int


def peel_step(
    psi: ArthurParameter, n: int, m: int
) -> Peel | Literal["REJECT"] | None:
    """Locate the minimal discrete block eligible for the rank reduction.

    Eligibility means top >= m-1 and t-a+1 >= 0.  If the minimal eligible
    block has top exactly m-1 it is stripped (with the sign retwist) and
    (n, m) drop by its SL(2) dimension; if its top exceeds m-1 the module
    cannot lie in the packet and "REJECT" is returned; with no eligible
    block the reduction does not apply and None is returned.
    """
    for index, block in enumerate(psi.discrete):
        if block.top >= m - 1 and block.t - block.a + 1 >= 0:
            if block.top == m - 1:
                return Peel(
                    index,
                    remove_discrete_block(psi, index),
                    n - block.a,
                    m - block.a,
                )
            return "REJECT"
    return None


def decide_pi_recursive(psi: ArthurParameter, n: int, m: int) -> bool:
    """Membership oracle for pi_n(m) by repeated discrete-block stripping.

    Strips eligible discrete blocks until none applies, then decides the
    residue: a purely unipotent parameter is settled by decide_unipotent
    (counting sigma_{n,k} as pi_n(m) when n = 2k, m = k+1); a parameter with
    one dimensional unipotent part is a member exactly when 2m > n+1, the
    segments are pairwise disjoint, and the top segment ends at m-1; in the
    remaining no-strip situation membership forces the near-scalar shape
    n = 2(m-1) with the block sgn^{n/2} ⊠ R[n+1] present.
    """
    _require_valid(psi)
    while True:
        if not _scalar_inf_char_matches(psi, n, m):
            return False
        if not psi.discrete:
            found = decide_unipotent(psi, n)
            if ("pi", m) in found:
                return True
            return n == 2 * (m - 1) and ("sigma", m - 1) in found
        if psi.dim_unipotent == 1:
            if 2 * m <= n + 1 or not _segments_pairwise_disjoint(psi):
                return False
            return max(b.top for b in psi.discrete) == m - 1
        step = peel_step(psi, n, m)
        if step == "REJECT":
            return False
        if step is None:
            return (
                n == 2 * (m - 1)
                and a_psi_u(psi) == n + 1
                and contains_block(psi, UnipotentBlock((n // 2) % 2, n + 1))
            )
        psi, n, m = step.parameter, step.n, step.m
        if m < 0:
            return False


def exponent_bound_necessary(psi: ArthurParameter, n: int, m: int) -> bool:
    """Necessary bound from the maximal exponent of the standard module.

    The largest exponent of pi_n(m) is n - m, so membership forces
    ``a(psi) >= 2(n-m)+1``, strictly when the maximum is attained outside
    the unipotent part or the block sgn^m ⊠ R[2(n-m)+1] is absent.  Vacuous
    for m >= n.
    """
    _require_valid(psi)
    if m >= n:
        return True
    bound = 2 * (n - m) + 1
    strict = a_psi(psi) > a_psi_u(psi) or not contains_block(
        psi, UnipotentBlock(m % 2, bound)
    )
    return a_psi(psi) > bound if strict else a_psi(psi) >= bound


def _member_tops(family: str, n: int, value: int) -> frozenset[int]:
    """The largest unipotent dimensions a member of the family's packets can have.

    Mirrors the ``a_psi_u`` tests of ``_decide_pi_core`` (m = value) and
    ``_decide_sigma_core`` (k = value), route by route, so the two change
    together: TRIVIAL needs 2n+1, THM71_I a one dimensional unipotent part,
    THM71_II_A1 2(n-m)+1, THM71_II_A3 2(n-m)+3, SIGMA 2(n-k)+1, and
    sigma_{2k,k} is pi_{2k}(k+1).
    """
    if family == "sigma":
        if n > 2 * value:
            return frozenset({2 * (n - value) + 1})
        return _member_tops("pi", n, value + 1)
    m = value
    if m == 0:
        return frozenset({2 * n + 1})
    tops = {2 * (n - m) + 1}
    if 2 * m > n + 1:
        tops.add(1)
    if 2 * m >= n + 2:
        tops.add(2 * (n - m) + 3)
    return frozenset(tops)


_CORES = {"pi": _decide_pi_core, "sigma": _decide_sigma_core}


def _enumerate_packets(
    family: str, n: int, value: int, max_rank: int = 12
) -> tuple[InfinitesimalCharacter, int, list[tuple[ArthurParameter, MembershipVerdict]]]:
    """The infinitesimal character of pi_n(value) (family "pi") or
    sigma_{n,value} (family "sigma"), the number of parameters with it, and
    the packets containing the module, in ``enumerate_params`` order.

    Output-sensitive: every cover is counted, but parameters are built and
    decided only on covers whose largest unipotent dimension is a member top.
    The built parameters are valid, of rank n and carry the character, so the
    decider core judges them without re-validation.
    """
    weight = pi_nm(n, value) if family == "pi" else sigma_nk(n, value)
    chi = inf_char_of_weight(weight)
    core = _CORES[family]
    tops = _member_tops(family, n, value)
    count = 0
    packets = []
    for unip_dims, disc_data, parity in _checked_covers(chi, n, max_rank):
        count += _assignment_count(unip_dims)
        if unip_dims[0] not in tops:
            continue
        for psi in _cover_params(n, unip_dims, disc_data, parity):
            verdict = core(psi, n, value)
            if verdict.member:
                packets.append((psi, verdict))
    packets.sort(key=lambda packet: _order_key(packet[0]))
    return chi, count, packets


def enumerate_packets_pi(
    n: int, m: int, max_rank: int = 12
) -> list[tuple[ArthurParameter, MembershipVerdict]]:
    """All packets containing pi_n(m), with the verdict that admitted them."""
    return _enumerate_packets("pi", n, m, max_rank)[2]


def enumerate_packets_sigma(
    n: int, k: int, max_rank: int = 12
) -> list[tuple[ArthurParameter, MembershipVerdict]]:
    """All packets containing sigma_{n,k}, with verdicts."""
    return _enumerate_packets("sigma", n, k, max_rank)[2]


def distinguished_parameter_sigma(n: int, k: int) -> ArthurParameter:
    """The distinguished parameter sgn^k ⊠ R[2(n-k)+1] + delta_{k-1} ⊠ R[k].

    For k = 1 the discrete factor degenerates (t would be 0) into the sum of
    the two rank-one quadratic blocks, giving a purely unipotent parameter.
    """
    if k < 1 or 2 * k > n:
        raise ValueError(f"need 2 <= 2k <= n, got k={k}, n={n}")
    big = UnipotentBlock(k % 2, 2 * (n - k) + 1)
    if k == 1:
        blocks = (big, UnipotentBlock(CHAR_TRIV, 1), UnipotentBlock(CHAR_SGN, 1))
        return ArthurParameter(n, blocks).canonical()
    return ArthurParameter(n, (big,), (DiscreteBlock(k - 1, k),)).canonical()
