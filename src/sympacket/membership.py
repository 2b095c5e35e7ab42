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
  discrete part.  (The necessary filter of the maximal Langlands exponent
  is ``langlands.exponent_filter``.)

* ``enumerate_packets_pi`` / ``enumerate_packets_sigma`` -- every packet
  containing the module, built from the route table (``_routes``).  Each
  route states the largest unipotent dimension of its members, the character
  of that block, the shape of their covers and the verdict it implies.
  THM71_I members are built directly as interval compositions; every other
  route searches only the covers with its top and builds only the character
  choices holding its block.  So every parameter built is a member and gets
  its route's verdict without a decider call.

Both families reach one record, ``weights.Module`` from ``module_of``,
which turns sigma_{2k,k} into pi_{2k}(k+1).  The module keys its
infinitesimal character and its route table, and the table is the only
statement of the criteria above: it builds the members, and it decides.
``_decide_core`` returns the first route whose shape a parameter has;
``_decide_route`` reaches it after the checks, and ``decide_pi`` /
``decide_sigma``, the character recipe and the command line all ask
``_decide_route``.  Each member the enumerators build records the route
that admitted it (``params._trusted_param``); a route names its module, so
asked about that module, ``_decide_route`` returns the recorded route and
decides nothing.  Any other parameter is decided: it is validated unless
it recorded its infinitesimal character when it was built, and its
character compared with the module's before ``_decide_core`` runs.
Route tags on verdicts are stable wire strings.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .params import (
    CHAR_SGN,
    CHAR_TRIV,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    a_psi_u,
    _assignment_count,
    _check_rank,
    _cover_params,
    _covers,
    _order_key,
    _parity,
    _require_valid,
    _unipotent_block,
    _valid_inf_char,
    contains_block,
    inf_char_of_param,
    remove_discrete_block,
)
from .quadforms import _sign_pow
from .weights import (
    InfinitesimalCharacter,
    Module,
    _inf_char_entries,
    module_of,
    pi_nm,
    regular_a_max,
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
_MEMBER = {
    route: MembershipVerdict(True, route, 1)
    for route in (ROUTE_TRIVIAL, ROUTE_I, ROUTE_II_A1, ROUTE_II_A3, ROUTE_SIGMA)
}


def _segments_pairwise_disjoint(psi: ArthurParameter) -> bool:
    intervals = [(b.bottom, b.top) for b in psi.discrete]
    for (l1, h1), (l2, h2) in itertools.combinations(intervals, 2):
        if not (h1 < l2 or h2 < l1):
            return False
    return True


def decide_pi(psi: ArthurParameter, n: int, m: int) -> MembershipVerdict:
    """Does the packet of psi contain the scalar module pi_n(m)?

    Routes fire in a fixed order (TRIVIAL, THM71_I, THM71_II_A1, THM71_II_A3)
    so the verdict is deterministic when several clauses hold.  Membership is
    always with multiplicity one.
    """
    route = _decide_route(psi, module_of("pi", n, m))
    return _NOT_MEMBER if route is None else route.verdict


def decide_sigma(psi: ArthurParameter, n: int, k: int) -> MembershipVerdict:
    """Does the packet of psi contain the near-scalar module sigma_{n,k}?

    Membership requires the matching infinitesimal character, largest
    unipotent dimension 2(n-k)+1, and the presence of the block
    sgn^k ⊠ R[2(n-k)+1]; sigma_{2k,k} is pi_{2k}(k+1) (``module_of``).
    """
    route = _decide_route(psi, module_of("sigma", n, k))
    return _NOT_MEMBER if route is None else route.verdict


def _decide_route(psi: ArthurParameter, module: Module) -> _Route | None:
    """The route of ``_routes(module)`` that admits psi to the packet, or
    None when the packet does not contain the module.

    A member the enumerators built for this module gets the route that
    admitted it (its ``_route`` record), with nothing checked or decided
    again.  Any other parameter, including a member asked about another
    module, is checked in this order: valid, of the module's rank, with the
    module's infinitesimal character.  ``params._valid_inf_char`` does the
    first check and gives the character; a parameter the enumerators built
    (or ``cli.param_from_json`` read) recorded its character then, so it is
    not validated again.  Then ``_decide_core`` decides.
    """
    route = psi._route
    if route is not None and route.module == module:
        return route
    entries = _valid_inf_char(psi)
    if psi.n != module.n:
        raise ValueError("parameter rank does not match n")
    if entries != module.inf_char():
        return None
    return _decide_core(psi, module)


def _decide_core(psi: ArthurParameter, module: Module) -> _Route | None:
    """The first route of ``_routes(module)`` whose shape psi has, or None,
    for a valid parameter of the module's rank and infinitesimal character;
    nothing is checked again."""
    top = a_psi_u(psi)
    for route in _routes(module):
        if route.char is None:  # THM71_I
            if psi.dim_unipotent == 1 and _segments_pairwise_disjoint(psi):
                return route
        elif top == route.top and _unipotent_block(route.char, top) in psi.unipotent:
            return route
    return None


def decide_regular(psi: ArthurParameter, a: int) -> bool:
    """Membership test at a regular integral infinitesimal character.

    The unitary highest weight modules with such a character form a ladder
    indexed by 0 <= a <= a_max; the a-th one lies in the packet of psi
    exactly when the (necessarily unique) unipotent block has dimension
    2a + 1.
    """
    chi = InfinitesimalCharacter(_valid_inf_char(psi))
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
    if n != 0:
        pi_nm(n, m)  # refuses a negative rank and m outside 0..n
    while True:
        if inf_char_of_param(psi).entries != _inf_char_entries((m,) * n):
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


# The e2 e3 rules of the character recipe (``characters.rho_pi_general`` and
# ``rho_sigma_general``): from whether eta_2 carries the character of the big
# block, a = (dim eta_2 + 1)/2, delta and delta' to the product e2 e3.
def _e2e3_exact(same: bool, a: int, delta: int, delta_prime: int) -> int:
    return 1 if same else delta_prime * _sign_pow(a + 1)


def _e2e3_shifted(same: bool, a: int, delta: int, delta_prime: int) -> int:
    return -1 if same else delta_prime * _sign_pow(a)


def _e2e3_sigma(k: int, same: bool, a: int, delta: int, delta_prime: int) -> int:
    return -1 if same else delta * _sign_pow(k)


class _Route(NamedTuple):
    """One route to membership in the module's packet: the shape of its
    members, and the verdict and character data that shape implies.

    Every member has largest unipotent dimension ``top`` and a block of that
    dimension with character ``char``.  ``char`` is None only on THM71_I,
    whose members have one unipotent block, R[1], with the character the
    determinant condition forces, and pairwise disjoint discrete segments.
    ``e2e3`` is the rule of the character recipe on a three-block unipotent
    part, whose big block is char ⊠ R[top]; None where members have one
    unipotent block.
    """

    module: Module
    verdict: MembershipVerdict
    top: int
    char: int | None
    e2e3: Callable[..., int] | None


@functools.lru_cache(maxsize=256)
def _routes(module: Module) -> tuple[_Route, ...]:
    """The routes to the module, in the order they are tried: a parameter of
    the module's character is a member exactly when it has the shape of one
    of them, and the first one it fits admits it (``_decide_core``).

    TRIVIAL is triv ⊠ R[2n+1] alone, THM71_I needs 2m > n+1, THM71_II_A1
    the block sgn^m ⊠ R[2(n-m)+1] on top, THM71_II_A3 2m >= n+2 and
    sgn^(m-1) ⊠ R[2(n-m)+3] on top, SIGMA sgn^k ⊠ R[2(n-k)+1] on top.  At
    m = n the THM71_II_A1 top is 1, whose single-R[1] covers with disjoint
    segments THM71_I takes first.
    """
    family, n, m = module
    if family == "sigma":  # m is k
        rule = functools.partial(_e2e3_sigma, m)
        return (_Route(module, _MEMBER[ROUTE_SIGMA], 2 * (n - m) + 1, m % 2, rule),)
    if m == 0:
        return (_Route(module, _MEMBER[ROUTE_TRIVIAL], 2 * n + 1, CHAR_TRIV, None),)
    exact = _Route(module, _MEMBER[ROUTE_II_A1], 2 * (n - m) + 1, m % 2, _e2e3_exact)
    if 2 * m <= n + 1:
        return (exact,)
    return (
        _Route(module, _MEMBER[ROUTE_I], 1, None, None),
        exact,
        _Route(module, _MEMBER[ROUTE_II_A3], 2 * (n - m) + 3, (m - 1) % 2, _e2e3_shifted),
    )


def _compositions(low: int, high: int) -> list[tuple[tuple[int, int], ...]]:
    """The ways to cut the integers low..high into consecutive segments, each
    as discrete data (t, a) = (l + h, h - l + 1), highest segment first."""
    if low > high:
        return [()]
    return [
        ((cut + high, high - cut + 1),) + rest
        for cut in range(high, low - 1, -1)
        for rest in _compositions(low, cut - 1)
    ]


def _disjoint_covers(n: int, m: int) -> list[tuple]:
    """The covers of the THM71_I members of pi_n(m), 2m > n+1, as
    ``params._covers`` gives them.

    A member has one unipotent block, R[1], and pairwise disjoint segments.
    The character holds 0 three times and the positive entries 1..m-1 and
    1..n-m, so one discrete block holds 0, on [-(n-m), tau] for some tau in
    n-m+1..m-1, and consecutive segments compose tau+1..m-1: 2^(2m-n-2)
    covers.
    """
    covers = []
    for tau in range(n - m + 1, m):
        crossing = (tau - (n - m), tau + (n - m) + 1)
        for upper in _compositions(tau + 1, m - 1):
            disc_data = upper + (crossing,)
            covers.append(((1,), disc_data, _parity(disc_data)))
    return covers


def _route_packets(
    module: Module, entries: tuple[int, ...], covers: list[tuple]
) -> list[tuple[ArthurParameter, MembershipVerdict]]:
    """The packets containing the module, in ``enumerate_params`` order,
    each with the verdict of its route.

    THM71_I builds its members from ``_disjoint_covers``.  Every other route
    builds, on the ``covers`` (from ``params._covers`` for the module's
    character ``entries``) whose largest unipotent dimension is its top, the
    character choices that hold its block.  Each parameter built is a
    member, by the route that built it, so no decider runs; it records
    ``entries`` and that route (``params._trusted_param``).
    """
    n = module.n
    routes = _routes(module)
    searched = {route.top: route for route in routes if route.char is not None}
    packets = []
    # THM71_I comes first where it applies, and takes its covers from the others
    disjoint = _disjoint_covers(n, module.value) if routes[0].char is None else []
    for cover in disjoint:
        members = _cover_params(n, entries, *cover, None, routes[0])
        packets.extend((psi, routes[0].verdict) for psi in members)
    taken = set(disjoint)
    for cover in covers:
        route = searched.get(cover[0][0])
        if route is None or cover in taken:
            continue
        verdict = route.verdict
        members = _cover_params(n, entries, *cover, route.char, route)
        packets.extend((psi, verdict) for psi in members)
    packets.sort(key=lambda packet: _order_key(packet[0]))
    return packets


def _enumerate_packets(
    module: Module, max_rank: int
) -> list[tuple[ArthurParameter, MembershipVerdict]]:
    """The packets containing the module, top first: the cover search runs
    once per searched top, on the character less the top's centered
    segment, so no other cover is searched or counted."""
    _check_rank(module.n, max_rank)
    tops = [route.top for route in _routes(module) if route.char is not None]
    entries = module.inf_char()
    return _route_packets(module, entries, _covers(entries, tops))


def _enumerate_counted(
    module: Module, max_rank: int = 12
) -> tuple[int, list[tuple[ArthurParameter, MembershipVerdict]]]:
    """The number of parameters with the module's infinitesimal character,
    and the packets containing the module.  The count needs every cover, so
    this runs the full cover search once."""
    _check_rank(module.n, max_rank)
    entries = module.inf_char()
    covers = _covers(entries)
    count = sum(_assignment_count(unip_dims) for unip_dims, _, _ in covers)
    return count, _route_packets(module, entries, covers)


def enumerate_packets_pi(
    n: int, m: int, max_rank: int = 12
) -> list[tuple[ArthurParameter, MembershipVerdict]]:
    """All packets containing pi_n(m), with the verdict that admitted them."""
    return _enumerate_packets(module_of("pi", n, m), max_rank)


def enumerate_packets_sigma(
    n: int, k: int, max_rank: int = 12
) -> list[tuple[ArthurParameter, MembershipVerdict]]:
    """All packets containing sigma_{n,k}, with verdicts."""
    return _enumerate_packets(module_of("sigma", n, k), max_rank)


def distinguished_parameter_sigma(n: int, k: int) -> ArthurParameter:
    """The distinguished parameter sgn^k ⊠ R[2(n-k)+1] + delta_{k-1} ⊠ R[k].

    For k = 1 the discrete factor degenerates (t would be 0) into the sum of
    the two rank-one quadratic blocks, giving a purely unipotent parameter.
    """
    module_of("sigma", n, k)  # refuses k outside 1..n/2
    big = UnipotentBlock(k % 2, 2 * (n - k) + 1)
    if k == 1:
        blocks = (big, UnipotentBlock(CHAR_TRIV, 1), UnipotentBlock(CHAR_SGN, 1))
        return ArthurParameter(n, blocks).canonical()
    return ArthurParameter(n, (big,), (DiscreteBlock(k - 1, k),)).canonical()
