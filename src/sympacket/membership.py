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
  The shapes are disjoint, so the routes partition the module's members:
  each fits exactly one route, and no answer depends on the table's order.
  Once the route's block is taken away, what is left of the character
  holds 0 twice and each positive value at most once, so each route's
  covers are built directly (``_route_covers``): a piece that holds the
  zeros, and consecutive segments above it, grouped by unipotent
  dimensions, each group read in canonical order from one memo of cuts
  (``_cuts``), whose floor on the lowest segment makes the zero piece.  No
  cover is searched or sorted, and only the character choices holding the
  route's block are built.  So every parameter built is a member and gets
  its route's verdict without a decider call.  Both, and the command
  line's ``enumerate-*``, run the one enumerator ``_enumerate_packets``, a
  pass over the route table.
  Every cover has one shape, (unipotent dimensions, non-increasing;
  discrete blocks, in canonical order), the one
  ``params._all_segment_covers`` gives ``enumerate_params``, and both
  enumerators build their output in order, one unipotent tuple at a time,
  with no sort of it (``params._params_in_order``).

Both families reach one record, ``weights.Module`` from ``module_of``,
which turns sigma_{2k,k} into pi_{2k}(k+1).  The module keys its route
table, and the table is the only statement of the criteria above: it builds
the members, and it decides.  No question lists the module's infinitesimal
character: a packet question compares a parameter's segments with the
module's closed-form segments (``_same_inf_char``), and only the command
line's ``inf_char`` field builds the entries (``Module.inf_char``).  The
command line's count of the parameters with the module's character is
closed form too (``_parameter_count``).
Every packet question (``decide_pi`` / ``decide_sigma``, the characters,
the command line's ``rho``) passes the triple it was asked to the one
lookup, ``_decide_route``: a member's recorded route answers there, and
any other question is checked there and decided by ``_decide_core``.  No
other module reads the record.  Every decider trusts a parameter through
one check, ``params._require_valid``, which returns at once for a parameter
marked valid where it was built.  Route tags on verdicts are stable wire
strings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .params import (
    CHAR_SGN,
    CHAR_TRIV,
    MAX_ENUMERATION_RANK,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    a_psi_u,
    _check_rank,
    _discrete_block,
    _params_in_order,
    _require_valid,
    contains_block,
    inf_char_of_param,
    remove_discrete_block,
)
from .weights import (
    Module,
    _inf_char_entries,
    _record,
    module_of,
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
    """Whether the discrete blocks' segments [bottom, top] are pairwise
    disjoint: sorted once, each must end before the next begins, so the
    check is O(b log b) for b blocks rather than one test per pair."""
    intervals = sorted([(b.bottom, b.top) for b in psi.discrete])
    for (_, high), (low, _) in zip(intervals, intervals[1:]):
        if high >= low:
            return False
    return True


def decide_pi(psi: ArthurParameter, n: int, m: int) -> MembershipVerdict:
    """Does the packet of psi contain the scalar module pi_n(m)?

    The routes (TRIVIAL, THM71_I, THM71_II_A1, THM71_II_A3) have disjoint
    shapes, so a member fits exactly one of them, and the verdict names it.
    Membership is always with multiplicity one.
    """
    route = _decide_route(psi, "pi", n, m)[0]
    return _NOT_MEMBER if route is None else route.verdict


def decide_sigma(psi: ArthurParameter, n: int, k: int) -> MembershipVerdict:
    """Does the packet of psi contain the near-scalar module sigma_{n,k}?

    Membership requires the matching infinitesimal character, largest
    unipotent dimension 2(n-k)+1, and the presence of the block
    sgn^k ⊠ R[2(n-k)+1]; sigma_{2k,k} is pi_{2k}(k+1) (``module_of``).
    """
    route = _decide_route(psi, "sigma", n, k)[0]
    return _NOT_MEMBER if route is None else route.verdict


def _decide_route(
    psi: ArthurParameter, family: str, n: int, value: int
) -> tuple[_Route | None, bool]:
    """The route of ``_routes(module_of(family, n, value))`` that admits psi
    to the packet, or None when the packet does not contain the module; and
    whether the member's route record gave it.

    A member the enumerators built records its route (``_route``), which
    names its module.  Asked about that triple with ``int`` rank and value,
    or about one ``module_of`` resolves to it (sigma_{2k,k} records
    pi_{2k}(k+1)), the record answers, unchecked.  Any other question checks
    the module, then the parameter (valid, ``params._require_valid``, which
    trusts a marked one; of the module's rank), then the character by
    segment edges (``_same_inf_char``), with no entry listed, and decides.
    The characters keep a member's second character only on a question its
    record answered, so that they need not read the record themselves.
    """
    route = psi._route
    if route is not None and type(n) is type(value) is int and route.module == (family, n, value):
        return route, True
    module = module_of(family, n, value)
    if route is not None and route.module == module:  # sigma_{2k,k}
        return route, True
    _require_valid(psi)
    if psi.n != module.n:
        raise ValueError("parameter rank does not match n")
    if not _same_inf_char(psi, module):
        return None, False
    return _decide_core(psi, module), False


def _same_inf_char(psi: ArthurParameter, module: Module) -> bool:
    """Whether a valid parameter has the module's infinitesimal character,
    compared by the edges of their segments: O(blocks), with no entry
    listed and nothing cached.

    A segment [lo, hi] rises at lo and ends at hi + 1.  Two unions of
    segments are the same multiset exactly when the rises of the one with
    the ends of the other, sorted, are the ends of the one with the rises of
    the other.  R[d] is [-(d//2), d//2]; a discrete block (t, a) is
    [bottom, top] and its mirror, read inline from t and a.  pi_n(m) is
    [m-n, m-1], [1-m, n-m] and {0}; sigma_{n,k} (n > 2k) is [k-n, n-k],
    [1-k, k-1] and {0}, whose edges are those of pi_n(k): the two modules
    share their character.  So one closed form serves both families.
    """
    n, v = module.n, module.value
    rises = [v, n - v + 1, 1]  # the module's ends
    ends = [v - n, 1 - v, 0]  # the module's rises
    for b in psi.unipotent:
        half = b.dim // 2
        rises += (-half,)
        ends += (half + 1,)
    for t, a in psi.discrete:
        bottom, top = (t - a + 1) // 2, (t + a - 1) // 2
        rises += (bottom, -top)
        ends += (top + 1, 1 - bottom)
    rises.sort()
    ends.sort()
    return rises == ends


def _parameter_count(module: Module) -> int:
    """How many valid parameters have the module's infinitesimal character,
    in closed form in (n, v), v its m or k: O(min(v-1, n-v)) integer steps,
    with no cover searched and no parameter built.

    pi_n(0)'s character holds 0, ±1, ..., ±n once each: 2^n parameters.
    Any other module's segments (as in ``_same_inf_char``) hold 0 three
    times, each j in 1..a twice and each j in a+1..b once, for
    a = min(v-1, n-v) and b = max(v-1, n-v); sigma_{n,k} has pi_n(k)'s
    character, and the twins pi_n(m), pi_n(n+1-m) exchange a and b.  The
    count is D(a) when b = a and 2^(b-a-1) E(a) when b > a, where D starts
    2, 10, 37 and E starts 6, 27, 98, and from index 3 on both follow
    X(i) = 5 X(i-1) - 5 X(i-2).

    This is verified, not proved: it equals the memoised cover walk
    (``tests/oracles.py::parameter_count_by_walk``) for every pi_n(m) and
    sigma_{n,k} at ranks 1-40, and ``tests/test_params.py`` checks it at
    ranks 1-30.
    """
    n, v = module.n, module.value
    if v == 0:
        return 1 << n
    a, b = sorted((v - 1, n - v))
    xs = [2, 10, 37] if a == b else [6, 27, 98]
    while len(xs) <= a:
        xs.append(5 * xs[-1] - 5 * xs[-2])
    return xs[a] if a == b else xs[a] << (b - a - 1)


def _decide_core(psi: ArthurParameter, module: Module) -> _Route | None:
    """The route of ``_routes(module)`` whose shape psi has, or None, for a
    valid parameter of the module's rank and infinitesimal character;
    nothing is checked again.  The shapes are disjoint, so at most one
    route fits, whatever order the table lists them in.

    Valid means canonical, so the largest unipotent dimension is that of
    the first block, and a unipotent part of dimension 1 is one block R[1]
    (a valid part is never empty: the discrete dimensions are even).  One
    R[1] with discrete blocks is THM71_I's unipotent part and no topped
    route's: at top 1 (THM71_II_A1 at m = n) a topped route holds three
    blocks R[1], and only rank 0's TRIVIAL parameter is R[1] alone.
    """
    unipotent = psi.unipotent
    top = unipotent[0].dim
    for route in _routes(module):
        if route.char is None:  # THM71_I
            if top == 1 and len(unipotent) == 1 and _segments_pairwise_disjoint(psi):
                return route
        elif (
            top == route.top
            and (route.char, top) in unipotent  # a pair equals its block
            and (top > 1 or unipotent[1:] or not psi.discrete)
        ):
            return route
    return None


def decide_regular(psi: ArthurParameter, a: int) -> bool:
    """Membership test at a regular integral infinitesimal character.

    The unitary highest weight modules with such a character form a ladder
    indexed by 0 <= a <= a_max; the a-th one lies in the packet of psi
    exactly when the (necessarily unique) unipotent block has dimension
    2a + 1.  An index that is not an int, a bool or a float included, is
    refused.
    """
    _require_valid(psi)
    chi = inf_char_of_param(psi)
    if not chi.is_regular():
        raise ValueError("infinitesimal character is not regular")
    amax = regular_a_max(chi)
    if type(a) is not int:
        raise ValueError(f"ladder index must be int, got a={a!r}")
    if not 0 <= a <= amax:
        raise ValueError(f"need 0 <= a <= {amax}, got {a}")
    # one unipotent block: a valid parameter's unipotent dimension is odd,
    # so it has one, each holds 0, and a regular character holds 0 once
    return psi.unipotent[0].dim == 2 * a + 1


def decide_unipotent(psi: ArthurParameter, n: int) -> list[tuple[str, int]]:
    """Highest weight modules in the packet of a purely unipotent parameter.

    Returns a list of ("pi", m) / ("sigma", k) tags.  A one-block parameter
    carries only the trivial representation.  A three-block parameter
    ``eta_1 ⊠ R[a] + eta_2 ⊠ R[b] + eta_3 ⊠ R[1]`` (a >= b) meets a highest
    weight module exactly when some dimension-a block carries the character
    sgn^{(b+1)/2}; it then contains pi_n((b+1)/2) and, when b + 1 <= n, also
    sigma_{n,(b+1)/2}.  Both values of the remaining free character occur.
    A rank that is not an int, a bool or a float included, is refused.
    """
    _require_valid(psi)
    if psi.discrete:
        raise ValueError("parameter has a discrete part")
    if type(n) is not int:
        raise ValueError(f"rank must be int, got n={n!r}")
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


@_record
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
    block the reduction does not apply and None is returned.  A rank or m
    that is not an int, a bool or a float included, is refused, and so is
    a rank other than the parameter's, as ``decide_pi`` refuses it.
    """
    if type(n) is not int or type(m) is not int:
        raise ValueError(f"rank and m must be int, got n={n!r}, m={m!r}")
    if psi.n != n:
        raise ValueError("parameter rank does not match n")
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
    n = 2(m-1) with the block sgn^{n/2} ⊠ R[n+1] present.  Refused, as
    ``decide_pi`` refuses them: an invalid parameter, what ``module_of``
    refuses, a rank other than the parameter's.
    """
    _require_valid(psi)
    module_of("pi", n, m)  # refuses a rank or m that is not an int, and m outside 0..n
    if psi.n != n:
        raise ValueError("parameter rank does not match n")
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
        # m stays >= 0: an eligible block has bottom >= 0, so top >= a - 1,
        # and stripping at top = m - 1 leaves m - a >= 0
        psi, n, m = step.parameter, step.n, step.m


class _Route(NamedTuple):
    """One route to membership in the module's packet: the shape of its
    members, and the verdict that shape implies.

    Every member has largest unipotent dimension ``top`` and a block of that
    dimension with character ``char``.  ``char`` is None only on THM71_I,
    whose members have one unipotent block, R[1], with the character the
    determinant condition forces, and pairwise disjoint discrete segments.
    """

    module: Module
    verdict: MembershipVerdict
    top: int
    char: int | None


@functools.lru_cache(maxsize=256)
def _routes(module: Module) -> tuple[_Route, ...]:
    """The routes to the module: a parameter of the module's character is a
    member exactly when it has the shape of one of them, and the shapes are
    disjoint, so the routes partition the members and that one admits it
    (``_decide_core``), whatever order they are listed in.

    TRIVIAL is triv ⊠ R[2n+1] alone, THM71_I needs 2m > n+1, THM71_II_A1
    the block sgn^m ⊠ R[2(n-m)+1] on top, THM71_II_A3 2m >= n+2 and
    sgn^(m-1) ⊠ R[2(n-m)+3] on top, SIGMA sgn^k ⊠ R[2(n-k)+1] on top.  At
    m = n the THM71_II_A1 top is 1, and that route holds three blocks R[1]:
    one R[1] with discrete blocks is THM71_I's unipotent part.
    """
    family, n, m = module
    if family == "sigma":  # m is k
        return (_Route(module, _MEMBER[ROUTE_SIGMA], 2 * (n - m) + 1, m % 2),)
    if m == 0:
        return (_Route(module, _MEMBER[ROUTE_TRIVIAL], 2 * n + 1, CHAR_TRIV),)
    exact = _Route(module, _MEMBER[ROUTE_II_A1], 2 * (n - m) + 1, m % 2)
    if 2 * m <= n + 1:
        return (exact,)
    return (
        _Route(module, _MEMBER[ROUTE_I], 1, None),
        exact,
        _Route(module, _MEMBER[ROUTE_II_A3], 2 * (n - m) + 3, (m - 1) % 2),
    )


@functools.lru_cache(maxsize=256)
def _cuts(low: int, high: int, reach: int) -> tuple[tuple[DiscreteBlock, ...], ...]:
    """The ways to cut the integers low..high into consecutive segments
    whose lowest segment ends at reach or above (low <= reach), one tuple of
    blocks per cut, in canonical (ascending) order: each segment [l, h] as
    the discrete block (t, a) = (l + h, h - l + 1), highest segment first,
    as shared instances (``params._discrete_block``).  Past the end
    (low = high + 1) the one cut is empty.

    First comes low..high as one segment; then each highest segment
    [c, high], by ascending c > reach, over each cut of low..c-1 from the
    same memo.  The block [c, high] is (c + high, high - c + 1), whose t
    rises with c, so the cuts come out ascending when those below do; and
    two cuts of one interval never prefix each other, so a cut of one
    interval over the cuts of an interval below it, each list ascending,
    is ascending too (``_route_covers``).  With reach = low every cut
    qualifies.  With low = -s <= 0 and reach = s + 1 the lowest segment
    [-s, tau] is a piece that holds the zeros: the pair
    delta_tau ⊠ R[tau + 1] at s = 0, THM71_I's block at s = n - m.

    At ranks up to ``MAX_ENUMERATION_RANK`` (12) the plain cuts start at 1
    or above and end at 11 or below, at most 2^12 - 1 = 4,095 tuples, and
    the zero pieces have s <= 10 and end at 11 or below, at most the sum
    over s of 2^(11-s) - 1, 4,083 tuples.  So the memo then holds at most
    8,178 cut tuples, and each end beyond that doubles it.  Every module
    at ranks 1-12 asks 83 keys, and ranks 1-16 ask 143, so the memo's 256
    drop none of them.
    """
    if low > high:
        return ((),)
    return ((_discrete_block(low + high, high - low + 1),),) + tuple(
        (_discrete_block(c + high, high - c + 1),) + rest
        for c in range(reach + 1, high + 1)
        for rest in _cuts(low, c - 1, reach)
    )


def _route_covers(module: Module, route: _Route) -> list[tuple]:
    """The covers of the route's members, those of the module's character
    whose largest unipotent dimension is the route's top (the reference is
    ``tests/oracles.py::topped_covers``, on the full walk of
    ``params._all_segment_covers``), built directly and grouped by
    unipotent dimensions: (dimensions, non-increasing; the discrete tuples,
    blocks in canonical order, the tuples ascending), each cover once, with
    no search and no sort.  Each group has its own dimensions: TRIVIAL's
    and THM71_I's one group, and a topped route's one group per j of
    R[1] + R[2j+1] and one for all its pairs, when it has any.  A group
    with no gap is the memo's own tuple of covers (``_cuts``), shared with
    every caller, and is not to be mutated.

    A top of 2n+1 (TRIVIAL) is the whole parameter.  Any other module's
    character holds 0 three times, each of 1..a twice and each of a+1..b
    once, for a = min(v-1, n-v) and b = max(v-1, n-v), v its m or k.  A
    topped route's block R[2h+1], h >= a, takes one copy of each of
    -h..h, so what is left holds 0 twice and each of ±1..±b at most once:
    none of a+1..min(h, b), which is a gap when a < h < b (THM71_II_A3
    with 2m > n+2).  The two zeros are then held in one of two ways: by
    R[1] + R[2j+1] with 2j+1 <= top and 1..j left (two centered blocks of
    dimension above 1 would both hold 1), or by the one pair
    [0, j] ∪ [-j, 0], delta_j ⊠ R[j+1], with 1..j left (a pair reaching
    below 0 holds 1 twice).  The values below the gap are cut into
    consecutive segments: the cuts of j+1..end (``_cuts(j+1, end, j+1)``),
    or with the pair the cuts of 0..end whose lowest segment [0, tau]
    reaches 1 or above (``_cuts(0, end, 1)``).  With a gap, each cut of
    h+1..b (``_cuts(h+1, b, h+1)``) goes on top of each of those; its
    segments have larger t, and the cuts of one interval never prefix each
    other, so that keeps the blocks in canonical order and the tuples
    ascending.  At a top of 1, THM71_II_A1 at m = n, a pair with the one
    block R[1] is THM71_I's shape, not this route's, so the pairs are left
    out.

    THM71_I has the one block R[1] and pairwise disjoint segments, so one
    block [-(n-m), tau], tau in n-m+1..m-1, holds the doubled 0..n-m, and
    consecutive segments cut tau+1..m-1: ``_cuts(m-n, m-1, n-m+1)``,
    2^(2m-n-2) covers.
    """
    n, v, top = module.n, module.value, route.top
    if top == 2 * n + 1:
        return [((top,), ((),))]
    if route.char is None:  # THM71_I: 2m > n+1, so m-1 is b
        return [((1,), _cuts(v - n, v - 1, n - v + 1))]
    a, b = sorted((v - 1, n - v))
    h = top // 2
    end = a if h > a else b  # the values left: 1..end, then h+1..b
    groups = [
        ((top, 2 * j + 1, 1), _cuts(j + 1, end, j + 1)) for j in range(min(h, end) + 1)
    ]
    if top > 1 and end:
        groups.append(((top,), _cuts(0, end, 1)))
    if a < h < b:  # the gap: every cut of h+1..b over every cut below it
        above = _cuts(h + 1, b, h + 1)
        groups = [
            (dims, [upper + lower for upper in above for lower in lowers])
            for dims, lowers in groups
        ]
    return groups


def _enumerate_packets(
    module: Module, max_rank: int = MAX_ENUMERATION_RANK
) -> list[tuple[ArthurParameter, MembershipVerdict]]:
    """The packets containing the module, in ``enumerate_params`` order,
    each with the verdict of its route: one pass over ``_routes(module)``.

    Each route's covers are built directly, grouped by unipotent dimensions
    (``_route_covers``), with no cover search and no character entries
    listed, and on each group are built the character choices that hold the
    route's block.  The routes' covers are disjoint, so each parameter built
    is a member, by the route that built it, and no decider runs; it is
    marked valid and records that route.  The members come out in order
    one unipotent tuple at a time (``params._params_in_order``): that needs
    no two groups of the module to share dimensions, and they do not.  A
    route's groups differ in their second dimension or in having one
    block; different routes have different tops, except at m = n, where
    THM71_I's (1,) and THM71_II_A1's (1, 1, 1) both have top 1.  No member
    is compared with another.
    """
    _check_rank(module.n, max_rank)
    groups = [
        (dims, discretes, route.char, route)
        for route in _routes(module)
        for dims, discretes in _route_covers(module, route)
    ]
    return [(psi, psi._route.verdict) for psi in _params_in_order(module.n, groups)]


def enumerate_packets_pi(
    n: int, m: int, max_rank: int = MAX_ENUMERATION_RANK
) -> list[tuple[ArthurParameter, MembershipVerdict]]:
    """All packets containing pi_n(m), with the verdict that admitted them."""
    return _enumerate_packets(module_of("pi", n, m), max_rank)


def enumerate_packets_sigma(
    n: int, k: int, max_rank: int = MAX_ENUMERATION_RANK
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
