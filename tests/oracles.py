"""Independent brute-force oracles used to cross-check the library.

The enumeration oracle rebuilds the parameter list for a given infinitesimal
character by blind generate-and-test over a candidate block pool, with leaf
verification by multiset equality.  It shares no code path with the
production enumerator (which recurses on the maximum remaining entry).

The cover oracle ``set_segment_covers`` is the library's earlier cover
search, kept here as it was: a recursion on the maximum over a dict of
counts that covers it either way, re-sorts every partial cover and
deduplicates through sets.  The library's search walks the symmetric half
of the multiset and reaches each cover once.

The route-cover oracle ``topped_covers`` gives the covers with a given
largest unipotent dimension from the library's full walk
(``params._all_segment_covers``): the top's centered segment taken out, the
rest walked, and the covers kept whose dimensions do not exceed the top.
The library builds each route's covers directly
(``membership._route_covers``), with no walk.

The boundary oracles ``validate_by_copy`` and ``checked_inf_char_entries``
are the library's earlier statements of a user-built parameter's checks:
``ORDER`` when the parameter differs from its canonical copy, and the
character's entries read from a checked ``InfinitesimalCharacter``.  The
library compares neighbouring blocks and sorts the segments' entries once.

The character-test oracle ``same_inf_char_by_entries`` is the library's
earlier test of a user-built parameter's character in
``membership._decide_route``: the sorted entries of its segments against
the module's sorted entries.  The library compares the segments' edges.

The sigma oracle ``decide_sigma_recursive`` is the analogue for
sigma_{n,k} of ``membership.decide_pi_recursive``: it strips discrete
blocks whose segment ends at k-1 and decides the purely unipotent residue
with ``decide_unipotent``.  It does not read the route table.

The decider oracle ``decide_core_by_sums`` is the library's earlier reading
of a parameter's shape in ``membership._decide_core``: the largest unipotent
dimension as a maximum and THM71_I's one R[1] as a sum of dimensions, on
blocks in any order.  The library reads both off the first block of a
canonical parameter.  It tests THM71_I's disjoint segments with
``segments_pairwise_disjoint_by_pairs``, the library's earlier test, which
compares every pair of discrete segments.  The library sorts the segments
once and compares neighbours.

The count oracle ``parameter_count_by_walk`` is the library's earlier count
of the parameters of a character, for the command line's
``parameters_with_inf_char``: a memoised walk over the character's covers
by ``params._first_steps``, weighting each cover by its character choices.
The library counts in closed form in the module's rank and value
(``membership._parameter_count``), and this walk is the reference that form
is pinned to.

The half-sum oracle ``rho_vectors_by_roots`` is the library's earlier
``cohomology.rho_vectors``: it lists the roots of the Levi, of u ∩ p and of
u ∩ k of the (p, q) pair one by one and adds them up.  The library writes
each sum in closed form.

The character-tail oracle ``unipotent_tail_by_member`` is the library's
earlier per-member tail of ``characters._rho_core`` on a three-block
unipotent part, as it ran once per token: the reordering of the slots, the
e1 e2 parity, the route's e2 e3 rule (the three rules of the route table
as they were written, the sigma rule taking k from the route's module) and
the three comparisons of slots that flag VANISHING.  The library works this
tail out once per route shape and unipotent tuple, for all eight (token,
final token, product) inputs, and reads it from a table
(``characters._unipotent_signs``).

The discrete-sign oracle ``discrete_signs_by_block`` is the library's
earlier discrete pass of ``characters._rho_core``, as it ran once per
member: one loop over the blocks that carries the token, signs each block
off the bits of its ``a``, multiplies the signs, with ``keep`` also signs
the blocks for -delta, and compares each block with its neighbour for the
VANISHING flag.  The library works the pass out once per tuple of the
blocks' ``a``, for both tokens, and reads it from a table
(``characters._discrete_signs``).

The order oracle ``parameter_order`` is the library's earlier sort key of
the enumerators, ``params._order_key``: the dataclass ``order=True`` order
of parameters of one rank, their unipotent tuple, then their discrete
tuple.  The library sorts no parameter; it builds them in that order one
unipotent tuple at a time (``params._params_in_order``).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from operator import attrgetter

from sympacket.cohomology import HalfIntVector, RhoVectors
from sympacket.membership import (
    ROUTE_II_A1,
    ROUTE_II_A3,
    ROUTE_SIGMA,
    _routes,
    decide_pi_recursive,
    decide_unipotent,
)
from sympacket.params import (
    CHAR_SGN,
    CHAR_TRIV,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    _all_segment_covers,
    _first_steps,
    _half_counts,
    a_psi_u,
    remove_discrete_block,
    validate,
)
from sympacket.weights import InfinitesimalCharacter, _inf_char_entries, module_of


# the dataclass order of parameters of one rank, as a sort key
parameter_order = attrgetter("unipotent", "discrete")


def _unip_segment(dim: int) -> Counter:
    half = (dim - 1) // 2
    return Counter(range(-half, half + 1))


def _disc_segment(t: int, a: int) -> Counter:
    top = (t + a - 1) // 2
    bottom = (t - a + 1) // 2
    return Counter(
        list(range(bottom, top + 1)) + list(range(-top, -bottom + 1))
    )


def brute_force_params(chi: InfinitesimalCharacter, n: int) -> list[ArthurParameter]:
    """All valid rank-n parameters with infinitesimal character chi.

    Blind search: take every multiset of candidate blocks whose dimensions
    sum to 2n+1, keep those whose segments reproduce the character, then try
    all character assignments on the unipotent blocks and keep the valid
    parameters.
    """
    target = Counter(chi.entries)
    top = max(chi.entries)
    candidates: list[tuple[str, tuple[int, int] | int, Counter, int]] = []
    for h in range(top + 1):
        candidates.append(("u", 2 * h + 1, _unip_segment(2 * h + 1), 2 * h + 1))
    for h in range(top + 1):
        for low in range(1 - h, h + 1):
            if h + low >= 1:
                t, a = h + low, h - low + 1
                candidates.append(("d", (t, a), _disc_segment(t, a), 2 * a))

    covers: list[tuple] = []
    used: Counter = Counter()

    def dfs(start: int, remaining: int, chosen: list) -> None:
        if remaining == 0:
            if used == target:
                covers.append(tuple(chosen))
            return
        for i in range(start, len(candidates)):
            kind, data, seg, dim = candidates[i]
            if dim > remaining:
                continue
            if any(used[v] + c > target[v] for v, c in seg.items()):
                continue
            used.update(seg)
            chosen.append((kind, data))
            dfs(i, remaining - dim, chosen)
            chosen.pop()
            used.subtract(seg)

    dfs(0, 2 * n + 1, [])

    out: set[ArthurParameter] = set()
    for cover in covers:
        unip_dims = [data for kind, data in cover if kind == "u"]
        disc_data = [data for kind, data in cover if kind == "d"]
        parity = sum(a for _, a in disc_data) % 2
        for chars in itertools.product((0, 1), repeat=len(unip_dims)):
            if sum(chars) % 2 != parity:
                continue
            psi = ArthurParameter(
                n,
                tuple(UnipotentBlock(c, d) for c, d in zip(chars, unip_dims)),
                tuple(DiscreteBlock(t, a) for t, a in disc_data),
            ).canonical()
            if not validate(psi):
                out.add(psi)
    return sorted(out)


def _take(cnt: dict[int, int], v: int) -> bool:
    """Remove one entry v from the multiset in place; False if there is none."""
    k = cnt.get(v, 0)
    if k == 0:
        return False
    if k == 1:
        del cnt[v]
    else:
        cnt[v] = k - 1
    return True


def _sub_multiset(cnt: dict[int, int], seg) -> dict[int, int] | None:
    """The multiset less the entries of ``seg``, or None if it lacks one."""
    out = dict(cnt)
    for v in seg:
        if not _take(out, v):
            return None
    return out


def set_segment_covers(entries: tuple[int, ...]) -> frozenset:
    """Every cover of the multiset as (unipotent dimensions decreasing,
    discrete blocks in canonical order).

    The search covers the current maximum M either by the centered segment
    topped there or by a mirrored pair [l, M] ∪ [-M, -l] with l > -M, sorts
    every partial cover and deduplicates through sets.
    """
    memo: dict[tuple, frozenset] = {}

    def rec(cnt: dict[int, int]) -> frozenset:
        if not cnt:
            return frozenset({((), ())})
        key = tuple(sorted(cnt.items()))
        if key in memo:
            return memo[key]
        top = max(cnt)
        found: set = set()
        dim = 2 * top + 1
        if top >= 0:
            rest = _sub_multiset(cnt, range(-top, top + 1))
            if rest is not None:
                for unip, disc in rec(rest):
                    found.add((tuple(sorted(unip + (dim,), reverse=True)), disc))
        rest = dict(cnt)
        for low in range(top, -top, -1):
            if top + low < 1 or not (_take(rest, low) and _take(rest, -low)):
                break
            block = DiscreteBlock(top + low, top - low + 1)
            for unip, disc in rec(rest):
                found.add((unip, tuple(sorted(disc + (block,), reverse=True))))
        memo[key] = frozenset(found)
        return memo[key]

    return rec(dict(Counter(entries)))


def topped_covers(entries: tuple[int, ...], top: int) -> list:
    """The covers of the multiset whose largest unipotent dimension is
    ``top``, in the shape of ``params._all_segment_covers``.

    Top's centered segment is taken out of the entries (no covers if an
    entry runs out), the rest is walked in full, and the covers whose
    unipotent dimensions are all at most top are kept, top put first.
    """
    rest = Counter(entries)
    rest.subtract(range(-(top // 2), top // 2 + 1))
    if min(rest.values()) < 0:
        return []
    return [
        ((top,) + dims, discrete)
        for dims, discrete in _all_segment_covers(tuple(rest.elements()))
        if max(dims, default=0) <= top
    ]


def validate_by_copy(psi: ArthurParameter) -> list[str]:
    """The violation codes of ``params.validate``, with ORDER found by
    building and comparing the canonical copy."""
    codes: list[str] = []
    shape_ok = psi.n >= 0
    for b in psi.unipotent:
        if b.char not in (CHAR_TRIV, CHAR_SGN) or b.dim < 1 or b.dim % 2 == 0:
            shape_ok = False
    for b in psi.discrete:
        if b.t < 1 or b.a < 1 or (b.t + b.a) % 2 == 0:
            shape_ok = False
    if not shape_ok:
        codes.append("BLOCK_SHAPE")
    if psi.dim_unipotent + psi.dim_discrete != 2 * psi.n + 1:
        codes.append("DIM_SUM")
    char_parity = sum(b.char for b in psi.unipotent) % 2
    odd_discrete = sum(1 for b in psi.discrete if b.a % 2 == 1) % 2
    if char_parity != odd_discrete:
        codes.append("PARITY_PRODUCT")
    if psi != psi.canonical():
        codes.append("ORDER")
    return codes


def checked_inf_char_entries(psi: ArthurParameter) -> tuple[int, ...]:
    """The entries of the parameter's infinitesimal character, from the
    checked ``InfinitesimalCharacter`` of its segments."""
    entries: list[int] = []
    for b in psi.unipotent:
        half = (b.dim - 1) // 2
        entries.extend(range(-half, half + 1))
    for b in psi.discrete:
        entries.extend(range(b.bottom, b.top + 1))
        entries.extend(range(-b.top, -b.bottom + 1))
    return InfinitesimalCharacter(tuple(entries)).entries


def valid_inf_char_by_copy(psi: ArthurParameter) -> tuple[int, ...]:
    """The entries of ``params.inf_char_of_param`` of a parameter that
    ``params._require_valid`` admits: refused with the codes of
    ``validate_by_copy``, else ``checked_inf_char_entries``."""
    codes = validate_by_copy(psi)
    if codes:
        raise ValueError(f"invalid parameter {psi}: {codes}")
    return checked_inf_char_entries(psi)


def same_inf_char_by_entries(psi: ArthurParameter, module) -> bool:
    """Whether the parameter has the module's infinitesimal character, by
    the sorted entries of both sides."""
    return checked_inf_char_entries(psi) == module.inf_char()


def decide_sigma_recursive(psi: ArthurParameter, n: int, k: int) -> bool:
    """Membership oracle for sigma_{n,k} by repeated discrete-block stripping.

    sigma_{2k,k} is pi_{2k}(k+1) and goes to ``decide_pi_recursive``.  For
    n > 2k the character is [k-n, n-k], [1-k, k-1] and {0}.  A member covers
    n-k, its largest entry, with its largest unipotent block, so no
    discrete segment of a member ends above k-1.  Stripping a block whose
    segment ends at k-1 (with the sign retwist) leaves [k-n, n-k] and the
    character's smaller part cut short, which is sigma_{n-a,k-a}; at k = 0
    that is the trivial module pi_n(0).  With nothing left to strip, a
    purely unipotent residue is decided by ``decide_unipotent``, and any
    other is not a member.
    """
    if validate(psi):
        raise ValueError(f"invalid parameter {psi}")
    module_of("sigma", n, k)  # refuses k outside 1..n/2
    if n == 2 * k:
        return decide_pi_recursive(psi, n, k + 1)
    while True:
        if k == 0:
            return decide_pi_recursive(psi, n, 0)
        weight = (k + 1,) * (2 * k) + (k,) * (n - 2 * k)
        if checked_inf_char_entries(psi) != _inf_char_entries(weight):
            return False
        if not psi.discrete:
            return ("sigma", k) in decide_unipotent(psi, n)
        if any(b.top > k - 1 for b in psi.discrete):
            return False
        ending = [i for i, b in enumerate(psi.discrete) if b.top == k - 1]
        if not ending:
            return False
        a = psi.discrete[ending[0]].a
        if a > k:  # the segment crosses 0: its mirror repeats entries
            return False
        psi, n, k = remove_discrete_block(psi, ending[0]), n - a, k - a


def segments_pairwise_disjoint_by_pairs(psi: ArthurParameter) -> bool:
    """Whether no two discrete segments [bottom, top] of psi meet, tested
    on every pair."""
    intervals = [(b.bottom, b.top) for b in psi.discrete]
    for (l1, h1), (l2, h2) in itertools.combinations(intervals, 2):
        if not (h1 < l2 or h2 < l1):
            return False
    return True


def decide_core_by_sums(psi: ArthurParameter, module):
    """The first route of ``membership._routes(module)`` whose shape psi
    has, or None, read with ``a_psi_u`` and ``dim_unipotent``."""
    top = a_psi_u(psi)
    for route in _routes(module):
        if route.char is None:  # THM71_I
            if psi.dim_unipotent == 1 and segments_pairwise_disjoint_by_pairs(psi):
                return route
        elif top == route.top and UnipotentBlock(route.char, top) in psi.unipotent:
            return route
    return None


def parameter_count_by_walk(entries: tuple[int, ...]) -> int:
    """How many valid parameters have a character with these entries,
    counted without building a cover or a parameter.

    On a cover, ``params._char_assignments`` gives the character multisets
    of one parity.  The dimensions sum to an odd number, so some dimension
    occurs an odd number c of times; exchanging k and c - k sign blocks there
    pairs the two parities, so half of the prod(c + 1) choices have each,
    and the count is half the sum of prod(c + 1) over the covers.  That sum
    is taken on the walk of ``params._all_segment_covers``, with the same
    memo key, where a run of c equal dimensions contributes c + 1.
    """
    memo: dict[tuple, int] = {((), None): 1}

    def weighted(half: tuple[int, ...], bound: int | None) -> int:
        key = (half, bound)
        total = memo.get(key)
        if total is None:
            total = 0
            for low, rest, following in _first_steps(half, bound):
                sub = weighted(rest, following)
                total += sub if low is not None else (half[-1] + 1) * sub
            memo[key] = total
        return total

    return weighted(_half_counts(entries), None) // 2


def _add_root(vec: list[int], i: int, j: int | None, si: int, sj: int) -> None:
    # accumulate si*e_i (+ sj*e_j), 0-based indices
    vec[i] += si
    if j is not None:
        vec[j] += sj


def rho_vectors_by_roots(n: int, p: int, q: int) -> RhoVectors:
    """Half-sums of the root sets of the (p, q) parabolic pair, by direct
    enumeration of the roots, for the positive system of
    ``cohomology.rho_vectors``: reversed on the first p coordinates,
    standard on the last q, and negated long/short sums on the middle
    symplectic factor."""
    first = range(0, p)
    middle = range(p, n - q)
    last = range(n - q, n)

    two_delta_l = [0] * n
    for i in first:
        for j in first:
            if i < j:
                _add_root(two_delta_l, i, j, -1, +1)  # -(e_i - e_j)
    for i in last:
        for j in last:
            if i < j:
                _add_root(two_delta_l, i, j, +1, -1)  # e_i - e_j
    for i in middle:
        for j in middle:
            if i < j:
                _add_root(two_delta_l, i, j, +1, -1)  # e_i - e_j
                _add_root(two_delta_l, i, j, -1, -1)  # -(e_i + e_j)
        _add_root(two_delta_l, i, None, -2, 0)  # -2 e_i
    for i in first:
        for j in last:
            _add_root(two_delta_l, i, j, -1, -1)  # -(e_i + e_j)

    two_delta_up = [0] * n
    for i in first:
        for j in first:
            if i < j:
                _add_root(two_delta_up, i, j, +1, +1)  # e_i + e_j
        _add_root(two_delta_up, i, None, +2, 0)  # 2 e_i
    for i in last:
        for j in last:
            if i < j:
                _add_root(two_delta_up, i, j, -1, -1)  # -(e_i + e_j)
        _add_root(two_delta_up, i, None, -2, 0)  # -2 e_i
    for i in first:
        for j in middle:
            _add_root(two_delta_up, i, j, +1, +1)  # e_i + e_j
    for i in middle:
        for j in last:
            _add_root(two_delta_up, i, j, -1, -1)  # -(e_i + e_j)

    two_delta_uk = [0] * n
    count_uk = 0
    for i in first:
        for j in range(p, n):
            _add_root(two_delta_uk, i, j, +1, -1)  # e_i - e_j
            count_uk += 1
    for i in middle:
        for j in last:
            _add_root(two_delta_uk, i, j, +1, -1)  # e_i - e_j
            count_uk += 1

    # the sums entry by entry, not through ``HalfIntVector.__add__``
    two_delta_u = [a + b for a, b in zip(two_delta_up, two_delta_uk)]
    two_delta_pq = [a + b for a, b in zip(two_delta_l, two_delta_u)]
    doubled = (two_delta_l, two_delta_up, two_delta_uk, two_delta_u, two_delta_pq)
    return RhoVectors(*(HalfIntVector(tuple(v)) for v in doubled), count_uk)


# The e2 e3 rules of the route table, as they were written: from whether
# eta_2 carries the character of the big block, a = (dim eta_2 + 1)/2, delta
# and delta' to the product e2 e3.
def _e2e3_exact(same: bool, a: int, delta: int, delta_prime: int) -> int:
    # delta' (-1)^(a+1)
    return 1 if same else delta_prime if a & 1 else -delta_prime


def _e2e3_shifted(same: bool, a: int, delta: int, delta_prime: int) -> int:
    # delta' (-1)^a
    return -1 if same else -delta_prime if a & 1 else delta_prime


def _e2e3_sigma(k: int, same: bool, a: int, delta: int, delta_prime: int) -> int:
    # delta (-1)^k
    return -1 if same else -delta if k & 1 else delta


def unipotent_tail_by_member(route, unipotent, whittaker, token, product):
    """The slots (eta1, eta2, big), their signs (e1, e2, e3) and whether the
    slots flag VANISHING, for a three-block unipotent part admitted by the
    route, the token ``whittaker``, the token the discrete pass ends with
    and the discrete product, as the recipe worked them out per member."""
    tag = route.verdict.route
    if tag == ROUTE_SIGMA:
        rule = functools.partial(_e2e3_sigma, route.module.value)
    else:
        rule = {ROUTE_II_A1: _e2e3_exact, ROUTE_II_A3: _e2e3_shifted}[tag]
    # the big block is char ⊠ R[top]; the first block equal to it is it
    key = route.char, route.top
    x, y, big = unipotent
    if x == key:
        x, y, big = y, big, x
    elif y == key:
        y, big = big, y
    if x.dim == y.dim:
        eta1, eta2 = x, y
    else:
        eta1, eta2 = y, x
    a = (eta2.dim + 1) // 2
    same = eta2.char == route.char
    # e1 e2 = (-1)^floor(delta' a / 2); the token is now delta'
    e1e2 = -1 if a & 2 else 1
    if a & 1:
        e1e2 *= token
    e3 = e1e2 * product
    e2 = rule(same, a, whittaker, token) * e3
    e1 = e1e2 * e2
    flagged = (
        (e1 != e2 and eta1 == eta2)
        or (e1 != e3 and eta1 == big)
        or (e2 != e3 and eta2 == big)
    )
    return (eta1, eta2, big), (e1, e2, e3), flagged


def discrete_signs_by_block(discrete, delta, keep):
    """The signs of the discrete blocks for the token delta, their product,
    the token the pass ends with, with ``keep`` the signs for -delta (else
    none), and whether two equal neighbours got unequal signs, as the
    recipe worked them out per member, one block at a time."""
    # the signs of delta and, with keep, of -delta, grown in place by ``+=``,
    # which makes no call (``append`` would be one per block)
    signs = []
    flipped = []
    product = 1  # of the discrete signs of delta
    vanishing = False
    token = delta
    previous = last = None
    for block in discrete:
        a = block.a
        # (-1)^floor(token a / 2): bit 1 of a, times the token where a is odd
        if a & 1:
            sign = -token if a & 2 else token
            token = -token
        else:
            sign = -1 if a & 2 else 1
        if sign != last and block == previous:
            vanishing = True
        signs += (sign,)
        product *= sign
        if keep:
            flipped += (-sign if a & 1 else sign,)
        previous, last = block, sign
    return tuple(signs), product, token, tuple(flipped), vanishing
