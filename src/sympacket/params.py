"""Arthur parameters of Sp(2n,R) with integral infinitesimal character.

A parameter is a multiset of blocks of total dimension 2n+1:

* unipotent blocks ``eta ⊠ R[a']`` -- a quadratic character of the real Weil
  group (trivial or sign) tensored with the a'-dimensional irreducible of
  SL(2,C), a' odd;
* discrete blocks ``delta_t ⊠ R[a]`` -- the two dimensional Weil group
  representation of parameter t >= 1 tensored with R[a], with t + a odd.

Validity further requires the dimension count ``sum a'_i + 2 sum a_j = 2n+1``
and the determinant condition: the product of the quadratic characters equals
sgn raised to the number of discrete blocks with odd a.

Blocks are kept in a canonical order (discrete: t decreasing, ties by a
decreasing; unipotent: dimension decreasing, ties trivial before sign) so
that multiset equality is tuple equality.  ``enumerate_params`` produces the
complete duplicate-free list of valid parameters with a prescribed
infinitesimal character by covering the character multiset with centered
segments (unipotent) and mirrored off-center segments (discrete).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .weights import InfinitesimalCharacter

__all__ = [
    "CHAR_TRIV",
    "CHAR_SGN",
    "UnipotentBlock",
    "DiscreteBlock",
    "ArthurParameter",
    "validate",
    "inf_char_of_param",
    "a_psi",
    "a_psi_u",
    "twist_sgn",
    "hw_shape_check",
    "contains_block",
    "remove_discrete_block",
    "enumerate_params",
    "RankBoundError",
    "char_name",
    "char_from_name",
]

CHAR_TRIV = 0
CHAR_SGN = 1

# validation codes
DIM_SUM = "DIM_SUM"
PARITY_PRODUCT = "PARITY_PRODUCT"
BLOCK_SHAPE = "BLOCK_SHAPE"
ORDER = "ORDER"


class RankBoundError(ValueError):
    """A rank above the enumeration cap."""


def char_name(char: int) -> str:
    return "triv" if char % 2 == 0 else "sgn"


def char_from_name(name: str) -> int:
    try:
        return {"triv": CHAR_TRIV, "sgn": CHAR_SGN}[name]
    except KeyError:
        raise ValueError(f"unknown character {name!r}") from None


@dataclass(frozen=True, order=True)
class UnipotentBlock:
    """Quadratic character (0 = trivial, 1 = sign) times R[dim], dim odd."""

    char: int
    dim: int

    def __str__(self) -> str:
        return f"{char_name(self.char)}⊠R[{self.dim}]"


@dataclass(frozen=True, order=True)
class DiscreteBlock:
    """Two dimensional Weil group block delta_t times R[a], t + a odd.

    Its contribution to the infinitesimal character is the integer segment
    [bottom, top] together with its mirror image.
    """

    t: int
    a: int

    @property
    def top(self) -> int:
        return (self.t + self.a - 1) // 2

    @property
    def bottom(self) -> int:
        return (self.t - self.a + 1) // 2

    def __str__(self) -> str:
        return f"δ_{self.t}⊠R[{self.a}]"


def _unip_key(block: UnipotentBlock) -> tuple[int, int]:
    return (-block.dim, block.char)


def _disc_key(block: DiscreteBlock) -> tuple[int, int]:
    return (-block.t, -block.a)


@dataclass(frozen=True, order=True)
class ArthurParameter:
    """Block multiset of total dimension 2n+1, stored in canonical order.

    Rank 0 is permitted (the one-block parameter of the trivial group); it
    arises when discrete blocks are stripped off recursively.
    """

    n: int
    unipotent: tuple[UnipotentBlock, ...]
    discrete: tuple[DiscreteBlock, ...] = ()
    # Not fields (no annotation): the entries of the infinitesimal
    # character, and the route of ``membership._routes`` that admitted an
    # enumerated member, which ``_trusted_param`` records on the instance.
    # The class default None reads as "no record" without a dictionary
    # lookup.
    _inf_char = None
    _route = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "unipotent", tuple(self.unipotent))
        object.__setattr__(self, "discrete", tuple(self.discrete))

    def canonical(self) -> "ArthurParameter":
        return ArthurParameter(
            self.n,
            tuple(sorted(self.unipotent, key=_unip_key)),
            tuple(sorted(self.discrete, key=_disc_key)),
        )

    @property
    def dim_unipotent(self) -> int:
        return sum(b.dim for b in self.unipotent)

    @property
    def dim_discrete(self) -> int:
        return 2 * sum(b.a for b in self.discrete)

    def __str__(self) -> str:
        parts = [str(b) for b in self.discrete] + [str(b) for b in self.unipotent]
        return " ⊕ ".join(parts)


def validate(psi: ArthurParameter) -> list[str]:
    """Check all parameter invariants; return the list of violation codes.

    Codes: BLOCK_SHAPE (bad block data or negative rank), DIM_SUM (dimension
    count off), PARITY_PRODUCT (determinant condition fails), ORDER (blocks
    not canonically sorted).  An empty list means the parameter is valid.
    """
    codes: list[str] = []
    shape_ok = psi.n >= 0
    for b in psi.unipotent:
        if b.char not in (CHAR_TRIV, CHAR_SGN) or b.dim < 1 or b.dim % 2 == 0:
            shape_ok = False
    for b in psi.discrete:
        if b.t < 1 or b.a < 1 or (b.t + b.a) % 2 == 0:
            shape_ok = False
    if not shape_ok:
        codes.append(BLOCK_SHAPE)
    if psi.dim_unipotent + psi.dim_discrete != 2 * psi.n + 1:
        codes.append(DIM_SUM)
    char_parity = sum(b.char for b in psi.unipotent) % 2
    odd_discrete = sum(1 for b in psi.discrete if b.a % 2 == 1) % 2
    if char_parity != odd_discrete:
        codes.append(PARITY_PRODUCT)
    if psi != psi.canonical():
        codes.append(ORDER)
    return codes


def inf_char_of_param(psi: ArthurParameter) -> InfinitesimalCharacter:
    """Infinitesimal character of the packet attached to the parameter.

    Each unipotent block contributes the centered segment of its dimension,
    each discrete block the segment [bottom, top] plus its mirror image.
    """
    entries: list[int] = []
    for b in psi.unipotent:
        half = (b.dim - 1) // 2
        entries.extend(range(-half, half + 1))
    for b in psi.discrete:
        entries.extend(range(b.bottom, b.top + 1))
        entries.extend(range(-b.top, -b.bottom + 1))
    return InfinitesimalCharacter(tuple(entries))


def a_psi(psi: ArthurParameter) -> int:
    """Largest SL(2)-dimension occurring in any block."""
    dims = [b.dim for b in psi.unipotent] + [b.a for b in psi.discrete]
    if not dims:
        raise ValueError("parameter has no blocks")
    return max(dims)


def a_psi_u(psi: ArthurParameter) -> int:
    """Largest SL(2)-dimension occurring in the unipotent part."""
    if not psi.unipotent:
        raise ValueError("unipotent part is empty")
    return max(b.dim for b in psi.unipotent)


def twist_sgn(
    blocks: tuple[UnipotentBlock, ...], dim_discrete: int
) -> tuple[UnipotentBlock, ...]:
    """Twist unipotent blocks by sgn^{dim_discrete/2}.

    This is the correction making the unipotent part a parameter of the
    smaller symplectic group.  Discrete blocks absorb sign twists, so they
    never change.
    """
    if dim_discrete % 2 != 0:
        raise ValueError("discrete part has even dimension")
    exponent = (dim_discrete // 2) % 2
    if exponent == 0:
        return tuple(blocks)
    twisted = tuple(UnipotentBlock((b.char + 1) % 2, b.dim) for b in blocks)
    return tuple(sorted(twisted, key=_unip_key))


def hw_shape_check(psi: ArthurParameter) -> bool:
    """Block constraints forced when the packet can meet a highest weight module.

    (i) The unipotent part has 1 or 3 blocks, and with 3 blocks at least one
    is one dimensional.  (ii) At most one discrete block satisfies
    ``t - a + 1 <= 0``; if one does, the unipotent part is a single block,
    of dimension 1 when the inequality is strict.
    """
    r = len(psi.unipotent)
    if r not in (1, 3):
        return False
    if r == 3 and min(b.dim for b in psi.unipotent) != 1:
        return False
    flat = [b for b in psi.discrete if b.t - b.a + 1 <= 0]
    if len(flat) > 1:
        return False
    if flat:
        if r != 1:
            return False
        if flat[0].t - flat[0].a + 1 < 0 and psi.unipotent[0].dim != 1:
            return False
    return True


def contains_block(psi: ArthurParameter, block: UnipotentBlock | DiscreteBlock) -> bool:
    if isinstance(block, UnipotentBlock):
        return block in psi.unipotent
    return block in psi.discrete


def remove_discrete_block(psi: ArthurParameter, index: int) -> ArthurParameter:
    """Strip the discrete block at ``index`` and retwist the remainder.

    Removing ``delta_t ⊠ R[a]`` drops the rank by a and multiplies every
    unipotent character by sgn^a, so the result is again a valid parameter.
    """
    removed = psi.discrete[index]
    rest = psi.discrete[:index] + psi.discrete[index + 1 :]
    unip = twist_sgn(psi.unipotent, 2 * removed.a)
    return ArthurParameter(psi.n - removed.a, unip, rest).canonical()


# --- enumeration -----------------------------------------------------------

_Cover = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]


def _sub_multiset(cnt: dict[int, int], seg: Iterable[int]) -> dict[int, int] | None:
    """The multiset less the entries of ``seg``, or None if it lacks one."""
    out = dict(cnt)
    for v in seg:
        if not _take(out, v):
            return None
    return out


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


def _all_segment_covers(
    entries: tuple[int, ...], cap: int | None = None
) -> frozenset[_Cover]:
    """All ways of writing the multiset as segments of the two block kinds.

    A cover is a pair (multiset of unipotent dimensions, multiset of (t, a)
    discrete data).  The search always covers the current maximum element,
    either by the centered segment topped there or by a mirrored segment
    pair [l, M] ∪ [-M, -l] with l > -M; results are canonicalized, so each
    cover is reported once.  With ``cap``, only covers whose unipotent
    dimensions are all at most ``cap``.
    """
    memo: dict[tuple[tuple[int, int], ...], frozenset[_Cover]] = {}

    def rec(cnt: dict[int, int]) -> frozenset[_Cover]:
        if not cnt:
            return frozenset({((), ())})
        key = tuple(sorted(cnt.items()))
        if key in memo:
            return memo[key]
        top = max(cnt)
        found: set[_Cover] = set()
        dim = 2 * top + 1
        if top >= 0 and (cap is None or dim <= cap):
            rest = _sub_multiset(cnt, range(-top, top + 1))
            if rest is not None:
                for unip, disc in rec(rest):
                    found.add(
                        (tuple(sorted(unip + (dim,), reverse=True)), disc)
                    )
        # the pair [low, top] ∪ [-top, -low] grows by low and -low as low
        # falls, so one copy of the multiset loses them step by step, and
        # the first entry it lacks ends the search
        rest = dict(cnt)
        for low in range(top, -top, -1):
            if top + low < 1 or not (_take(rest, low) and _take(rest, -low)):
                break
            block = (top + low, top - low + 1)  # (t, a)
            for unip, disc in rec(rest):
                # (t, a) pairs decreasing, which is increasing (-t, -a)
                merged = tuple(sorted(disc + (block,), reverse=True))
                found.add((unip, merged))
        memo[key] = frozenset(found)
        return memo[key]

    return rec(dict(Counter(entries)))


def _topped_covers(entries: tuple[int, ...], top: int) -> list[_Cover]:
    """The covers of the multiset whose largest unipotent dimension is ``top``.

    Each such cover is the centered segment of ``top`` plus a cover of the
    rest with unipotent dimensions at most ``top``, and back; so the rest is
    searched with that cap and nothing else.
    """
    half = (top - 1) // 2
    rest = _sub_multiset(Counter(entries), list(range(-half, half + 1)))
    if rest is None:
        return []
    return [
        ((top,) + unip, disc)
        for unip, disc in _all_segment_covers(tuple(Counter(rest).elements()), top)
    ]


# Shared block instances for trusted construction.  Blocks are immutable, and
# the enumeration cap keeps the (char, dim) and (t, a) pairs few; sharing only
# saves time, so the caches are bounded.
_unipotent_block = functools.lru_cache(maxsize=1024)(UnipotentBlock)
_discrete_block = functools.lru_cache(maxsize=1024)(DiscreteBlock)


def _trusted_param(
    n: int,
    unipotent: tuple[UnipotentBlock, ...],
    discrete: tuple[DiscreteBlock, ...],
    entries: tuple[int, ...],
    route: tuple | None = None,
) -> ArthurParameter:
    """An ``ArthurParameter`` from block tuples already in canonical order,
    without the tuple coercion of ``__post_init__``, that records the
    entries of its infinitesimal character and, with ``route``, the route
    of ``membership._routes`` that admits it to the packet of the route's
    module.

    The caller vouches that the blocks form a valid parameter whose
    infinitesimal character has exactly these (decreasing) ``entries``:
    ``_valid_inf_char`` returns them without validating.  With ``route``,
    it vouches that the route is the first of its module's table whose
    shape the parameter has: ``membership._decide_route`` returns it
    without deciding.  The records are plain instance attributes, not
    dataclass fields, so ``==``, ``hash``, the order, ``repr`` and ``str``
    ignore them, and ``dataclasses.replace`` or the constructor make
    parameters without them.
    """
    psi = object.__new__(ArthurParameter)
    object.__setattr__(psi, "n", n)
    object.__setattr__(psi, "unipotent", unipotent)
    object.__setattr__(psi, "discrete", discrete)
    object.__setattr__(psi, "_inf_char", entries)
    if route is not None:
        object.__setattr__(psi, "_route", route)
    return psi


def _require_valid(psi: ArthurParameter) -> None:
    """Refuse a parameter with any ``validate`` violation."""
    codes = validate(psi)
    if codes:
        raise ValueError(f"invalid parameter {psi}: {codes}")


def _valid_inf_char(psi: ArthurParameter) -> tuple[int, ...]:
    """The entries of the infinitesimal character of a valid parameter.

    A parameter from ``_trusted_param`` returns the entries it recorded,
    unchecked.  Any other is validated first (``ValueError`` naming the
    violation codes) and its character computed (``inf_char_of_param``).
    """
    entries = psi._inf_char
    if entries is None:
        _require_valid(psi)
        entries = inf_char_of_param(psi).entries
    return entries


@functools.lru_cache(maxsize=1024)
def _char_assignments(
    dims: tuple[int, ...], parity: int, top_char: int | None = None
) -> tuple[tuple[UnipotentBlock, ...], ...]:
    """Character multisets on unipotent blocks with prescribed sign parity.

    Blocks come out in canonical order: dimensions decreasing, and within a
    dimension trivial before sign, as shared instances.  With ``top_char``,
    only the multisets in which some block of the largest dimension carries
    that character.  Covers share few dimension multisets (the packets of
    every module at ranks 4-9 need 62 keys), so the answers are kept.
    """
    groups = sorted(Counter(dims).items(), reverse=True)
    choices = [range(c + 1) for _, c in groups]
    if top_char is not None:
        c = groups[0][1]
        # a pick is the number k of sign blocks: sgn needs k >= 1, triv c - k >= 1
        choices[0] = range(1, c + 1) if top_char == CHAR_SGN else range(c)
    out = []
    for picks in itertools.product(*choices):
        if sum(picks) % 2 != parity:
            continue
        blocks: list[UnipotentBlock] = []
        for (dim, count), k in zip(groups, picks):
            blocks.extend([_unipotent_block(CHAR_TRIV, dim)] * (count - k))
            blocks.extend([_unipotent_block(CHAR_SGN, dim)] * k)
        out.append(tuple(blocks))
    return tuple(out)


def _assignment_count(dims: tuple[int, ...]) -> int:
    """How many character multisets ``_char_assignments`` gives on a cover,
    of either parity, without building them.

    The dimensions sum to an odd number, so some dimension occurs an odd
    number c of times; exchanging k and c - k sign blocks there pairs the
    two parities, so half of the prod(c + 1) choices have each.
    """
    total = 1
    for dim in set(dims):
        total *= dims.count(dim) + 1
    return total // 2


def _check_rank(n: int, max_rank: int) -> None:
    """Refuse a rank below 1 or above the enumeration cap ``max_rank``."""
    if n < 1:
        raise ValueError("rank must be positive")
    if n > max_rank:
        raise RankBoundError(f"rank {n} exceeds the enumeration cap {max_rank}")


def _covers(entries: tuple[int, ...], tops: Iterable[int] | None = None) -> list[tuple]:
    """The covers of a character's entries as (unipotent dims, discrete (t, a)
    data, parity), the parity being the one the determinant condition asks
    of the unipotent characters.  With ``tops``, only the covers whose
    largest unipotent dimension is one of them, each top searched on its own
    (``_topped_covers``).
    """
    if tops is None:
        covers = _all_segment_covers(entries)
    else:
        covers = [cover for top in tops for cover in _topped_covers(entries, top)]
    return [(unip_dims, disc_data, _parity(disc_data)) for unip_dims, disc_data in covers]


def _parity(disc_data: tuple[tuple[int, int], ...]) -> int:
    """The parity the determinant condition asks of the unipotent characters
    on a cover with discrete data ``disc_data``."""
    return sum(a % 2 for _, a in disc_data) % 2


def _cover_params(
    n: int,
    entries: tuple[int, ...],
    unip_dims: tuple[int, ...],
    disc_data: tuple,
    parity: int,
    top_char: int | None = None,
    route: tuple | None = None,
):
    """The parameters of rank n on one cover from ``_covers`` of the
    character ``entries``, each recording them (and ``route``, see
    ``_trusted_param``); with ``top_char``, only those with a block of the
    largest unipotent dimension and that character.

    Trusted construction: each cover is canonical ((t, a) by (-t, -a), and
    _char_assignments yields unipotent blocks in _unip_key order), covers
    the 2n+1 entries with well-shaped blocks, and gets only characters of
    the parity the determinant condition needs; distinct covers and
    assignments give distinct parameters.  So nothing is canonicalized,
    validated or deduplicated again.
    """
    discrete = tuple(_discrete_block(t, a) for t, a in disc_data)
    for unip in _char_assignments(unip_dims, parity, top_char):
        yield _trusted_param(n, unip, discrete, entries, route)


def enumerate_params(
    chi: InfinitesimalCharacter, n: int, max_rank: int = 12
) -> list[ArthurParameter]:
    """All valid parameters of rank n with inf. character chi, canonicalized,
    each recording ``chi.entries`` (``_trusted_param``).

    The rank is capped by ``max_rank`` (default 12) since the cover search is
    combinatorial; raise the cap explicitly for larger experiments.
    """
    _check_rank(n, max_rank)
    if chi.rank != n:
        raise ValueError("character length must be 2n+1")
    entries = chi.entries
    out = [psi for cover in _covers(entries) for psi in _cover_params(n, entries, *cover)]
    out.sort(key=_order_key)
    return out


def _order_key(psi: ArthurParameter) -> tuple:
    """The dataclass ``order=True`` order of parameters of one rank, as tuples."""
    return (
        tuple((b.char, b.dim) for b in psi.unipotent),
        tuple((b.t, b.a) for b in psi.discrete),
    )
