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

A parameter is validated once.  The parameters built here, by the packet
enumerators and by the wire reader (``_trusted_params``) carry a mark that
says they are valid; ``_require_valid``, the one trust check of every
decider, returns at once for them and validates any other.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from collections.abc import Iterable
from dataclasses import FrozenInstanceError, dataclass, field
from typing import NamedTuple

from .weights import InfinitesimalCharacter, _echo

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
    "MAX_ENUMERATION_RANK",
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


# the default ``max_rank`` of the enumerators: the parameters of a character,
# and the members of a packet, grow exponentially with the rank
MAX_ENUMERATION_RANK = 12


class RankBoundError(ValueError):
    """A rank above the enumeration cap."""


def char_name(char: int) -> str:
    return "triv" if char % 2 == 0 else "sgn"


def char_from_name(name: str) -> int:
    try:
        return {"triv": CHAR_TRIV, "sgn": CHAR_SGN}[name]
    except KeyError:
        raise ValueError(f"unknown character {_echo(name)}") from None


class UnipotentBlock(NamedTuple):
    """Quadratic character (0 = trivial, 1 = sign) times R[dim], dim odd.

    Blocks of both kinds are ``NamedTuple``s, so ``==``, ``hash`` and the
    order are those of the plain tuple and run in C.  A plain tuple compares
    equal across classes: ``UnipotentBlock(1, 3) == DiscreteBlock(1, 3)``.
    Valid blocks of the two kinds never do (a unipotent ``dim`` is odd, a
    discrete block has t >= 1 and t + a odd), and code that must tell the
    kinds apart asks ``isinstance``.
    """

    char: int
    dim: int

    def __str__(self) -> str:
        char = self.char
        # a char that is not an int is shown as it is, for the refusal
        name = char_name(char) if type(char) is int else repr(char)
        return f"{name}⊠R[{self.dim}]"


class DiscreteBlock(NamedTuple):
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


def _record_slot():
    """A mark or record of ``ArthurParameter``: a slot that ``__init__``,
    ``==``, ``hash``, the order and ``repr`` leave out, set by
    ``__post_init__`` and by ``_trusted_params``."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True, order=True, slots=True)
class ArthurParameter:
    """Block multiset of total dimension 2n+1, stored in canonical order.

    Rank 0 is permitted (the one-block parameter of the trivial group); it
    arises when discrete blocks are stripped off recursively.
    """

    n: int
    unipotent: tuple[UnipotentBlock, ...]
    discrete: tuple[DiscreteBlock, ...] = ()
    # The mark and the records (``_record_slot``): whether the parameter is
    # known valid (``_require_valid`` reads it), and the route of
    # ``membership._routes`` that admitted an enumerated member, both set by
    # ``_trusted_params``; and a member's character of the second token,
    # which ``characters._rho_core`` keeps when its route record answered.
    # The constructor and ``dataclasses.replace`` make unmarked parameters
    # (False), whose records are None.
    _valid: bool = _record_slot()
    _route: tuple | None = _record_slot()
    _kept_char: object | None = _record_slot()  # a characters.PacketCharacter

    def __post_init__(self) -> None:
        # past the frozen __setattr__, through the slots' setters, as
        # _trusted_params writes them: the blocks as tuples, and unmarked
        _, set_unipotent, set_discrete, set_valid, set_route, set_kept_char = _SLOT_SETTERS
        set_unipotent(self, tuple(self.unipotent))
        set_discrete(self, tuple(self.discrete))
        set_valid(self, False)
        set_route(self, None)
        set_kept_char(self, None)

    def canonical(self) -> "ArthurParameter":
        return ArthurParameter(
            self.n,
            tuple(sorted(self.unipotent, key=_unip_key)),
            tuple(sorted(self.discrete, reverse=True)),  # (-t, -a) increasing
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


# In place of the dataclass's own pair, which for a name that is not a field
# calls ``super()`` with the class as it was before ``slots=True`` rebuilt
# it, and so raises TypeError; the slots admit no other name anyway.
def _refuse_set(self: ArthurParameter, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self: ArthurParameter, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


ArthurParameter.__setattr__ = _refuse_set
ArthurParameter.__delattr__ = _refuse_delete


def validate(psi: ArthurParameter) -> list[str]:
    """Check all parameter invariants; return the list of violation codes.

    Codes: BLOCK_SHAPE (bad block data or negative rank), DIM_SUM (dimension
    count off), PARITY_PRODUCT (determinant condition fails), ORDER (blocks
    not canonically sorted).  An empty list means the parameter is valid.

    One loop per block list, in this one frame, checks each block's shape,
    adds its dimension and its share of the determinant condition (the
    unipotent characters and the discrete a: the condition is that their
    sum is even), and compares the block with the one before it as
    ``canonical()`` sorts them, so ORDER needs no canonical copy.  A rank or
    block field that is not an ``int`` (a bool is not, as in
    ``weights._not_integer``) is refused as BLOCK_SHAPE alone: the count,
    the condition and the order are not read on such data.
    """
    n = psi.n
    if type(n) is not int:
        return [BLOCK_SHAPE]
    shape_ok = n >= 0
    ordered = True
    dim = parity = 0
    last_dim = last_char = None
    for b in psi.unipotent:
        char, d = b.char, b.dim
        if type(char) is not int or type(d) is not int:
            return [BLOCK_SHAPE]
        if (char != CHAR_TRIV and char != CHAR_SGN) or d < 1 or not d & 1:
            shape_ok = False
        # canonical: dimension decreasing, trivial before sign (_unip_key)
        if last_dim is not None and (d > last_dim or d == last_dim and char < last_char):
            ordered = False
        last_dim, last_char = d, char
        dim += d
        parity += char
    last = None
    for b in psi.discrete:
        t, a = b.t, b.a
        if type(t) is not int or type(a) is not int:
            return [BLOCK_SHAPE]
        if t < 1 or a < 1 or not (t + a) & 1:
            shape_ok = False
        if last is not None and last < b:  # canonical: decreasing as (t, a)
            ordered = False
        last = b
        dim += 2 * a
        parity += a
    codes: list[str] = []
    if not shape_ok:
        codes.append(BLOCK_SHAPE)
    if dim != 2 * n + 1:
        codes.append(DIM_SUM)
    if parity & 1:
        codes.append(PARITY_PRODUCT)
    if not ordered:
        codes.append(ORDER)
    return codes


def inf_char_of_param(psi: ArthurParameter) -> InfinitesimalCharacter:
    """Infinitesimal character of the packet attached to the parameter.

    Each unipotent block contributes the centered segment of its dimension,
    each discrete block the segment [bottom, top] plus its mirror image;
    ``InfinitesimalCharacter`` sorts and checks them.
    """
    entries: list[int] = []
    for b in psi.unipotent:
        half = (b.dim - 1) // 2
        entries += range(-half, half + 1)
    for b in psi.discrete:
        bottom, top = b.bottom, b.top
        entries += range(bottom, top + 1)
        entries += range(-top, 1 - bottom)
    return InfinitesimalCharacter(entries)


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
        raise ValueError(f"discrete part must have even dimension, got {dim_discrete}")
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

_Cover = tuple[tuple[int, ...], tuple[DiscreteBlock, ...]]

# Shared discrete block instances for trusted construction.  Blocks are
# immutable, and the enumeration cap keeps the (t, a) pairs few; sharing only
# saves time, so the cache is bounded.
_discrete_block = functools.lru_cache(maxsize=1024)(DiscreteBlock)


def _half_counts(entries: tuple[int, ...]) -> tuple[int, ...]:
    """The counts of 0, 1, ..., max of a multiset closed under negation, as
    an infinitesimal character is, and every multiset the cover search
    meets (segments are); with trailing zeros cut (``_cut``) the tuple of
    counts is its own memo key."""
    cnt = Counter(entries)
    return tuple(cnt[v] for v in range(max(cnt, default=-1) + 1))


def _cut(counts: list[int]) -> tuple[int, ...]:
    end = len(counts)
    while end and not counts[end - 1]:
        end -= 1
    return tuple(counts[:end])


def _first_steps(half: tuple[int, ...], bound: int | None) -> list:
    """The segments that can top the maximum M of the half-count, in the
    order that reaches each cover once, as (low, half-count left, bound).

    Each copy of M tops one segment: first the mirrored pairs [low, M] ∪
    [-M, -low] (M + low >= 1), by non-increasing low, so a pair is a step
    only with low <= ``bound`` (None: any) and its low bounds the next pair
    at M; then every copy left, as a run of half[M] centered segments of
    dimension 2M + 1 (low None).  A pair grows by low and -low as low
    falls, one count of |low| (two of 0), so one copy of the counts loses
    them step by step until one runs out.
    """
    high = len(half) - 1
    copies = half[high]
    steps = []
    if min(half) >= copies:
        steps.append((None, _cut([c - copies for c in half[:high]]), None))
    rest = list(half)
    for low in range(high, -high, -1):
        v = low if low >= 0 else -low
        left = rest[v] - (2 if low == 0 else 1)
        if left < 0:
            break
        rest[v] = left
        if bound is None or low <= bound:
            steps.append((low, _cut(rest), low if copies > 1 and low < high else None))
    return steps


def _all_segment_covers(entries: tuple[int, ...]) -> list[_Cover]:
    """All ways of writing the multiset as segments of the two block kinds.

    A cover is a pair (unipotent dimensions, non-increasing; discrete
    blocks, shared instances (``_discrete_block``) in canonical order).  The
    search walks the half-count (``_half_counts``) down from its maximum by
    the steps of ``_first_steps``, so it reaches each cover once, and sorts
    each finished cover's discrete blocks once.
    """
    # the memo is a local that nothing else refers to, so it is freed by
    # refcount when the search returns or raises (``_walk``)
    memo: dict[tuple, list[_Cover]] = {((), None): [((), ())]}
    # blocks decreasing as (t, a), which is canonical (-t, -a)
    return [
        (unip, tuple(sorted(disc, reverse=True)))
        for unip, disc in _walk(_half_counts(entries), None, memo)
    ]


def _walk(half: tuple[int, ...], bound: int | None, memo: dict) -> list[_Cover]:
    """The covers of the half-count ``half`` whose first mirrored pair has
    low at most ``bound`` (None: any), each with its unipotent dimensions
    non-increasing and its discrete blocks unsorted, kept in ``memo`` by
    (half, bound).

    A module-level function that is handed its memo: a nested closure that
    calls itself refers to itself through its own cell, so each search
    would leave its whole memo behind as cyclic garbage.
    """
    key = (half, bound)
    found = memo.get(key)
    if found is None:
        found = []
        high = len(half) - 1
        for low, rest, following in _first_steps(half, bound):
            sub = _walk(rest, following, memo)
            if low is None:
                run = (2 * high + 1,) * half[high]
                found += [(run + unip, disc) for unip, disc in sub]
            else:
                block = _discrete_block(high + low, high - low + 1)
                found += [(unip, (block,) + disc) for unip, disc in sub]
        memo[key] = found
    return found


def _trusted_params(
    n: int,
    unipotent: tuple[UnipotentBlock, ...],
    discretes: Iterable[tuple[DiscreteBlock, ...]],
    route: tuple | None = None,
) -> list[ArthurParameter]:
    """One ``ArthurParameter`` per tuple of discrete blocks, all with these
    unipotent blocks, from tuples in canonical order and in the order given,
    with no frame or tuple coercion of ``__post_init__`` each; each is
    marked valid and, with ``route``, records the route of
    ``membership._routes`` that admits it to the packet of its module.

    The caller vouches that the blocks form valid parameters:
    ``_require_valid`` trusts the mark without validating; and that the
    route is the one of its module's table whose shape each has (the shapes
    are disjoint): the one lookup, ``membership._decide_route``, returns it
    without deciding.  The mark and records are slots that ``==``, ``hash``,
    the order, ``repr`` and ``str`` ignore (``_record_slot``).  Each of the
    six slots is written through its descriptor's setter, bound once
    (``_SLOT_SETTERS``), past the frozen ``__setattr__``; a slot has no
    class default, so ``_kept_char`` is set to None here, as
    ``__post_init__`` sets it for any other parameter.
    """
    new = object.__new__
    set_n, set_unipotent, set_discrete, set_valid, set_route, set_kept_char = _SLOT_SETTERS
    built = []
    for discrete in discretes:
        psi = new(ArthurParameter)
        set_n(psi, n)
        set_unipotent(psi, unipotent)
        set_discrete(psi, discrete)
        set_valid(psi, True)
        set_route(psi, route)
        set_kept_char(psi, None)
        built.append(psi)
    return built


# The setters of ``ArthurParameter``'s slots, in the order of its fields.
_SLOT_SETTERS = tuple(vars(ArthurParameter)[name].__set__ for name in ArthurParameter.__slots__)


def _require_valid(psi: ArthurParameter) -> None:
    """Refuse a parameter with any ``validate`` violation (``ValueError``
    naming the codes).  A parameter marked valid by ``_trusted_params``
    returns at once: this is the one trust check of the deciders, and the
    only reader of the mark."""
    if psi._valid:
        return
    codes = validate(psi)
    if codes:
        raise ValueError(f"invalid parameter {psi}: {codes}")


@functools.lru_cache(maxsize=1024)
def _char_assignments(
    n: int, dims: tuple[int, ...], top_char: int | None = None
) -> tuple[tuple[UnipotentBlock, ...], ...]:
    """Character multisets on unipotent blocks of these dimensions with the
    sign parity the determinant condition needs at rank n: that of the sum
    of the discrete a, (2n+1 - sum of the dimensions) / 2.

    Blocks come out in canonical order: dimensions decreasing, and within a
    dimension trivial before sign.  With ``top_char``,
    only the multisets in which some block of the largest dimension carries
    that character.  Covers share few dimension multisets (the packets of
    every module at ranks 4-9 need 127 keys), so the answers are kept.
    Distinct covers and multisets give distinct canonical parameters, so
    the enumerators' ``_trusted_params`` validate or deduplicate nothing.
    """
    parity = (2 * n + 1 - sum(dims)) // 2 % 2
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
            blocks.extend([UnipotentBlock(CHAR_TRIV, dim)] * (count - k))
            blocks.extend([UnipotentBlock(CHAR_SGN, dim)] * k)
        out.append(tuple(blocks))
    return tuple(out)


def _check_rank(n: int, max_rank: int) -> None:
    """Refuse a rank or an enumeration cap ``max_rank`` that is not an
    ``int`` (a bool or float included, as ``weights.module_of`` does; a NaN
    or infinite cap would lift the cap, and True would be the cap 1), a
    rank below 1 and a rank above the cap."""
    if type(n) is not int:
        raise ValueError(f"rank must be int, got n={n!r}")
    if type(max_rank) is not int:
        raise ValueError(f"max_rank must be int, got max_rank={max_rank!r}")
    if n < 1:
        raise ValueError("rank must be positive")
    if n > max_rank:
        raise RankBoundError(f"rank {n} exceeds the enumeration cap {max_rank}")


def _params_in_order(n: int, groups: Iterable[tuple]) -> list[ArthurParameter]:
    """The parameters of rank n on the groups, in the dataclass
    ``order=True`` order, with no parameter compared: the one builder and
    the one ordering rule of both enumerators.

    A group is (unipotent dimensions, its discrete tuples, top character,
    route): its parameters are every character multiset of
    ``_char_assignments(n, dims, top_char)`` on every one of its discrete
    tuples, each recording the route (``_trusted_params``, called once per
    multiset).  The caller vouches that no two groups share dimensions,
    that no group repeats a discrete tuple and that each group lists its
    discrete tuples in ascending order; the tuples are read, not mutated
    or copied, so a group may be a memo's own tuple
    (``membership._route_covers``).

    Why this is the sorted order: parameters of one rank compare by their
    unipotent tuple first, then their discrete tuple.  A unipotent tuple
    fixes its dimensions, so it heads exactly one group, and the multisets
    of one group are distinct.  So the (unipotent tuple, discrete tuples)
    pairs, sorted by the unipotent tuple alone, each with its sorted
    discrete tuples, list every parameter in order.  What is sorted is one
    entry per unipotent tuple, never a discrete tuple or a parameter.
    """
    order = []
    append = order.append
    for dims, discretes, top_char, route in groups:
        for unipotent in _char_assignments(n, dims, top_char):
            append((unipotent, discretes, route))
    order.sort(key=_unipotent_of)
    built: list[ArthurParameter] = []
    for unipotent, discretes, route in order:
        built += _trusted_params(n, unipotent, discretes, route)
    return built


# the unipotent tuple of an entry of ``_params_in_order``
_unipotent_of = operator.itemgetter(0)


def enumerate_params(
    chi: InfinitesimalCharacter, n: int, max_rank: int = MAX_ENUMERATION_RANK
) -> list[ArthurParameter]:
    """All valid parameters of rank n with inf. character chi, canonicalized,
    each marked valid, in the dataclass order (``_params_in_order``, on the
    covers of ``_all_segment_covers`` grouped by unipotent dimensions, each
    group sorted).

    The rank is capped by ``max_rank`` (default ``MAX_ENUMERATION_RANK``)
    since the cover search is combinatorial; raise the cap explicitly for
    larger experiments.
    """
    _check_rank(n, max_rank)
    if chi.rank != n:
        raise ValueError("character length must be 2n+1")
    groups: dict[tuple[int, ...], list[tuple[DiscreteBlock, ...]]] = {}
    for unip_dims, discrete in _all_segment_covers(chi.entries):
        groups.setdefault(unip_dims, []).append(discrete)
    # the walk's covers come out unordered, so each group is sorted here
    return _params_in_order(
        n, [(dims, sorted(discretes), None, None) for dims, discretes in groups.items()]
    )
