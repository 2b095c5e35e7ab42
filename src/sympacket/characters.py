"""Component groups and the sign characters carried by packet members.

The component group of a parameter is an elementary abelian 2-group cut out
of sign vectors over the distinct blocks; a packet member determines a sign
character on the blocks, well defined up to the duality flip and depending
on a normalization token delta in {+1, -1} (the choice of Whittaker datum).

Characters are stored as concrete sign assignments on the listed blocks of
the parameter, never silently renormalized; comparisons go through
``char_equivalent``.  Where a printed assignment fails to be constant on
equal blocks the character is flagged VANISHING (the corresponding theta
lift degenerates) instead of being repaired.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter

from .membership import ROUTE_II_A1, ROUTE_SIGMA, _decide_route, _Route
from .params import (
    MAX_ENUMERATION_RANK,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    _unip_key,
)
from .weights import _record, _sign_pow, module_of

__all__ = [
    "Block",
    "ComponentGroup",
    "PacketCharacter",
    "component_group",
    "char_equivalent",
    "rho_theta",
    "rho_theta_parameter",
    "rho_unipotent_table",
    "table_row",
    "rho_pi_general",
    "rho_sigma_general",
    "VANISHING",
]

Block = UnipotentBlock | DiscreteBlock

VANISHING = "VANISHING"
# the flags of a flagged character, one shared tuple
_VANISHING_FLAGS = (VANISHING,)

TABLE_FORMS = ("first", "second")
TABLE_COLUMNS = ("pi", "sigma", "pi_star", "sigma_star")


@_record
class ComponentGroup:
    """Distinct blocks with multiplicities; the group is the set of sign
    vectors over the distinct blocks whose multiplicity-weighted product is
    trivial."""

    blocks: tuple[Block, ...]
    multiplicities: tuple[int, ...]

    @property
    def relation(self) -> tuple[int, ...]:
        return tuple(m % 2 for m in self.multiplicities)

    @property
    def order(self) -> int:
        constrained = 1 if any(self.relation) else 0
        return 2 ** (len(self.blocks) - constrained)


def component_group(psi: ArthurParameter) -> ComponentGroup:
    """Component group data of a parameter: distinct blocks, discrete ones
    first, then unipotent by increasing dimension."""
    listed = psi.discrete + tuple(sorted(psi.unipotent, key=lambda b: (b.dim, b.char)))
    mult = Counter(listed)  # in order of first appearance
    return ComponentGroup(tuple(mult), tuple(mult.values()))


@_record
class PacketCharacter:
    """Sign assignment on the listed blocks of a parameter.

    ``blocks`` may repeat; a well defined character is constant on equal
    blocks.  ``flags`` records degeneracies (VANISHING) when the printed
    construction assigns unequal signs to equal blocks.  The constructor
    checks the token and the signs, each the int +1 or -1, in its own frame
    with no ``__post_init__`` or generator, since printed rows use it; it
    holds the one default, ``flags=()``.  The fields are slots, so an
    instance has no ``__dict__``; a copy or a pickle is rebuilt through the
    constructor (``__reduce__``), since the frozen ``__setattr__`` refuses
    the slot state that ``copy`` and ``pickle`` would set.
    """

    __slots__ = ("whittaker", "blocks", "signs", "flags")
    whittaker: int
    blocks: tuple[Block, ...]
    signs: tuple[int, ...]
    flags: tuple[str, ...]

    def __init__(self, whittaker: int, blocks: tuple, signs: tuple, flags: tuple = ()) -> None:
        if type(whittaker) is not int or whittaker not in (1, -1):
            raise ValueError("whittaker token must be +1 or -1")
        # stored as tuples, as ``ArthurParameter`` stores its blocks, so that
        # a character built from lists hashes and equals its tuple-built twin
        blocks, signs, flags = tuple(blocks), tuple(signs), tuple(flags)
        if len(blocks) != len(signs):
            raise ValueError("one sign per block required")
        for sign in signs:
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError("signs must be +1 or -1")
        for name, value in zip(self.__match_args__, (whittaker, blocks, signs, flags)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return self.__class__, (self.whittaker, self.blocks, self.signs, self.flags)

    def sign_map(self) -> dict[Block, int] | None:
        """Distinct-block signs, or None when equal blocks disagree.

        Blocks of both kinds are keys of one dict; valid blocks of the two
        kinds never compare equal, so they never share a key.
        """
        out: dict[Block, int] = {}
        for b, s in zip(self.blocks, self.signs):
            if out.setdefault(b, s) != s:
                return None
        return out

    def product(self) -> int:
        p = 1
        for s in self.signs:
            p *= s
        return p


def char_equivalent(
    c1: PacketCharacter, c2: PacketCharacter, psi: ArthurParameter | None = None
) -> bool:
    """Equality of characters up to the duality flip.

    Two sign assignments on the same block multiset define the same
    character when they agree, or differ exactly by flipping every distinct
    block of odd multiplicity.
    """
    if Counter(c1.blocks) != Counter(c2.blocks):
        raise ValueError("characters live on different block multisets")
    if psi is not None:
        full = Counter(psi.unipotent) + Counter(psi.discrete)
        if Counter(c1.blocks) != full:
            raise ValueError("characters do not list the parameter's blocks")
    m1, m2 = c1.sign_map(), c2.sign_map()
    if m1 is None or m2 is None:
        raise ValueError("characters are not constant on equal blocks")
    if m1 == m2:
        return True
    mult = Counter(c1.blocks)
    flipped = {b: (-s if mult[b] % 2 else s) for b, s in m1.items()}
    return flipped == m2


# --- theta lifts of orthogonal characters ----------------------------------


def rho_theta_parameter(n: int, m: int, tau_prime: int) -> tuple[UnipotentBlock, ...]:
    """Blocks of the packet housing the theta lift of a rank-2m orthogonal
    character of discriminant class (-1)^m, listed by increasing dimension.
    Refused: a rank or m that is not an int, 1 <= m <= n failing, a tau'
    other than the int 0 or 1."""
    if type(n) is not int or type(m) is not int:
        raise ValueError(f"rank and m must be int, got n={n!r}, m={m!r}")
    if m < 1 or n < m:
        raise ValueError("need 1 <= m <= n")
    if type(tau_prime) is not int or tau_prime not in (0, 1):
        raise ValueError("tau' must be 0 or 1")
    return (
        UnipotentBlock(tau_prime % 2, 1),
        UnipotentBlock((tau_prime + m) % 2, 2 * m - 1),
        UnipotentBlock(m % 2, 2 * (n - m) + 1),
    )


def rho_theta(
    n: int, m: int, tau_prime: int, tau: int, delta: int, side: str
) -> tuple[int, int, int]:
    """Sign triple of the theta lift of det^tau from a definite O(2m) form.

    ``side`` is "O(2m,0)" or "O(0,2m)"; ``tau_prime`` in {0, 1} selects the
    packet (the character on the rank-one block).  Requires m >= 1 and
    n >= 2m - 1 + tau, so also m <= n.  The triple always has product +1:

        ((-1)^{tau + tau'((1+delta)/2 + m)},
         (-1)^{tau + tau'((1+delta)/2 + m) + floor(±delta m/2)},
         (-1)^{floor(±delta m/2)})

    with the + sign of the floor argument on the O(2m,0) side.
    """
    if side not in ("O(2m,0)", "O(0,2m)"):
        raise ValueError("side must be 'O(2m,0)' or 'O(0,2m)'")
    if type(delta) is not int or delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    ints = type(tau) is int and type(tau_prime) is int
    if not ints or tau not in (0, 1) or tau_prime not in (0, 1):
        raise ValueError("tau and tau' must be 0 or 1")
    if type(n) is not int or type(m) is not int:
        raise ValueError(f"rank and m must be int, got n={n!r}, m={m!r}")
    if m < 1:
        raise ValueError("need 1 <= m <= n")
    if n < 2 * m - 1 + tau:
        raise ValueError(f"need n >= 2m - 1 + tau = {2 * m - 1 + tau}")
    arg = delta * m if side == "O(2m,0)" else -delta * m
    e1 = _sign_pow(tau + tau_prime * ((1 + delta) // 2 + m))
    e3 = _sign_pow(arg // 2)
    return (e1, e1 * e3, e3)


def _check_column(which: str, delta: int) -> None:
    """Refuse a column of the printed tables or a token they have no row
    for; the one statement of both checks of ``rho_unipotent_table`` and
    ``table_row``."""
    if which not in TABLE_COLUMNS:
        raise ValueError(f"which must be one of {TABLE_COLUMNS}")
    if type(delta) is not int or delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")


def rho_unipotent_table(
    form: str, n: int, m: int, which: str, delta: int
) -> PacketCharacter:
    """Printed sign characters of the four theta lifts from definite O(2m).

    ``form`` is "first" (trivial character on the rank-one block) or
    "second" (sign character); ``which`` is one of "pi", "sigma", "pi_star",
    "sigma_star" for the lifts of the trivial/determinant character of
    O(0,2m) and of O(2m,0) respectively.  Blocks are listed in the order
    R[1], R[2m-1], R[2(n-m)+1].  The rows are reproduced verbatim; when a
    row assigns unequal signs to equal blocks it is flagged VANISHING.
    """
    if form not in TABLE_FORMS:
        raise ValueError("form must be 'first' or 'second'")
    _check_column(which, delta)
    tau_prime = 0 if form == "first" else 1
    blocks = rho_theta_parameter(n, m, tau_prime)  # refuses n and m
    starred = which.endswith("_star")
    extra = 1 if which.startswith("sigma") else 0
    fm = (delta * m) // 2 if starred else (-delta * m) // 2
    if form == "first":
        e1 = 1
        e2 = _sign_pow(extra + fm)
    else:
        base = (1 + delta) // 2 + m
        e1 = _sign_pow(extra + base)
        e2 = _sign_pow(extra + base + fm)
    e3 = _sign_pow(fm)
    row = PacketCharacter(delta, blocks, (e1, e2, e3))
    if row.sign_map() is None:
        row = PacketCharacter(delta, blocks, row.signs, _VANISHING_FLAGS)
    return row


# --- characters attached to pi_n(m) and sigma_{n,k} -------------------------


def rho_pi_general(
    psi: ArthurParameter, n: int, m: int, delta: int
) -> PacketCharacter:
    """Sign character attached to the scalar module inside the packet of psi.

    Discrete blocks carry (-1)^floor(delta_i a_i / 2).  With a three-block
    unipotent part eta_1 ⊠ R[1] + eta_2 ⊠ R[2a-1] + (distinguished block),
    the pairwise products are pinned by

        e1 e2 = (-1)^floor(delta' a / 2)

    and, by the route that admits psi,

        THM71_II_A1, big block sgn^m ⊠ R[2(n-m)+1]:
            e2 e3 = 1                 if eta_2 = sgn^m,
                    delta' (-1)^(a+1) if eta_2 = sgn^(m+1);
        THM71_II_A3, big block sgn^(m-1) ⊠ R[2(n-m)+3]:
            e2 e3 = -1                if eta_2 = sgn^(m-1),
                    delta' (-1)^a     if eta_2 = sgn^m.

    The remaining free flip is resolved by the listed-product normalization.
    Blocks are listed as: discrete (canonical order), then the unipotent
    slots by increasing dimension.  Refused, in order: a token other than
    the int +1 or -1, what ``membership._decide_route`` refuses, a packet
    without the module.
    """
    if type(delta) is not int or delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    route, recorded = _decide_route(psi, "pi", n, m)
    if route is None:
        raise ValueError(_not_member("pi", n, m))
    if recorded:
        kept = psi._kept_char
        if kept is not None and kept.whittaker == delta:
            return kept
    return _rho_core(psi, delta, route, recorded)


def rho_sigma_general(
    psi: ArthurParameter, n: int, k: int, delta: int
) -> PacketCharacter:
    """Sign character attached to sigma_{n,k} inside the packet of psi.

    Same discrete recipe and e1 e2 relation as in the scalar case; on the
    route SIGMA the big block is sgn^k ⊠ R[2(n-k)+1] and

        e2 e3 = -1             if eta_2 = sgn^k,
                delta (-1)^k   if eta_2 = sgn^(k+1).

    For n = 2k the module is the scalar pi_{2k}(k+1) and that recipe is used.
    """
    if type(delta) is not int or delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    route, recorded = _decide_route(psi, "sigma", n, k)
    if route is None:
        raise ValueError(_not_member("sigma", n, k))
    if recorded:
        kept = psi._kept_char
        if kept is not None and kept.whittaker == delta:
            return kept
    return _rho_core(psi, delta, route, recorded)


def _not_member(family: str, n: int, value: int) -> str:
    """The refusal of a character of a packet without the (valid) module."""
    name = "scalar" if module_of(family, n, value).family == "pi" else "near-scalar"
    return f"packet does not contain the {name} module"


def _rho_core(
    psi: ArthurParameter, delta: int, route: _Route, keep: bool = False
) -> PacketCharacter:
    """The character recipe of ``rho_pi_general`` and ``rho_sigma_general``,
    given the route that admits psi (``membership._decide_route``) and a
    token delta, the int +1 or -1; nothing is checked again.

    The discrete signs are read from the table of the blocks' ``a``
    (``_discrete_signs``), which also gives a single unipotent block's sign
    and, for a three-block part, the index into the table of the route
    and the unipotent tuple (``_unipotent_signs``), which also holds the
    unipotent blocks in the order the character lists them.  The discrete
    entry names the only positions where equal neighbouring blocks can get
    unequal signs, so the VANISHING flag compares the blocks there alone.
    Each character is built unchecked, its slots written through their
    setters (``_SLOT_SETTERS``).  With ``keep`` the character of -delta,
    read from the same entries, is kept on psi as ``_kept_char``; the two
    share one ``blocks`` tuple.
    """
    discrete, unipotent = psi.discrete, psi.unipotent
    # a purely unipotent parameter skips the map, which costs more than the
    # table read: half the members of the point-queries benchmark are one
    shape = tuple(map(_A_OF, discrete)) if discrete else ()
    if shape[MAX_ENUMERATION_RANK:]:  # longer than any enumerated member's
        entry = _discrete_fold(shape)
    else:
        entry = _discrete_signs(shape)
    if unipotent[1:]:  # three blocks
        slots, table = _unipotent_signs(route.char, route.top, route.verdict.route, unipotent)
        blocks = discrete + slots
        slot_signs, flags = table[entry[3 * delta]]
        signs = entry[delta] + slot_signs
        if keep:
            slot_signs, kept_flags = table[entry[-3 * delta]]
            kept_signs = entry[-delta] + slot_signs
    else:
        blocks = discrete + unipotent
        signs, kept_signs = entry[2 * delta], entry[-2 * delta]
        flags = kept_flags = ()
    for i in entry[0]:
        if discrete[i] == discrete[i - 1]:
            flags = kept_flags = _VANISHING_FLAGS
    new = object.__new__
    set_whittaker, set_blocks, set_signs, set_flags = _SLOT_SETTERS
    char = new(PacketCharacter)
    set_whittaker(char, delta)
    set_blocks(char, blocks)
    set_signs(char, signs)
    set_flags(char, flags)
    if keep:
        kept = new(PacketCharacter)
        set_whittaker(kept, -delta)
        set_blocks(kept, blocks)
        set_signs(kept, kept_signs)
        set_flags(kept, kept_flags)
        _set_kept_char(psi, kept)
    return char


# the ``a`` of a discrete block, read in C by ``map`` for the table's key
_A_OF = operator.attrgetter("a")


def _discrete_fold(shape: tuple[int, ...]) -> tuple:
    """The discrete half of the character recipe (``_rho_core``) for
    discrete blocks with these ``a`` in canonical order.

    A pass from the token delta signs each block (-1)^floor(token a / 2)
    and negates the token after each block with odd a.  The entry is read
    from either end by delta: item delta is the signs; item 2 delta the
    signs followed by their product, the sign of a single unipotent block,
    which makes the product over all listed blocks +1; item 3 delta the
    index into the unipotent table (``_unipotent_signs``) for delta, the
    token the pass ends with and the product.  Item 0 is the positions i
    where a is odd and equal to the a before.  Equal blocks are neighbours
    with equal a; an even a signs both alike and an odd one gives the
    second the negated token, so only at those positions can equal blocks
    get unequal signs, and there they always do.
    """
    entry = [None] * 7
    for whittaker in (1, -1):
        token, signs, product = whittaker, [], 1
        for a in shape:
            sign = _sign_pow((token * a) // 2)
            signs.append(sign)
            product *= sign
            if a & 1:
                token = -token
        entry[whittaker] = tuple(signs)
        entry[2 * whittaker] = (*signs, product)
        entry[3 * whittaker] = 4 * whittaker + 2 * token + product
    entry[0] = tuple(
        i for i in range(1, len(shape)) if shape[i] & 1 and shape[i] == shape[i - 1]
    )
    return tuple(entry)


# ``_discrete_fold`` once per shape rather than once per member.  The members
# of every module at ranks 1-12 need 3,072 shapes; ``_rho_core`` asks about
# none of more than ``MAX_ENUMERATION_RANK`` blocks, which no such member
# has, so that an entry is bounded in size too.
_discrete_signs = functools.lru_cache(maxsize=1 << MAX_ENUMERATION_RANK)(_discrete_fold)


@functools.lru_cache(maxsize=1024)
def _unipotent_signs(
    char: int, top: int, tag: str, unipotent: tuple[UnipotentBlock, ...]
) -> tuple[tuple[UnipotentBlock, ...], dict[int, tuple[tuple[int, ...], tuple[str, ...]]]]:
    """The unipotent half of the character recipe (``_rho_core``) on a
    three-block unipotent part, for a route's char, top and tag (a string,
    hashed with no call): what depends on the route and the unipotent
    tuple alone, worked out once per key rather than once per member.

    The big block is char ⊠ R[top], and the first block equal to it is it.
    The two other slots are read off the canonical order, small dimension
    first; when both have dimension one the roles are immaterial, as the
    two readings give the same character.  Returned are the slot blocks
    (eta_1, eta_2, big), those of the tuple the key was first built from,
    which a character lists after the discrete blocks, and the table of
    the slots' signs and flags, keyed by 4 delta + 2 delta' + p for the
    token delta, the token delta' the discrete pass ends with and the
    discrete product p, each +1 or -1.

    With a = (dim eta_2 + 1)/2, e1 e2 = (-1)^floor(delta' a / 2), and e2 e3
    is the tag's rule in ``rho_pi_general`` or ``rho_sigma_general`` (char
    is k mod 2 on SIGMA), run once per entry.  The free simultaneous flip
    of the three signs is fixed so that the product over all listed blocks
    is +1: with e3 = +1 that product would be p e1 e2, so e3 takes that
    value.  A slot pair of equal blocks with unequal signs flags the entry
    VANISHING (``PacketCharacter.sign_map``'s rule on the slots).  Routes
    share keys and members share unipotent tuples: the members of every
    module at ranks 1-12 need 276 keys, so the answers are kept.
    """
    key = char, top
    x, y, big = 0, 1, 2
    if unipotent[0] == key:
        x, y, big = 1, 2, 0
    elif unipotent[1] == key:
        y, big = 2, 1
    eta1, eta2 = (x, y) if unipotent[x].dim == unipotent[y].dim else (y, x)
    b1, b2, b3 = unipotent[eta1], unipotent[eta2], unipotent[big]
    a = (b2.dim + 1) // 2
    table = {}
    for whittaker, token, product in itertools.product((1, -1), repeat=3):
        e1e2 = _sign_pow((token * a) // 2)  # the token is delta'
        e3 = e1e2 * product
        if b2.char == char:  # eta_2 carries the big block's character
            e2e3 = 1 if tag == ROUTE_II_A1 else -1
        elif tag == ROUTE_SIGMA:
            e2e3 = whittaker * _sign_pow(char)
        else:
            e2e3 = token * _sign_pow(a + 1 if tag == ROUTE_II_A1 else a)
        e2 = e2e3 * e3
        e1 = e1e2 * e2
        flagged = (e1 != e2 and b1 == b2) or (e1 != e3 and b1 == b3) or (e2 != e3 and b2 == b3)
        flags = _VANISHING_FLAGS if flagged else ()
        table[4 * whittaker + 2 * token + product] = (e1, e2, e3), flags
    return (b1, b2, b3), table


# The setters of ``PacketCharacter``'s slots, in field order, and of the
# parameter's ``_kept_char`` slot, for ``_rho_core``.
_SLOT_SETTERS = tuple(vars(PacketCharacter)[name].__set__ for name in PacketCharacter.__slots__)
_set_kept_char = vars(ArthurParameter)["_kept_char"].__set__


def table_row(
    psi: ArthurParameter, which: str, m_table: int, delta: int
) -> tuple[str, PacketCharacter] | None:
    """The printed-table row housing a purely unipotent parameter, as its
    form and character (``rho_unipotent_table``), or None when the
    parameter's blocks are those of neither form.  The blocks are compared
    in canonical order, both lists sorted, so a parameter out of that order
    is matched too.  ``which`` and ``delta`` are checked first
    (``_check_column``), whether or not a form matches."""
    _check_column(which, delta)
    blocks = sorted(psi.unipotent, key=_unip_key)
    for form, tau_prime in (("first", 0), ("second", 1)):
        expected = rho_theta_parameter(psi.n, m_table, tau_prime)
        if blocks == sorted(expected, key=_unip_key):
            return form, rho_unipotent_table(form, psi.n, m_table, which, delta)
    return None
