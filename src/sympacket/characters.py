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

from collections import Counter

from .membership import _decide_route, _Route
from .params import (
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
)
from .weights import Module, _record, _sign_pow, module_of

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
    construction assigns unequal signs to equal blocks.
    """

    whittaker: int
    blocks: tuple[Block, ...]
    signs: tuple[int, ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.whittaker not in (1, -1):
            raise ValueError("whittaker token must be +1 or -1")
        if len(self.blocks) != len(self.signs):
            raise ValueError("one sign per block required")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

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


def _trusted_char(
    whittaker: int,
    blocks: tuple[Block, ...],
    signs: tuple[int, ...],
    flags: tuple[str, ...],
) -> PacketCharacter:
    """A ``PacketCharacter`` without the checks of ``__post_init__``.

    The caller vouches that the token is +1 or -1 and that ``signs`` holds
    one +1 or -1 per block, as the recipes of this module build them; the
    public constructor keeps every check.  The instance is built as
    ``params._trusted_params`` builds a parameter: ``object.__new__``, then
    each field set in order past the frozen ``__setattr__``, which keeps
    the instance dict as small as the constructor's.
    """
    char = object.__new__(PacketCharacter)
    object.__setattr__(char, "whittaker", whittaker)
    object.__setattr__(char, "blocks", blocks)
    object.__setattr__(char, "signs", signs)
    object.__setattr__(char, "flags", flags)
    return char


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
    character of discriminant class (-1)^m, listed by increasing dimension."""
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
    packet (the character on the rank-one block).  Requires
    n >= 2m - 1 + tau.  The triple always has product +1:

        ((-1)^{tau + tau'((1+delta)/2 + m)},
         (-1)^{tau + tau'((1+delta)/2 + m) + floor(±delta m/2)},
         (-1)^{floor(±delta m/2)})

    with the + sign of the floor argument on the O(2m,0) side.
    """
    if side not in ("O(2m,0)", "O(0,2m)"):
        raise ValueError("side must be 'O(2m,0)' or 'O(0,2m)'")
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    if tau not in (0, 1) or tau_prime not in (0, 1):
        raise ValueError("tau and tau' must be 0 or 1")
    if n < 2 * m - 1 + tau:
        raise ValueError(f"need n >= 2m - 1 + tau = {2 * m - 1 + tau}")
    arg = delta * m if side == "O(2m,0)" else -delta * m
    e1 = _sign_pow(tau + tau_prime * ((1 + delta) // 2 + m))
    e3 = _sign_pow(arg // 2)
    return (e1, e1 * e3, e3)


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
    if which not in TABLE_COLUMNS:
        raise ValueError(f"which must be one of {TABLE_COLUMNS}")
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    if m < 1 or n < m:
        raise ValueError("need 1 <= m <= n")
    tau_prime = 0 if form == "first" else 1
    blocks = rho_theta_parameter(n, m, tau_prime)
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
    row = _trusted_char(delta, blocks, (e1, e2, e3), ())
    if row.sign_map() is None:
        row = _trusted_char(delta, blocks, row.signs, (VANISHING,))
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

    and, writing s for the distinguished block's character exponent,

        e2 e3 = 1                 if the big block is sgn^m ⊠ R[2(n-m)+1]
                                  and eta_2 = sgn^m,
                delta' (-1)^(a+1) in that case with eta_2 = sgn^(m+1),
        e2 e3 = -1                if the big block is sgn^(m-1) ⊠ R[2(n-m)+3]
                                  and eta_2 = sgn^(m-1),
                delta' (-1)^a     in that case with eta_2 = sgn^m.

    The remaining free flip is resolved by the listed-product normalization.
    Blocks are listed as: discrete (canonical order), then the unipotent
    slots by increasing dimension.
    """
    route = psi._route
    if route is not None and route.module == ("pi", n, m) and delta in (1, -1):
        return _rho_core(psi, delta, route.module, route)
    return _rho(psi, module_of("pi", n, m), delta)


def rho_sigma_general(
    psi: ArthurParameter, n: int, k: int, delta: int
) -> PacketCharacter:
    """Sign character attached to sigma_{n,k} inside the packet of psi.

    Same discrete recipe and e1 e2 relation as in the scalar case; the big
    block is sgn^k ⊠ R[2(n-k)+1] and

        e2 e3 = -1             if eta_2 = sgn^k,
                delta (-1)^k   if eta_2 = sgn^(k+1).

    For n = 2k the module is the scalar pi_{2k}(k+1) and that recipe is used.
    """
    route = psi._route
    if (
        route is not None
        and delta in (1, -1)
        and (
            route.module == ("sigma", n, k)
            # a member of sigma_{2k,k} records its module, pi_{2k}(k+1)
            or (n == 2 * k and route.module == ("pi", n, k + 1))
        )
    ):
        return _rho_core(psi, delta, route.module, route)
    return _rho(psi, module_of("sigma", n, k), delta)


def _rho(psi: ArthurParameter, module: Module, delta: int) -> PacketCharacter:
    """The character of the module in the packet of psi, by the route
    ``membership._decide_route`` finds (and the checks it makes).

    ``rho_pi_general`` / ``rho_sigma_general`` come here unless psi is a
    member the enumerators built for the very module asked about, with a
    valid token: such a member goes straight to ``_rho_core`` with its
    recorded route, which is what this path would find, with no ``Module``
    built.  So every refusal, and its order, is this path's.
    """
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    return _rho_core(psi, delta, module, _decide_route(psi, module))


def _rho_core(
    psi: ArthurParameter, delta: int, module: Module, route: _Route | None
) -> PacketCharacter:
    """The character recipe of ``rho_pi_general`` and ``rho_sigma_general``,
    given the route of ``membership._routes(module)`` that admits psi (None:
    the packet does not contain the module) and a token delta in {+1, -1};
    psi is not validated or decided again.  The route gives the big block
    and the e2 e3 rule.

    One pass over the discrete blocks carries the token, changing its sign
    after each block with odd a, signs each block, counts the -1 signs and
    compares each block with its neighbour (canonical order puts equal
    blocks next to each other); the three unipotent slots are compared
    pairwise.  These comparisons are ``PacketCharacter.sign_map``'s rule,
    made inline so that no dict is built per character.  The two unipotent
    slots besides the big block are read off the canonical order, small
    dimension first; when both have dimension one the roles are immaterial,
    as the two readings give the same character.  The free simultaneous
    flip of the unipotent signs is fixed so that the product over all listed
    blocks is +1, an even number of -1 signs; the number of unipotent slots
    is odd, so the flip always reaches it.  With e3 = +1 that product would be
    (-1)^(discrete -1 count) e1 e2, so e3 takes that value.  The signs are
    +1 or -1 by construction, so the character is built once, unchecked
    (``_trusted_char``).
    """
    if route is None:
        raise ValueError(f"packet does not contain the {module.name()} module")
    discrete = psi.discrete
    signs = []
    minus = 0
    vanishing = False
    token = delta
    previous = last = None
    for block in discrete:
        a = block.a
        sign = -1 if token * a // 2 % 2 else 1
        if sign < 0:
            minus += 1
        if sign != last and block == previous:
            vanishing = True
        if a % 2:
            token = -token
        signs.append(sign)
        previous, last = block, sign
    unipotent = psi.unipotent
    if len(unipotent) == 1:
        slots, slot_signs = unipotent, (-1 if minus % 2 else 1,)
    else:
        # the big block is char ⊠ R[top]; the first block equal to it is it
        key = route.char, route.top
        x, y, big = unipotent
        if x == key:
            x, y, big = y, big, x
        elif y == key:
            y, big = big, y
        eta1, eta2 = (x, y) if x.dim == y.dim else (y, x)
        a = (eta2.dim + 1) // 2
        e1e2 = -1 if token * a // 2 % 2 else 1  # token is now delta'
        e3 = -e1e2 if minus % 2 else e1e2
        e2 = route.e2e3(eta2.char == route.char, a, delta, token) * e3
        e1 = e1e2 * e2
        vanishing = (
            vanishing
            or (e1 != e2 and eta1 == eta2)
            or (e1 != e3 and eta1 == big)
            or (e2 != e3 and eta2 == big)
        )
        slots, slot_signs = (eta1, eta2, big), (e1, e2, e3)
    flags = (VANISHING,) if vanishing else ()
    return _trusted_char(delta, discrete + slots, tuple(signs) + slot_signs, flags)


def table_row(
    psi: ArthurParameter, which: str, m_table: int, delta: int
) -> tuple[str, PacketCharacter] | None:
    """The printed-table row housing a purely unipotent parameter, as its
    form and character (``rho_unipotent_table``), or None when the
    parameter's blocks are those of neither form."""
    for form, tau_prime in (("first", 0), ("second", 1)):
        expected = rho_theta_parameter(psi.n, m_table, tau_prime)
        if Counter(psi.unipotent) == Counter(expected):
            return form, rho_unipotent_table(form, psi.n, m_table, which, delta)
    return None
