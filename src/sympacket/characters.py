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
from dataclasses import dataclass

from .membership import _decide_route, _Route
from .params import (
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    _unipotent_block,
)
from .quadforms import _sign_pow
from .weights import Module, module_of

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


def _floor_half_sign(x: int) -> int:
    """(-1)**floor(x/2) with the mathematical floor."""
    return _sign_pow(x // 2)


@dataclass(frozen=True)
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


def _listed_distinct(psi: ArthurParameter) -> tuple[tuple[Block, ...], tuple[int, ...]]:
    listed: list[Block] = list(psi.discrete)
    listed.extend(sorted(psi.unipotent, key=lambda b: (b.dim, b.char)))
    seen: dict[Block, int] = {}
    for b in listed:
        seen[b] = seen.get(b, 0) + 1
    blocks = tuple(seen.keys())
    return blocks, tuple(seen[b] for b in blocks)


def component_group(psi: ArthurParameter) -> ComponentGroup:
    """Component group data of a parameter: distinct blocks, discrete ones
    first, then unipotent by increasing dimension."""
    blocks, mult = _listed_distinct(psi)
    return ComponentGroup(blocks, mult)


@dataclass(frozen=True)
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
        """Distinct-block signs, or None when equal blocks disagree."""
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
    e3 = _floor_half_sign(arg)
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
    char = PacketCharacter(delta, blocks, (e1, e2, e3))
    if char.sign_map() is None:
        char = PacketCharacter(delta, blocks, (e1, e2, e3), (VANISHING,))
    return char


# --- characters attached to pi_n(m) and sigma_{n,k} -------------------------


def _discrete_signs(psi: ArthurParameter, delta: int) -> tuple[list[int], int]:
    """Signs on the discrete blocks and the fully shifted token delta'.

    The i-th block sees the token delta_i = delta * (-1)^(a_1 + ... + a_{i-1})
    and carries the sign (-1)^floor(delta_i a_i / 2); delta' is the token
    shifted past every discrete block.
    """
    signs: list[int] = []
    shift = 0
    for b in psi.discrete:
        delta_i = delta * _sign_pow(shift)
        signs.append(_floor_half_sign(delta_i * b.a))
        shift += b.a
    return signs, delta * _sign_pow(shift)


def _assemble(
    psi: ArthurParameter,
    delta: int,
    disc_signs: list[int],
    unip_blocks: tuple[UnipotentBlock, ...],
    unip_signs: tuple[int, ...],
) -> PacketCharacter:
    """Fix the free simultaneous flip of the unipotent signs.

    The representative is normalized so the product over all listed blocks
    is +1; since the number of unipotent blocks is odd (one or three) the
    flip always reaches it.  Conflicting signs on equal blocks are flagged.
    """
    blocks: tuple[Block, ...] = tuple(psi.discrete) + tuple(unip_blocks)
    signs = tuple(disc_signs) + tuple(unip_signs)
    total = 1
    for s in signs:
        total *= s
    if total == -1:
        signs = tuple(disc_signs) + tuple(-s for s in unip_signs)
    char = PacketCharacter(delta, blocks, signs)
    if char.sign_map() is None:
        char = PacketCharacter(delta, blocks, signs, (VANISHING,))
    return char


def _split_unipotent(
    psi: ArthurParameter, big: UnipotentBlock
) -> tuple[UnipotentBlock, UnipotentBlock]:
    """The two non-distinguished unipotent blocks, small dimension first.

    When both have dimension one the assignment of roles is immaterial: the
    two readings produce the same character.
    """
    rest = list(psi.unipotent)
    rest.remove(big)
    rest.sort(key=lambda b: (b.dim, b.char))
    return rest[0], rest[1]


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
    return _rho(psi, module_of("sigma", n, k), delta)


def _rho(psi: ArthurParameter, module: Module, delta: int) -> PacketCharacter:
    """The character of the module in the packet of psi, by the route
    ``membership._decide_route`` finds (and the checks it makes)."""
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
    """
    if route is None:
        raise ValueError(f"packet does not contain the {module.name()} module")
    disc_signs, delta_prime = _discrete_signs(psi, delta)
    if len(psi.unipotent) == 1:
        return _assemble(psi, delta, disc_signs, psi.unipotent, (1,))
    big = _unipotent_block(route.char, route.top)
    eta1, eta2 = _split_unipotent(psi, big)
    a = (eta2.dim + 1) // 2
    e1e2 = _floor_half_sign(delta_prime * a)
    e2e3 = route.e2e3(eta2.char == big.char, a, delta, delta_prime)
    e3 = 1
    e2 = e2e3 * e3
    e1 = e1e2 * e2
    return _assemble(psi, delta, disc_signs, (eta1, eta2, big), (e1, e2, e3))


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
