"""Standard-module data of the scalar and near-scalar families.

Both families are Langlands quotients of inductions from a maximal standard
parabolic with Levi GL(1)^r x Sp(2m'): the inducing data is a decreasing
string of characters sgn^s |.|^e on the GL(1) factors and a tempered anchor
pi_{m'}(m') on the symplectic factor.  The maximal exponent bounds the block
dimensions of any packet containing the module.
"""

from __future__ import annotations

from .params import ArthurParameter, UnipotentBlock, a_psi, a_psi_u, contains_block
from .weights import Module, _record, module_of

__all__ = [
    "StandardModule",
    "standard_pi",
    "standard_sigma",
    "max_exponent",
    "exponent_filter",
]


@_record
class StandardModule:
    """GL(1) exponent string plus the tempered anchor pi_rank(rank).

    ``exponents`` is a tuple of (sign power in {0,1}, positive exponent),
    strictly decreasing in the exponent.
    """

    exponents: tuple[tuple[int, int], ...]
    base_rank: int

    def __post_init__(self) -> None:
        exps = [e for _, e in self.exponents]
        if any(x <= y for x, y in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly decreasing")
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be positive")

    @property
    def base_label(self) -> str:
        return f"pi_{self.base_rank}({self.base_rank})"


def standard_pi(n: int, m: int) -> StandardModule:
    """Standard module of pi_n(m): exponents n-m, ..., 1 on sgn^m characters
    over the anchor pi_m(m).  For m = n the module is tempered and the
    exponent string is empty."""
    if type(n) is int and type(m) is int and not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return _standard(module_of("pi", n, m))  # refuses a rank or m not an int


def standard_sigma(n: int, k: int) -> StandardModule:
    """Standard module of sigma_{n,k}: exponents n-k, ..., k+1, k-1, ..., 1
    on sgn^k characters over the anchor pi_{k+1}(k+1); at n = 2k, that of
    pi_{2k}(k+1)."""
    return _standard(module_of("sigma", n, k))


def _standard(module: Module) -> StandardModule:
    n, v = module.n, module.value
    if module.family == "pi":
        return StandardModule(tuple((v % 2, e) for e in range(n - v, 0, -1)), v)
    values = list(range(n - v, v, -1)) + list(range(v - 1, 0, -1))
    return StandardModule(tuple((v % 2, e) for e in values), v + 1)


def max_exponent(sm: StandardModule) -> int:
    """Largest exponent of the standard module (0 when tempered)."""
    return sm.exponents[0][1] if sm.exponents else 0


def exponent_filter(psi: ArthurParameter, sm: StandardModule) -> bool:
    """Necessary condition for the module of ``sm`` to lie in the packet.

    The maximal exponent E of any packet member is at most (a(psi) - 1)/2,
    so a(psi) >= 2E + 1 is required -- strictly when the maximum block is
    discrete or the unipotent block sgn^s ⊠ R[2E+1] (s the exponent sign
    power) is absent.  Tempered modules pass vacuously.
    """
    if not sm.exponents:
        return True
    power, top = sm.exponents[0]
    bound = 2 * top + 1
    strict = a_psi(psi) > a_psi_u(psi) or not contains_block(
        psi, UnipotentBlock(power, bound)
    )
    return a_psi(psi) > bound if strict else a_psi(psi) >= bound
