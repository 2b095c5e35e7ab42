"""Signed Young tableaux for nilpotent K_C-orbits of Sp(2n,R).

An orbit is labelled by a tableau with 2n boxes whose rows carry alternating
signs determined by a leading sign; rows of any odd length come in balanced
+/- pairs.  The orbits inside the negative half of the Cartan decomposition
form a single chain: rows have at most two boxes and every two-box row leads
with +, so such a tableau is determined by the number r of "+-" rows.  The
closure order on the chain is the linear order in r.  The associated variety
of the scalar module pi_n(m) sits at r = min(2m, n).
"""

from __future__ import annotations

from .weights import _echo, _not_integer, _record

__all__ = [
    "SignedTableau",
    "validate_tableau",
    "chain_tableau",
    "pminus_orbits",
    "av_scalar",
    "in_pminus_chain",
    "chain_index",
    "closure_leq",
    "render_tableau",
]

BOX_COUNT = "BOX_COUNT"
ROW_SHAPE = "ROW_SHAPE"
ODD_BALANCE = "ODD_BALANCE"


@_record
class SignedTableau:
    """Rows as (length, leading sign) pairs; signs alternate along a row."""

    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        rows = tuple((l, s) for l, s in self.rows)
        entries = sum(rows, ())
        if set(map(type, entries)) - {int}:
            raise _not_integer(entries)
        # canonical order: longer rows first, + before - at equal length
        rows = tuple(sorted(rows, key=lambda r: (-r[0], -r[1])))
        object.__setattr__(self, "rows", rows)

    @property
    def boxes(self) -> int:
        return sum(length for length, _ in self.rows)

    def row_signs(self, index: int) -> tuple[int, ...]:
        length, lead = self.rows[index]
        return tuple(lead * (-1) ** j for j in range(length))


def validate_tableau(tab: SignedTableau, n: int) -> list[str]:
    """Violation codes for a signed tableau of the rank-n symplectic group.

    BOX_COUNT: not exactly 2n boxes.  ROW_SHAPE: empty row or bad sign.
    ODD_BALANCE: some odd row length does not occur equally often with
    leading + and leading -.
    """
    if type(n) is not int:
        raise ValueError(f"rank must be int, got {_echo(n)}")
    codes: list[str] = []
    if any(length < 1 or lead not in (1, -1) for length, lead in tab.rows):
        codes.append(ROW_SHAPE)
    if tab.boxes != 2 * n:
        codes.append(BOX_COUNT)
    lengths = {length for length, _ in tab.rows if length % 2 == 1}
    for length in lengths:
        plus = sum(1 for l, s in tab.rows if l == length and s == 1)
        minus = sum(1 for l, s in tab.rows if l == length and s == -1)
        if plus != minus:
            codes.append(ODD_BALANCE)
            break
    return codes


def chain_tableau(n: int, r: int) -> SignedTableau:
    """Chain element with r rows "+-" and n-r singletons of each sign."""
    if type(n) is not int or type(r) is not int:
        raise ValueError(f"n and r must be int, got {_echo((n, r))}")
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= {n}, got {r}")
    rows = ((2, 1),) * r + ((1, 1),) * (n - r) + ((1, -1),) * (n - r)
    return SignedTableau(rows)


def pminus_orbits(n: int) -> tuple[SignedTableau, ...]:
    """The orbit chain in increasing closure order, r = 0 (zero orbit) up to
    r = n (dense orbit)."""
    if type(n) is not int:
        raise ValueError(f"rank must be int, got {_echo(n)}")
    if n < 1:
        raise ValueError("rank must be positive")
    return tuple(chain_tableau(n, r) for r in range(n + 1))


def av_scalar(n: int, m: int) -> SignedTableau:
    """Associated variety of the scalar module pi_n(m): the chain element
    with r = min(2m, n)."""
    if type(n) is not int or type(m) is not int:
        raise ValueError(f"n and m must be int, got {_echo((n, m))}")
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return chain_tableau(n, min(2 * m, n))


def in_pminus_chain(tab: SignedTableau, n: int) -> bool:
    """Is the tableau one of the chain elements?

    Rows of length > 2 and two-box rows leading with - are excluded; the
    singleton balance and box count must also hold.
    """
    if validate_tableau(tab, n):
        return False
    return all(length <= 2 and (length != 2 or lead == 1) for length, lead in tab.rows)


def chain_index(tab: SignedTableau, n: int) -> int:
    """Position r of a chain tableau (its number of two-box rows)."""
    if not in_pminus_chain(tab, n):
        raise ValueError("tableau is not in the chain")
    return sum(1 for length, _ in tab.rows if length == 2)


def closure_leq(t1: SignedTableau, t2: SignedTableau, n: int) -> bool:
    """Closure order on the chain: containment of orbit closures is the
    linear order of the chain indices."""
    return chain_index(t1, n) <= chain_index(t2, n)


def render_tableau(tab: SignedTableau) -> list[str]:
    """Rows as strings of '+' and '-' characters."""
    out = []
    for i in range(len(tab.rows)):
        out.append("".join("+" if s == 1 else "-" for s in tab.row_signs(i)))
    return out
