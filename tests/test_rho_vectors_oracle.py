"""``cohomology.rho_vectors`` writes each half-sum of the (p, q) pair in
closed form; here it is pinned, field by field, to the root-by-root sums
of ``oracles.rho_vectors_by_roots`` at every (n, p, q) with n <= 20 and on
a fixed sample of pairs at n = 64."""

import random

import pytest

from sympacket.cohomology import rho_vectors

from oracles import rho_vectors_by_roots

FIELDS = ("delta_l", "delta_up", "delta_uk", "delta_u", "delta_pq", "S")


def _pairs(n):
    return [(p, q) for p in range(n + 1) for q in range(n - p + 1)]


def _assert_same(n, p, q):
    got, want = rho_vectors(n, p, q), rho_vectors_by_roots(n, p, q)
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), (n, p, q, field)


@pytest.mark.parametrize("n", range(21))
def test_rho_vectors_equal_the_root_sums_up_to_rank_20(n):
    for p, q in _pairs(n):
        _assert_same(n, p, q)


def test_rho_vectors_equal_the_root_sums_at_rank_64():
    # the corners (p and q at 0, or one filling the rank), a split with no
    # middle run, and 60 seeded pairs
    n = 64
    corners = [(0, 0), (n, 0), (0, n), (1, n - 1)]
    for p, q in corners + random.Random(64).sample(_pairs(n), 60):
        _assert_same(n, p, q)
