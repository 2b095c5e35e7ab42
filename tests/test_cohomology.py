import re

import pytest

from sympacket.cohomology import (
    HalfIntVector,
    aq_lambda_regular,
    induction_weights,
    ktype_inequality_general,
    ktype_inequality_scalar,
    lambda_of,
    rho_vectors,
    weakly_fair,
)
from sympacket.membership import enumerate_packets_pi, distinguished_parameter_sigma
from sympacket.params import ArthurParameter, UnipotentBlock
from sympacket.weights import HighestWeight, InfinitesimalCharacter, regular_a_max


def _pairs(n):
    for p in range(n + 1):
        for q in range(n - p + 1):
            yield p, q


@pytest.mark.parametrize(
    "values, bad", [((2.7, "3", True), "2.7"), ((2, "3"), "'3'"), ((4, True), "True")]
)
def test_half_int_vector_entries_must_be_integers(values, bad):
    # an entry is refused, not truncated or converted
    with pytest.raises(ValueError, match=f"got {re.escape(bad)}$"):
        HalfIntVector(values)
    assert HalfIntVector([1, -2]).doubled == (1, -2)


def test_rho_vectors_closed_forms():
    for n in range(1, 11):
        for p, q in _pairs(n):
            rv = rho_vectors(n, p, q)
            mid = n - p - q
            c = 2 * n - p - q + 1
            assert rv.delta_u.doubled == (c,) * p + (0,) * mid + (-c,) * q
            assert rv.delta_up.doubled == (n - q + 1,) * p + (p - q,) * mid + (
                -(n - p + 1),
            ) * q
            assert rv.delta_uk.doubled == (n - p,) * p + (q - p,) * mid + (
                -(n - q),
            ) * q
            assert rv.S == p * (n - p) + mid * q


def test_rho_vector_sum_identities():
    for n in range(1, 11):
        for p, q in _pairs(n):
            rv = rho_vectors(n, p, q)
            assert rv.delta_u.doubled == (rv.delta_up + rv.delta_uk).doubled
            assert rv.delta_pq.doubled == (rv.delta_l + rv.delta_u).doubled
            mid = n - p - q
            want = (
                tuple(range(n - p - q + 1, n - q + 1))
                + tuple(range(-1, -(mid + 1), -1))
                + tuple(range(-(n - q + 1), -(n + 1), -1))
            )
            assert rv.delta_pq.doubled == tuple(2 * x for x in want)


def test_rho_vectors_degenerate():
    rv = rho_vectors(4, 0, 0)
    assert rv.delta_u.doubled == (0, 0, 0, 0)
    assert rv.delta_up.doubled == (0, 0, 0, 0)
    assert rv.S == 0


def test_lambda_round_trip():
    # the U(p,q) character with differential value y corresponds to the
    # level t = 2y + 2n + 1 - p - q; at (p,q) = (0,k), y = -n+k-1 gives t = k-1
    for n in range(1, 8):
        for p, q in _pairs(n):
            if p + q == 0:
                continue
            for y in range(-6, 7):
                t = 2 * y + 2 * n + 1 - p - q
                vec = lambda_of(n, p, q, t)
                assert vec.is_integral
                ent = vec.entries()
                if p:
                    assert ent[0] == y
                if q:
                    assert ent[-1] == -y
    for n in range(2, 8):
        for k in range(1, n // 2 + 1):
            assert lambda_of(n, 0, k, k - 1).entries()[-1] == n - k + 1


def test_weakly_fair_boundary():
    assert weakly_fair(0)
    assert weakly_fair(3)
    assert not weakly_fair(-1)


def test_scalar_inequality_examples():
    assert ktype_inequality_scalar(2, 0, 2, 1)  # equality case
    assert not ktype_inequality_scalar(2, 1, 1, 1)
    # degenerate line outside the weakly fair range
    for p in range(0, 4):
        assert ktype_inequality_scalar(5, p, p, -(2 * p + 1))


@pytest.mark.parametrize("args", [(1, -1, 0, 1), (1, -3, -2, 1), (1, 0, -1, 1)])
def test_scalar_inequality_refuses_a_negative_p_or_q(args):
    with pytest.raises(ValueError, match=re.escape("need p, q >= 0")):
        ktype_inequality_scalar(*args)


def test_scalar_inequality_blocks_positive_p():
    for n in range(1, 13):
        for m in range(1, n + 1):
            for a in range(1, m + 1):
                t = 2 * m - a - 1
                for p in range(1, a + 1):
                    assert not ktype_inequality_scalar(m, p, a - p, t)


def test_general_inequality_reduces_to_scalar():
    for n in range(1, 7):
        for m in range(0, n + 1):
            mu = HighestWeight((m,) * n)
            for p, q in _pairs(n):
                for t in range(-2, 6):
                    assert ktype_inequality_general(mu, n, p, q, t) == (
                        ktype_inequality_scalar(m, p, q, t)
                    )


def test_general_inequality_monotone_in_weight():
    mu_small = HighestWeight((2, 1, 1))
    mu_large = HighestWeight((3, 2, 1))
    # increasing the leading entries only helps the q-side sum
    for t in range(0, 5):
        if ktype_inequality_general(mu_small, 3, 0, 2, t):
            assert ktype_inequality_general(mu_large, 3, 0, 2, t)


def test_induction_weights_distinguished_parameter():
    psi = distinguished_parameter_sigma(5, 2)
    (w,) = induction_weights(psi, 5)
    assert (w.t, w.a) == (1, 2)
    assert w.lam == 5  # (t-a+1)/2 endpoint
    assert w.lam_variant == 4  # (t+a-1)/2 endpoint

    assert induction_weights(ArthurParameter(1, (UnipotentBlock(0, 3),)), 1) == []


def test_induction_weights_decreasing_on_disjoint_segment_members():
    # members with one dimensional unipotent part have disjoint, ordered
    # segments; there the variant weights are weakly decreasing (constant,
    # in fact).  With a large unipotent block covering a middle range the
    # segments need not tile contiguously and monotonicity can fail.
    seen = 0
    for n in range(1, 7):
        for m in range(0, n + 1):
            for psi, verdict in enumerate_packets_pi(n, m):
                if psi.dim_unipotent != 1:
                    continue
                seen += 1
                variant = [w.lam_variant for w in induction_weights(psi, n)]
                assert all(x >= y for x, y in zip(variant, variant[1:])), (
                    n,
                    m,
                    str(psi),
                )
    assert seen > 0


def test_aq_lambda_identity():
    for n in range(1, 9):
        for amax in range(0, n + 1):
            tail = tuple(range(amax, 0, -1))
            head = tuple(range(n - amax + amax + 2, amax + 1, -1))[: n - amax]
            pos = head + tail
            chi = InfinitesimalCharacter(pos + tuple(-x for x in pos) + (0,))
            assert regular_a_max(chi) == amax
            for a in range(0, amax + 1):
                aq = aq_lambda_regular(chi, a)
                ell = n - a
                assert aq.lam[:a] == (0,) * a
                ms = aq.mu.entries[:ell]
                want = tuple(range(-1, -a - 1, -1)) + tuple(
                    -ms[ell - 1 - j] + (ell - j) for j in range(ell)
                )
                assert aq.lam_plus_rho == want
                # the recovered weight reproduces the positive entries
                assert tuple(m - i for i, m in enumerate(ms, start=1)) == pos[:ell]


def test_aq_lambda_range_checks():
    pos = (5, 2, 1)
    chi = InfinitesimalCharacter(pos + tuple(-x for x in pos) + (0,))
    with pytest.raises(ValueError):
        aq_lambda_regular(chi, 3)  # a_max = 2


MU3 = HighestWeight((2, 2, 2))
PSI52 = distinguished_parameter_sigma(5, 2)


@pytest.mark.parametrize(
    "fn, args, refusal",
    [
        (lambda_of, (3, -1, 0, 0), "need p, q >= 0"),
        (lambda_of, (3, 2, 2, 0), "need p, q >= 0"),
        (ktype_inequality_general, (MU3, 3, 0, -1, 0), "need p, q >= 0"),
        (ktype_inequality_general, (MU3, 3, 3, 1, 0), "need p, q >= 0"),
        (ktype_inequality_general, (MU3, 4, 0, 0, 0), "weight rank mismatch"),
        (induction_weights, (PSI52, 4), "parameter rank mismatch"),
    ],
)
def test_range_checks(fn, args, refusal):
    with pytest.raises(ValueError, match=refusal):
        fn(*args)


CHI3 = InfinitesimalCharacter((5, 2, 1, -5, -2, -1, 0))


@pytest.mark.parametrize(
    "fn, args, refusal",
    [
        # a bool or a float is refused, not computed with or failed on
        (rho_vectors, (2.0, 1, 0), "must be int, got (2.0, 1, 0)"),
        (rho_vectors, (True, 1, 0), "must be int, got (True, 1, 0)"),
        (lambda_of, (2, 1, 0, True), "must be int, got (2, 1, 0, True)"),
        (lambda_of, (2, 1.0, 0, 1), "must be int, got (2, 1.0, 0, 1)"),
        (weakly_fair, (0.5,), "t must be int, got 0.5"),
        (ktype_inequality_scalar, (1.5, 1, 0, 1), "must be int, got (1.5, 1, 0, 1)"),
        (ktype_inequality_scalar, (1, 1, False, 1), "must be int, got (1, 1, False, 1)"),
        (ktype_inequality_general, (MU3, 3, 1.0, 0, 1), "must be int, got (3, 1.0, 0, 1)"),
        (ktype_inequality_general, (MU3, 3, 1, 0, 1.0), "must be int, got (3, 1, 0, 1.0)"),
        (induction_weights, (PSI52, 5.0), "rank must be int, got 5.0"),
        (induction_weights, (PSI52, True), "rank must be int, got True"),
        (aq_lambda_regular, (CHI3, True), "a must be int, got True"),
        (aq_lambda_regular, (CHI3, 1.0), "a must be int, got 1.0"),
    ],
)
def test_non_int_arguments_are_refused(fn, args, refusal):
    with pytest.raises(ValueError, match=re.escape(refusal)):
        fn(*args)


def test_halfintvector_utilities():
    v = HalfIntVector((1, -3))
    assert not v.is_integral
    assert (v + v).is_integral
    with pytest.raises(ValueError):
        v + HalfIntVector((2,))
