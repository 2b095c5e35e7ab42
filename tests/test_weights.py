import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympacket.weights import (
    HighestWeight,
    InfinitesimalCharacter,
    OrthRepLabel,
    classify_unitary,
    howe_source,
    inf_char_of_weight,
    module_of,
    pi_nm,
    regular_a_max,
    sigma_nk,
)


def test_highest_weight_requires_decreasing():
    with pytest.raises(ValueError):
        HighestWeight((1, 2))
    with pytest.raises(ValueError):
        HighestWeight(())


@pytest.mark.parametrize(
    "build, values, bad",
    [
        (HighestWeight, (2.7, 1), "2.7"),
        (HighestWeight, ("3", True), "'3'"),
        (InfinitesimalCharacter, (1.9, 0, -1), "1.9"),
    ],
)
def test_entries_must_be_integers(build, values, bad):
    # an entry is refused, not truncated or converted
    with pytest.raises(ValueError, match=f"got {re.escape(bad)}$"):
        build(values)
    # a list of ints is taken as its tuple
    assert build([int(x) for x in values]).entries == tuple(int(x) for x in values)


@pytest.mark.parametrize(
    "entries, sign, refusal",
    [
        ((0,), True, "sign must be the int +1 or -1, got True"),
        ((0,), 1.0, "sign must be the int +1 or -1, got 1.0"),
        ((0,), -1.0, "sign must be the int +1 or -1, got -1.0"),
        ((0.5, "x"), 1, "entries must be integers, got 0.5"),
        ((2, False), -1, "entries must be integers, got False"),
        ([0, 0], -1, "entries must be a tuple, got [0, 0]"),
    ],
)
def test_orth_rep_label_refuses_what_is_not_an_int(entries, sign, refusal):
    # a bool or float sign equals +1 or -1 but is refused, as a non-int
    # entry is, not converted
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        OrthRepLabel(entries, sign)
    assert OrthRepLabel((2, 0), -1).sign == -1


def test_classify_unitary_known_cases():
    r = classify_unitary(HighestWeight((3, 2, 2, 2)))
    assert (r.unitary, r.u, r.v) == (True, 3, 1)  # 2 >= 4 - 3.5

    r = classify_unitary(HighestWeight((5, 5, 1, 1)))
    assert (r.unitary, r.u, r.v) == (False, 2, 0)  # 1 < 2

    r = classify_unitary(HighestWeight((0, 0, 0)))
    assert r.unitary and r.u == 3


def test_inf_char_known_values():
    assert inf_char_of_weight(HighestWeight((2, 2, 2))).entries == (1, 1, 0, 0, 0, -1, -1)
    assert inf_char_of_weight(HighestWeight((3, 3, 3, 3, 2))).entries == (
        3, 2, 1, 1, 0, 0, 0, -1, -1, -2, -3,
    )
    assert inf_char_of_weight(HighestWeight((1,))).entries == (0, 0, 0)


def test_inf_char_invariants_rejected():
    with pytest.raises(ValueError):
        InfinitesimalCharacter((1, 0, 0))  # not symmetric
    with pytest.raises(ValueError):
        InfinitesimalCharacter((1, -1))  # even length / even zero-multiplicity


def test_inf_char_with_one_zero_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetric under negation"):
        InfinitesimalCharacter((2, 1, 0))


def test_module_of_refuses_a_negative_rank():
    with pytest.raises(ValueError, match="rank must be positive"):
        module_of("pi", -1, 0)


def test_scalar_and_near_scalar_families():
    assert pi_nm(3, 2).entries == (2, 2, 2)
    assert pi_nm(2, 0).entries == (0, 0)
    assert pi_nm(5, 5).entries == (5,) * 5
    with pytest.raises(ValueError):
        pi_nm(3, 4)
    with pytest.raises(ValueError):
        pi_nm(3, -1)

    assert sigma_nk(5, 2).entries == (3, 3, 3, 3, 2)
    assert sigma_nk(4, 2).entries == pi_nm(4, 3).entries
    assert sigma_nk(2, 1).entries == (2, 2)
    with pytest.raises(ValueError):
        sigma_nk(3, 2)
    with pytest.raises(ValueError):
        sigma_nk(3, 0)


def test_families_are_unitary_with_expected_invariants():
    for n in range(1, 9):
        for m in range(0, n + 1):
            assert classify_unitary(pi_nm(n, m)).unitary
        for k in range(1, n // 2 + 1):
            r = classify_unitary(sigma_nk(n, k))
            assert r.unitary
            if n > 2 * k:
                # the bound is met with equality: k = n - (u + v/2)
                assert (r.u, r.v) == (n - 2 * k, 2 * k)
                assert 2 * k == 2 * n - 2 * r.u - r.v


def test_howe_source_scalar_small_m():
    # 2m <= n+1: trivial representation of the rank-m definite group
    for n in range(1, 9):
        for m in range(0, (n + 1) // 2 + 1):
            src = howe_source(pi_nm(n, m))
            assert src.ell == m
            assert src.orep.entries == (0,) * m and src.orep.sign == 1
            assert src.case == ("b'" if m == 0 else "b''")
            assert src.alt_ell is None


def test_howe_source_scalar_large_m_has_det_alternative():
    # 2m >= n+2: the same trivial source plus the smaller-rank alternative
    src = howe_source(pi_nm(4, 3))
    assert src.case == "d"
    assert (src.ell, src.orep.entries, src.orep.sign) == (3, (0, 0, 0), 1)
    assert src.alt_ell == 2
    # 2(m-1)-n = 0 ones and n-(m-1) = 2 zeros: the determinant label
    assert src.alt_orep.entries == (0, 0) and src.alt_orep.sign == -1
    assert src.alt_orep.is_det_type

    src = howe_source(pi_nm(4, 4))
    assert src.case == "d" and src.alt_ell == 3
    # 2(m-1)-n = 2 ones and n-(m-1) = 1 zero
    assert src.alt_orep.entries == (1, 1, 0) and src.alt_orep.sign == -1


def test_howe_source_sigma_is_det_type():
    src = howe_source(sigma_nk(5, 2))
    assert (src.case, src.ell) == ("c", 2)
    assert src.orep.entries == (0, 0) and src.orep.sign == -1
    assert src.orep.is_det_type


def test_howe_source_discrete_series_range():
    src = howe_source(HighestWeight((5, 4, 4)))
    assert (src.case, src.ell) == ("a", 3)
    assert src.orep.entries == (2, 1, 1) and src.orep.sign == 1


def test_howe_source_rejects_nonunitary():
    with pytest.raises(ValueError):
        howe_source(HighestWeight((5, 5, 1, 1)))


def test_regular_a_max_known_values():
    def chi_from_positive(pos):
        return InfinitesimalCharacter(pos + tuple(-x for x in pos) + (0,))

    assert regular_a_max(chi_from_positive((5, 2, 1))) == 2
    assert regular_a_max(chi_from_positive((3, 2, 1))) == 3
    assert regular_a_max(chi_from_positive((7, 5, 3))) == 0
    with pytest.raises(ValueError):
        regular_a_max(InfinitesimalCharacter((1, 1, 0, 0, 0, -1, -1)))


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(st.integers(0, n + 3), min_size=n, max_size=n)
    )
)
@settings(max_examples=300, deadline=None)
def test_inf_char_of_unitary_weight_is_wellformed(values):
    mu = HighestWeight(tuple(sorted(values, reverse=True)))
    if not classify_unitary(mu).unitary:
        return
    chi = inf_char_of_weight(mu)  # constructor enforces the invariants
    assert len(chi.entries) == 2 * mu.n + 1
    assert chi.multiplicity(0) % 2 == 1
