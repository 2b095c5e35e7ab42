import pytest

from sympacket.langlands import (
    StandardModule,
    exponent_filter,
    max_exponent,
    standard_pi,
    standard_sigma,
)
from sympacket.membership import (
    enumerate_packets_pi,
    enumerate_packets_sigma,
)
from sympacket.params import ArthurParameter, DiscreteBlock, UnipotentBlock


def test_standard_pi_values():
    sm = standard_pi(3, 2)
    assert sm.exponents == ((0, 1),)
    assert sm.base_rank == 2 and sm.base_label == "pi_2(2)"

    sm = standard_pi(4, 1)
    assert sm.exponents == ((1, 3), (1, 2), (1, 1))

    sm = standard_pi(4, 3)
    assert sm.exponents == ((1, 1),)

    sm = standard_pi(5, 5)  # tempered boundary: no exponents
    assert sm.exponents == () and max_exponent(sm) == 0

    with pytest.raises(ValueError):
        standard_pi(3, 0)


def test_standard_sigma_values():
    sm = standard_sigma(5, 2)
    assert sm.exponents == ((0, 3), (0, 1))
    assert sm.base_rank == 3

    sm = standard_sigma(3, 1)
    assert sm.exponents == ((1, 2),)

    # boundary n = 2k collapses onto the scalar module's standard form
    assert standard_sigma(4, 2) == standard_pi(4, 3)
    assert standard_sigma(2, 1) == standard_pi(2, 2)

    with pytest.raises(ValueError):
        standard_sigma(3, 2)


@pytest.mark.parametrize(
    "exponents, refusal",
    [(((0, 1), (1, 2)), "strictly decreasing"), (((0, 2), (0, 2)), "strictly decreasing"),
     (((1, 1), (0, 0)), "positive")],
)
def test_standard_module_refuses_a_bad_exponent_string(exponents, refusal):
    with pytest.raises(ValueError, match=refusal):
        StandardModule(exponents, 1)


def test_max_exponent():
    assert max_exponent(standard_pi(5, 2)) == 3
    assert max_exponent(standard_sigma(5, 2)) == 3


def test_exponent_filter_rejects_small_blocks():
    n = 4
    psi = ArthurParameter(
        n, (UnipotentBlock(0, 1),), (DiscreteBlock(n + 1, n),)
    ).canonical()
    # max exponent n - 1 = 3 needs a block of dimension > 7
    assert not exponent_filter(psi, standard_pi(n, 1))
    assert exponent_filter(psi, standard_pi(n, n))  # tempered: vacuous


def test_members_pass_exponent_filter():
    for n in range(1, 7):
        for m in range(1, n + 1):
            sm = standard_pi(n, m)
            for psi, _ in enumerate_packets_pi(n, m):
                assert exponent_filter(psi, sm)
        for k in range(1, n // 2 + 1):
            sm = standard_sigma(n, k)
            for psi, _ in enumerate_packets_sigma(n, k):
                assert exponent_filter(psi, sm)
