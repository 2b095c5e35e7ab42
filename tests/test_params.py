import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympacket.params import (
    CHAR_SGN,
    CHAR_TRIV,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    a_psi,
    a_psi_u,
    contains_block,
    enumerate_params,
    hw_shape_check,
    inf_char_of_param,
    remove_discrete_block,
    twist_sgn,
    validate,
    _checked_covers,
    _cover_params,
)
from sympacket.weights import InfinitesimalCharacter, inf_char_of_weight, pi_nm, sigma_nk

from oracles import brute_force_params


def P(n, unip, disc=()):
    return ArthurParameter(
        n,
        tuple(UnipotentBlock(c, d) for c, d in unip),
        tuple(DiscreteBlock(t, a) for t, a in disc),
    ).canonical()


WORKED = P(2, [(CHAR_SGN, 3), (CHAR_TRIV, 1), (CHAR_SGN, 1)])
TRIVIAL_3 = P(1, [(CHAR_TRIV, 3)])


def test_validate_accepts_worked_parameter():
    assert validate(WORKED) == []
    assert validate(TRIVIAL_3) == []


def test_validate_parity_violation():
    psi = P(2, [(CHAR_TRIV, 3)], [(2, 1)])
    # one odd discrete block forces the character product to be sgn
    assert validate(psi) == ["PARITY_PRODUCT"]


def test_validate_dim_and_shape_and_order():
    assert "DIM_SUM" in validate(ArthurParameter(2, (UnipotentBlock(0, 3),)))
    assert "BLOCK_SHAPE" in validate(
        ArthurParameter(2, (UnipotentBlock(0, 4), UnipotentBlock(0, 1)), ())
    )
    assert "BLOCK_SHAPE" in validate(
        ArthurParameter(2, (UnipotentBlock(0, 1),), (DiscreteBlock(2, 2),))
    )
    disordered = ArthurParameter(
        2, (UnipotentBlock(CHAR_TRIV, 1), UnipotentBlock(CHAR_SGN, 3), UnipotentBlock(CHAR_SGN, 1))
    )
    assert "ORDER" in validate(disordered)
    assert validate(disordered.canonical()) == []


def test_inf_char_of_param_known_values():
    psi = P(5, [(CHAR_TRIV, 7)], [(1, 2)])
    assert inf_char_of_param(psi).entries == (3, 2, 1, 1, 0, 0, 0, -1, -1, -2, -3)
    assert inf_char_of_param(psi) == inf_char_of_weight(sigma_nk(5, 2))

    psi = P(3, [(CHAR_TRIV, 7)])
    assert inf_char_of_param(psi).entries == (3, 2, 1, 0, -1, -2, -3)

    assert inf_char_of_param(WORKED).entries == (1, 0, 0, 0, -1)


def test_a_psi_values():
    psi = P(5, [(CHAR_TRIV, 7)], [(1, 2)])
    assert a_psi(psi) == 7 and a_psi_u(psi) == 7

    n = 4
    psi = P(n, [(CHAR_TRIV, 1)], [(n + 1, n)])
    assert a_psi(psi) == n and a_psi_u(psi) == 1

    psi = P(3, [(CHAR_TRIV, 7)])
    assert a_psi(psi) == a_psi_u(psi) == 7


def test_twist_sgn():
    blocks = (UnipotentBlock(CHAR_TRIV, 3),)
    assert twist_sgn(blocks, 4) == blocks
    assert twist_sgn(blocks, 2) == (UnipotentBlock(CHAR_SGN, 3),)
    assert twist_sgn((UnipotentBlock(CHAR_SGN, 1),), 6) == (UnipotentBlock(CHAR_TRIV, 1),)


def test_hw_shape_check():
    assert hw_shape_check(WORKED)
    two_blocks = ArthurParameter(
        2, (UnipotentBlock(0, 3), UnipotentBlock(0, 1)), (DiscreteBlock(2, 1),)
    )
    assert not hw_shape_check(two_blocks)
    three_big = P(4, [(CHAR_TRIV, 3), (CHAR_TRIV, 3), (CHAR_TRIV, 3)])
    assert not hw_shape_check(three_big)
    # a flat discrete block forces an irreducible unipotent part
    flat = P(3, [(CHAR_SGN, 1), (CHAR_SGN, 1), (CHAR_TRIV, 3)], [(1, 2)])
    assert not hw_shape_check(flat)
    flat_ok = P(2, [(CHAR_TRIV, 1)], [(1, 2)])
    assert hw_shape_check(flat_ok)


def test_remove_discrete_block_twists():
    psi = P(3, [(CHAR_TRIV, 3)], [(1, 2)])
    out = remove_discrete_block(psi, 0)
    assert out == P(1, [(CHAR_TRIV, 3)])  # even a: no twist

    psi = P(2, [(CHAR_TRIV, 1), (CHAR_TRIV, 1), (CHAR_SGN, 1)], [(2, 1)])
    out = remove_discrete_block(psi, 0)
    assert out == P(1, [(CHAR_SGN, 1), (CHAR_SGN, 1), (CHAR_TRIV, 1)])
    assert validate(out) == []


def test_remove_then_reinsert_roundtrip():
    for n in range(2, 6):
        for m in range(0, n + 1):
            chi = inf_char_of_weight(pi_nm(n, m))
            for psi in enumerate_params(chi, n):
                for j, block in enumerate(psi.discrete):
                    smaller = remove_discrete_block(psi, j)
                    back = ArthurParameter(
                        smaller.n + block.a,
                        twist_sgn(smaller.unipotent, 2 * block.a),
                        smaller.discrete + (block,),
                    ).canonical()
                    assert back == psi


def test_enumeration_worked_case():
    chi = InfinitesimalCharacter((1, 0, 0, 0, -1))
    found = enumerate_params(chi, 2)
    # the four parameters singled out by the membership analysis ...
    expected_subset = {
        WORKED,
        P(2, [(CHAR_TRIV, 1), (CHAR_TRIV, 1), (CHAR_SGN, 1)], [(2, 1)]),
        P(2, [(CHAR_SGN, 1), (CHAR_SGN, 1), (CHAR_SGN, 1)], [(2, 1)]),
        P(2, [(CHAR_TRIV, 1)], [(1, 2)]),
    }
    assert expected_subset <= set(found)
    # ... plus the assignments with a trivial character on the big block,
    # whose packets meet no highest weight module.
    assert found == brute_force_params(chi, 2)


def module_characters(max_n):
    """The infinitesimal characters of every pi_n(m) and sigma_{n,k}."""
    for n in range(1, max_n + 1):
        for m in range(0, n + 1):
            yield n, inf_char_of_weight(pi_nm(n, m))
        for k in range(1, n // 2 + 1):
            yield n, inf_char_of_weight(sigma_nk(n, k))


def test_enumeration_roundtrip_and_validity():
    # enumerate_params builds parameters straight from the covers without
    # re-validating or re-sorting them: pin that they come out valid,
    # canonical, distinct and in the dataclass order
    for n, chi in module_characters(9):
        found = enumerate_params(chi, n)
        for psi in found:
            assert validate(psi) == []
            assert inf_char_of_param(psi) == chi
            assert psi == psi.canonical()
        assert all(a < b for a, b in zip(found, found[1:]))


def test_topped_search_finds_the_covers_with_that_top():
    # the enumerators search each member top on its own: its centered
    # segment removed, the rest covered with unipotent dimensions at most
    # the top; that must give exactly the full search's covers with that top
    for n, chi in module_characters(8):
        full = _checked_covers(chi, n, 12)
        for top in range(1, 2 * n + 2, 2):
            topped = _checked_covers(chi, n, 12, [top])
            assert len(set(topped)) == len(topped)
            assert set(topped) == {c for c in full if c[0][0] == top}, (n, chi, top)


def test_top_character_filter():
    # with a top character, a cover yields exactly its parameters holding a
    # block of the largest unipotent dimension with that character
    for n, chi in module_characters(7):
        for cover in _checked_covers(chi, n, 12):
            every = list(_cover_params(n, *cover))
            top = cover[0][0]
            for char in (CHAR_TRIV, CHAR_SGN):
                assert list(_cover_params(n, *cover, char)) == [
                    psi for psi in every if UnipotentBlock(char, top) in psi.unipotent
                ]


def test_enumeration_guard_rails():
    with pytest.raises(ValueError):
        enumerate_params(InfinitesimalCharacter((0,)), 0)
    chi = inf_char_of_weight(pi_nm(5, 2))
    with pytest.raises(ValueError):
        enumerate_params(chi, 5, max_rank=4)
    with pytest.raises(ValueError):
        enumerate_params(chi, 4)  # rank mismatch


def test_enumeration_gapped_regular_character():
    # widely spaced positive entries with no unit tail: the centered
    # segments cannot reach down, so every parameter has a one dimensional
    # unipotent part and singleton discrete segments
    pos = (7, 5, 3)
    chi = InfinitesimalCharacter(pos + tuple(-x for x in pos) + (0,))
    found = enumerate_params(chi, 3)
    assert found == brute_force_params(chi, 3)
    assert found
    for psi in found:
        assert [b.dim for b in psi.unipotent] == [1]
        assert sorted(b.top for b in psi.discrete) == [3, 5, 7]
        assert all(b.top == b.bottom for b in psi.discrete)


def test_contains_block():
    assert contains_block(WORKED, UnipotentBlock(CHAR_SGN, 3))
    assert not contains_block(WORKED, UnipotentBlock(CHAR_TRIV, 3))
    psi = P(3, [(CHAR_TRIV, 3)], [(1, 2)])
    assert contains_block(psi, DiscreteBlock(1, 2))
    assert not contains_block(psi, DiscreteBlock(2, 1))


@given(st.integers(1, 5), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_enumeration_idempotent_canonicalization(n, m_raw):
    m = min(m_raw, n)
    chi = inf_char_of_weight(pi_nm(n, m))
    found = enumerate_params(chi, n)
    assert len(set(found)) == len(found)
    assert all(p.canonical() == p for p in found)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(0, n + 2), min_size=n, max_size=n)
    )
)
@settings(max_examples=120, deadline=None)
def test_shape_check_on_unitary_weight_characters(values):
    from sympacket.weights import HighestWeight, classify_unitary

    mu = HighestWeight(tuple(sorted(values, reverse=True)))
    if not classify_unitary(mu).unitary:
        return
    chi = inf_char_of_weight(mu)
    for psi in enumerate_params(chi, mu.n):
        assert hw_shape_check(psi), (mu.entries, str(psi))
