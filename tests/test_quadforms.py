import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympacket.quadforms import (
    OrthCharacter,
    add_hyperbolic,
    det_class,
    discriminant,
    first_occurrence,
    hasse_from_diagonal,
    hasse_normalized,
    hilbert_symbol_real,
    howe_degree,
    howe_ktype,
    o_characters,
    tensor_det,
)


C22 = o_characters(2, 2, 1)[0]


@pytest.mark.parametrize(
    "fn, args, refusal",
    [
        # a bool or a float is refused, not computed with
        (hilbert_symbol_real, (True, -1), "sign classes"),
        (hilbert_symbol_real, (1, -1.0), "sign classes"),
        (hilbert_symbol_real, (2, -1), "sign classes"),
        (det_class, (1, 1.0), "must be int, got p=1, q=1.0"),
        (discriminant, (True, 0), "must be int, got p=True, q=0"),
        (hasse_normalized, (4.0, 0, 1), "must be int, got p=4.0, q=0"),
        (add_hyperbolic, ("1", 1), "must be int, got p='1', q=1"),
        (det_class, (-1, 0), "nonnegative"),
        (hasse_normalized, (4, 0, True), "delta must be"),
        (hasse_normalized, (4, 0, 0), "delta must be"),
        (hasse_from_diagonal, ((1, -1), -1.0), "delta must be"),
        (hasse_from_diagonal, ((1, True), 1), "diagonal entries"),
        (o_characters, (2, 2, 1.0), "delta must be"),
        (o_characters, (2, 1, 1), r"p \+ q must be even"),
        (OrthCharacter, (True, 0, 1, (0, 0)), "eta and tau"),
        (OrthCharacter, (0, 2, 1, (0, 0)), "eta and tau"),
        (OrthCharacter, (0, 0, 1.0, (0, 0)), "delta must be"),
        (OrthCharacter, (0, 0, 1, (0, 1.0)), "restriction exponents"),
        (OrthCharacter, (0, 0, 1, (2, 0)), "restriction exponents"),
        (first_occurrence, (C22, 2, -2), "nonnegative"),
        (howe_ktype, (C22, 2, 2, 3.0), "rank must be int, got n=3.0"),
        (howe_ktype, (C22, 2, 2, -1), "rank must be nonnegative"),
        (howe_ktype, (C22, 2, 1, 3), r"p \+ q must be even"),
        (howe_degree, ((0, 0), 2, 1), "p - q must be even"),
        (howe_degree, ((0.5, 1), 0, 0), "weight entries must be int, got 0.5"),
        (howe_degree, ((True, 2), 2, 2), "weight entries must be int, got True"),
        (OrthCharacter, (0, 0, 1, (0,)), r"restriction must be a pair, got \(0,\)"),
        (OrthCharacter, (0, 0, 1, (0, 0, 0)), "restriction must be a pair"),
        (OrthCharacter, (0, 0, 1, [0, 0]), "restriction must be a pair"),
    ],
)
def test_refusals(fn, args, refusal):
    with pytest.raises(ValueError, match=refusal):
        fn(*args)


def test_hilbert_symbol():
    assert hilbert_symbol_real(-1, -1) == -1
    assert hilbert_symbol_real(1, -1) == 1
    for a in (1, -1):
        for b in (1, -1):
            assert hilbert_symbol_real(a, b) == hilbert_symbol_real(b, a)


def test_normalized_invariants_small_signatures():
    assert (det_class(2, 0), discriminant(2, 0)) == (1, -1)
    assert hasse_normalized(2, 0, 1) == 1 and hasse_normalized(2, 0, -1) == -1
    assert discriminant(0, 2) == -1
    assert hasse_normalized(0, 2, 1) == -1 and hasse_normalized(0, 2, -1) == 1
    assert (det_class(1, 1), discriminant(1, 1)) == (-1, 1)
    assert hasse_normalized(1, 1, 1) == 1 and hasse_normalized(1, 1, -1) == 1


def test_hasse_from_diagonal_examples():
    for delta in (1, -1):
        assert hasse_from_diagonal((1, -1), delta) == hasse_normalized(1, 1, delta)
    assert hasse_from_diagonal((-1, -1), 1) == -1
    assert hasse_from_diagonal((), 1) == 1
    with pytest.raises(ValueError):
        hasse_from_diagonal((2,), 1)


@given(st.lists(st.sampled_from((1, -1)), max_size=14), st.sampled_from((1, -1)))
@settings(max_examples=300, deadline=None)
def test_hasse_from_diagonal_depends_only_on_signature(diag, delta):
    p = sum(1 for x in diag if x == 1)
    q = len(diag) - p
    assert hasse_from_diagonal(diag, delta) == hasse_normalized(p, q, delta)


def test_add_hyperbolic_preserves_normalized_invariants():
    for p in range(0, 12):
        for q in range(0, 12):
            p2, q2 = add_hyperbolic(p, q)
            assert (p2, q2) == (p + 1, q + 1)
            assert discriminant(p, q) == discriminant(p2, q2)
            for delta in (1, -1):
                assert hasse_normalized(p, q, delta) == hasse_normalized(p2, q2, delta)


def test_o_characters_definite_rank_two():
    # sign-type characters collapse onto trivial/determinant on definite forms
    chars = o_characters(2, 0, 1)
    assert [(c.eta, c.tau, c.restriction) for c in chars] == [
        (0, 0, (0, 0)),
        (0, 1, (1, 1)),
    ]
    chars = o_characters(1, 1, 1)
    assert len(chars) == 4
    assert {c.restriction for c in chars} == {(0, 0), (1, 1), (1, 0), (0, 1)}


def test_o_characters_sign_type_restrictions():
    # split signature, delta = 1: exponents ((p-q)/2 + 1, (p-q)/2) mod 2
    chars = {(c.eta, c.tau): c for c in o_characters(4, 2, 1)}
    assert chars[(1, 0)].restriction == (0, 1)
    assert chars[(1, 1)].restriction == (1, 0)
    swapped = {(c.eta, c.tau): c for c in o_characters(4, 2, -1)}
    assert swapped[(1, 0)].restriction == (1, 0)  # delta = -1 swaps the pair


def test_first_occurrence_values():
    chars = {c.restriction: c for c in o_characters(0, 6, 1)}
    assert first_occurrence(chars[(0, 0)], 0, 6) == 0
    assert first_occurrence(chars[(1, 1)], 0, 6) == 6
    chars = {c.restriction: c for c in o_characters(1, 3, 1)}
    occ = sorted(first_occurrence(c, 1, 3) for c in chars.values() if c.eta == 1)
    assert occ == [1, 3]


def test_conservation_law():
    for total in range(0, 21, 2):
        for p in range(total + 1):
            q = total - p
            for delta in (1, -1):
                for c in o_characters(p, q, delta):
                    assert (
                        first_occurrence(c, p, q)
                        + first_occurrence(tensor_det(c), p, q)
                        == total
                    )


def test_howe_ktype_values():
    for n in range(1, 8):
        for m in range(1, 4):
            triv = [c for c in o_characters(0, 2 * m, 1) if c.restriction == (0, 0)][0]
            assert howe_ktype(triv, 0, 2 * m, n) == (-m,) * n
    det = [c for c in o_characters(0, 4, 1) if c.restriction == (1, 1)][0]
    assert howe_ktype(det, 0, 4, 3) is None  # below first occurrence
    assert howe_ktype(det, 0, 4, 5) == (-2, -3, -3, -3, -3)
    det20 = [c for c in o_characters(2, 0, 1) if c.restriction == (1, 1)][0]
    assert howe_ktype(det20, 2, 0, 1) is None


def test_howe_ktype_monotone_existence():
    for p, q in ((0, 4), (2, 2), (4, 0), (3, 1)):
        for delta in (1, -1):
            for c in o_characters(p, q, delta):
                defined = [howe_ktype(c, p, q, n) is not None for n in range(0, 9)]
                for earlier, later in zip(defined, defined[1:]):
                    assert later or not earlier


def test_howe_degree():
    assert howe_degree((-2,) * 5, 0, 4) == 0
    assert howe_degree((1, 0, -1), 0, 0) == 2
    for p, q in ((2, 2), (4, 2), (0, 6)):
        det = [c for c in o_characters(p, q, 1) if c.restriction == (1, 1)][0]
        kt = howe_ktype(det, p, q, p + q + 2)
        assert howe_degree(kt, p, q) == p + q
