import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympacket.tableaux import (
    SignedTableau,
    av_scalar,
    chain_index,
    chain_tableau,
    closure_leq,
    in_pminus_chain,
    pminus_orbits,
    render_tableau,
    validate_tableau,
)


@pytest.mark.parametrize(
    "rows, bad",
    [(((2.9, 1.0), ("1", True)), "2.9"), (((2, 1), ("1", 1)), "'1'"), (((1, True),), "True")],
)
def test_signed_tableau_entries_must_be_integers(rows, bad):
    # a row length or sign is refused, not truncated or converted
    with pytest.raises(ValueError, match=f"got {re.escape(bad)}$"):
        SignedTableau(rows)
    assert SignedTableau([[1, -1], [2, 1]]).rows == ((2, 1), (1, -1))


def test_validate_chain_elements():
    dense = SignedTableau(((2, 1),) * 3)
    assert validate_tableau(dense, 3) == []
    zero = SignedTableau(((1, 1),) * 3 + ((1, -1),) * 3)
    assert validate_tableau(zero, 3) == []


def test_validate_odd_balance():
    bad = SignedTableau(((1, 1), (1, 1), (1, 1), (1, -1)))
    assert validate_tableau(bad, 2) == ["ODD_BALANCE"]
    short = SignedTableau(((2, 1),))
    assert validate_tableau(short, 2) == ["BOX_COUNT"]


def test_bad_rows_ranks_and_indices():
    for rows in (((0, 1), (2, 1)), ((2, 0),)):
        assert validate_tableau(SignedTableau(rows), 1) == ["ROW_SHAPE"]
    assert not in_pminus_chain(SignedTableau(((2, 1),)), 2)  # BOX_COUNT
    with pytest.raises(ValueError, match="rank must be positive"):
        pminus_orbits(0)
    for r in (-1, 5):
        with pytest.raises(ValueError, match="need 0 <= r <= 4"):
            chain_tableau(4, r)


@pytest.mark.parametrize(
    "fn, args, refusal",
    [
        # a bool or a float is refused, not computed with or failed on
        (chain_tableau, (2, 1.0), "n and r must be int, got (2, 1.0)"),
        (chain_tableau, (True, 0), "n and r must be int, got (True, 0)"),
        (pminus_orbits, (2.0,), "rank must be int, got 2.0"),
        (av_scalar, (3, True), "n and m must be int, got (3, True)"),
        (av_scalar, (3.0, 1), "n and m must be int, got (3.0, 1)"),
        (validate_tableau, (chain_tableau(2, 1), 2.0), "rank must be int, got 2.0"),
        (in_pminus_chain, (chain_tableau(2, 1), True), "rank must be int, got True"),
        (chain_index, (chain_tableau(2, 1), 2.0), "rank must be int, got 2.0"),
    ],
)
def test_non_int_arguments_are_refused(fn, args, refusal):
    with pytest.raises(ValueError, match=re.escape(refusal)):
        fn(*args)


def test_pminus_orbits_counts():
    assert len(pminus_orbits(1)) == 2
    assert len(pminus_orbits(3)) == 4
    chain = pminus_orbits(4)
    assert chain[-1] == SignedTableau(((2, 1),) * 4)  # dense orbit
    assert chain[0] == SignedTableau(((1, 1),) * 4 + ((1, -1),) * 4)
    assert [chain_index(t, 4) for t in chain] == [0, 1, 2, 3, 4]


def test_av_scalar_rule():
    assert av_scalar(3, 1) == chain_tableau(3, 2)
    assert av_scalar(3, 2) == chain_tableau(3, 3)  # dense
    assert av_scalar(4, 0) == chain_tableau(4, 0)  # zero orbit
    for n in range(1, 8):
        for m in range(0, n + 1):
            tab = av_scalar(n, m)
            assert validate_tableau(tab, n) == []
            assert tab.boxes == 2 * n
            assert chain_index(tab, n) == min(2 * m, n)


def test_av_scalar_monotone_in_closure_order():
    for n in range(1, 8):
        for m in range(0, n):
            assert closure_leq(av_scalar(n, m), av_scalar(n, m + 1), n)
        assert closure_leq(av_scalar(n, 0), av_scalar(n, n), n)
        assert closure_leq(av_scalar(n, 1), av_scalar(n, 1), n)


def test_two_rows_leading_minus_are_outside_the_chain():
    bad = SignedTableau(((2, -1),) * 2)
    assert validate_tableau(bad, 2) == []  # a legitimate orbit ...
    assert not in_pminus_chain(bad, 2)  # ... but not in the holomorphic chain
    with pytest.raises(ValueError):
        chain_index(bad, 2)


def test_row_signs_alternate():
    tab = SignedTableau(((3, 1), (3, -1), (2, 1)))
    assert tab.row_signs(0) == (1, -1, 1)
    assert tab.row_signs(1) == (-1, 1, -1)
    assert render_tableau(tab) == ["+-+", "-+-", "+-"]


@given(st.integers(1, 10), st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_closure_order_is_total_on_the_chain(n, r1_raw, r2_raw):
    r1, r2 = min(r1_raw, n), min(r2_raw, n)
    t1, t2 = chain_tableau(n, r1), chain_tableau(n, r2)
    assert closure_leq(t1, t2, n) == (r1 <= r2)
    assert closure_leq(t1, t2, n) or closure_leq(t2, t1, n)
