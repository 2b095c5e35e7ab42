"""Acceptance suite: one test per release criterion, exact arithmetic
throughout (tolerance zero).  Each test prints a PASS line when it
completes; pytest reports any failure in the usual way."""

import io
import itertools
import json
from collections import Counter
from contextlib import redirect_stdout

from sympacket import cli
from sympacket.characters import (
    VANISHING,
    char_equivalent,
    rho_pi_general,
    rho_sigma_general,
    rho_theta,
    rho_theta_parameter,
    rho_unipotent_table,
    table_row,
)
from sympacket.cohomology import (
    aq_lambda_regular,
    ktype_inequality_scalar,
    rho_vectors,
)
from sympacket.langlands import exponent_filter, standard_pi, standard_sigma
from sympacket.membership import (
    ROUTE_I,
    ROUTE_II_A1,
    ROUTE_II_A3,
    decide_pi,
    decide_pi_recursive,
    decide_regular,
    decide_sigma,
    enumerate_packets_pi,
    enumerate_packets_sigma,
    distinguished_parameter_sigma,
)
from sympacket.params import (
    CHAR_SGN,
    CHAR_TRIV,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    enumerate_params,
    hw_shape_check,
    inf_char_of_param,
)
from sympacket.quadforms import (
    first_occurrence,
    hasse_from_diagonal,
    hasse_normalized,
    howe_ktype,
    o_characters,
    tensor_det,
)
from sympacket.tableaux import av_scalar, chain_index, closure_leq, validate_tableau
from sympacket.weights import (
    InfinitesimalCharacter,
    howe_source,
    inf_char_of_weight,
    pi_nm,
    regular_a_max,
    sigma_nk,
)

from oracles import brute_force_params


def _ok(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def P(n, unip, disc=()):
    return ArthurParameter(
        n,
        tuple(UnipotentBlock(c, d) for c, d in unip),
        tuple(DiscreteBlock(t, a) for t, a in disc),
    ).canonical()


def test_01_invariant_agreement():
    for p in range(31):
        for q in range(31):
            diag = (1,) * p + (-1,) * q
            for delta in (1, -1):
                assert hasse_from_diagonal(diag, delta) == hasse_normalized(p, q, delta)
                assert hasse_normalized(p, q, delta) == hasse_normalized(
                    p + 1, q + 1, delta
                )
            # swap identity used alongside the closed forms (even rank)
            if (p + q) % 2 == 0:
                for delta in (1, -1):
                    lhs = hasse_normalized(p, q, delta) * hasse_normalized(q, p, delta)
                    assert lhs == (-1) ** ((q // 2 + p // 2) % 2)
    _ok("01 invariant-agreement")


def test_02_enumeration_soundness():
    for n in range(1, 7):
        for m in range(0, n + 1):
            chi = inf_char_of_weight(pi_nm(n, m))
            found = enumerate_params(chi, n)
            assert len(set(found)) == len(found)
            for psi in found:
                assert inf_char_of_param(psi) == chi
                assert hw_shape_check(psi), (n, m, str(psi))
            assert found == brute_force_params(chi, n), (n, m)
    _ok("02 enumeration-soundness")


def test_03_decider_equivalence(ranks_1_to_9):
    # every m up to rank 9; at rank 10 a sample of m: both ends, their
    # neighbours and the middle
    cases = [(n, m) for n in range(1, 10) for m in range(0, n + 1)]
    cases += [(10, m) for m in (0, 1, 5, 9, 10)]
    disagreements = []
    for n, m in cases:
        if n <= 9:
            found = ranks_1_to_9["pi", n, m].params
        else:
            found = enumerate_params(inf_char_of_weight(pi_nm(n, m)), n)
        for psi in found:
            if decide_pi(psi, n, m).member != decide_pi_recursive(psi, n, m):
                disagreements.append((n, m, str(psi)))
    assert disagreements == []
    _ok("03 decider-equivalence")


def test_04_worked_cases():
    worked = P(2, [(CHAR_SGN, 3), (CHAR_TRIV, 1), (CHAR_SGN, 1)])
    packets = enumerate_packets_pi(2, 1)
    assert [psi for psi, _ in packets] == [worked]
    assert packets[0][1].route == ROUTE_II_A1

    packets = dict(enumerate_packets_pi(2, 2))
    route_i = P(2, [(CHAR_TRIV, 1)], [(1, 2)])
    assert route_i in packets and packets[route_i].route == ROUTE_I
    assert worked in packets and packets[worked].route == ROUTE_II_A3
    _ok("04 worked-cases")


def test_05_necessity_filters():
    for n in range(1, 7):
        for m in range(1, n + 1):
            sm = standard_pi(n, m)
            for psi, _ in enumerate_packets_pi(n, m):
                assert exponent_filter(psi, sm)
        for k in range(1, n // 2 + 1):
            sm = standard_sigma(n, k)
            for psi, _ in enumerate_packets_sigma(n, k):
                assert exponent_filter(psi, sm)
    # unipotent members carry the forced big-block data, up to rank 8
    for n in range(1, 9):
        for m in range(1, n + 1):
            for psi, _ in enumerate_packets_pi(n, m):
                if psi.discrete or len(psi.unipotent) == 1:
                    continue
                dims = sorted((b.dim for b in psi.unipotent), reverse=True)
                a1, a2 = dims[0], dims[1]
                assert a1 in (2 * (n - m) + 1, 2 * (n - m) + 3)
                want = ((a2 + 1) // 2) % 2
                assert any(b.dim == a1 and b.char == want for b in psi.unipotent)
    _ok("05 necessity-filters")


def test_06_sigma_packets():
    for n in range(3, 9):
        for k in range(1, (n - 1) // 2 + 1):
            psi = distinguished_parameter_sigma(n, k)
            assert decide_sigma(psi, n, k).member, (n, k, str(psi))
    # sigma_{2k,k} is pi_{2k}(k+1) at every public entry
    for k in range(1, 5):
        n = 2 * k
        chi = inf_char_of_weight(sigma_nk(n, k))
        for psi in enumerate_params(chi, n):
            assert decide_sigma(psi, n, k) == decide_pi(psi, n, k + 1), (k, str(psi))
        packets = enumerate_packets_sigma(n, k)
        assert packets == enumerate_packets_pi(n, k + 1)
        for psi, _ in packets:
            for delta in (1, -1):
                assert rho_sigma_general(psi, n, k, delta) == rho_pi_general(
                    psi, n, k + 1, delta
                ), (k, str(psi), delta)
        assert standard_sigma(n, k) == standard_pi(n, k + 1)
        reports = []
        for argv in (["enumerate-sigma", str(n), str(k)], ["enumerate-pi", str(n), str(k + 1)]):
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            reports.append(json.loads(out.getvalue())["results"]["packets"])
        assert reports[0] == reports[1]
    _ok("06 sigma-packets")


def test_07_rho_consistency_with_documented_discrepancy():
    mismatches = []
    comparisons = 0
    for n in range(1, 9):
        for m in range(1, n + 1):
            for psi, verdict in enumerate_packets_pi(n, m):
                if psi.discrete or len(psi.unipotent) != 3:
                    continue
                which, m_table = (
                    ("sigma_star", m - 1)
                    if verdict.route == ROUTE_II_A3
                    else ("pi_star", m)
                )
                for delta in (1, -1):
                    general = rho_pi_general(psi, n, m, delta)
                    found = table_row(psi, which, m_table, delta)
                    assert found is not None, f"no table row matches {psi}"
                    form, row = found
                    assert not general.flags
                    assert not row.flags, (n, m, str(psi))
                    comparisons += 1
                    if not char_equivalent(general, row):
                        mismatches.append((n, m, delta, form, which))
    assert comparisons > 0
    # the disagreement set is exactly the first-form sigma rows, nothing else
    assert mismatches, "documented discrepancy set must be detected"
    assert all(f == "first" and w == "sigma_star" for (_, _, _, f, w) in mismatches)
    for n, m, delta, form, which in mismatches:
        assert form == "first" and which == "sigma_star"
    hit = {(n, m) for (n, m, _, _, _) in mismatches}
    for n in range(1, 9):
        for m in range(1, n + 1):
            for psi, verdict in enumerate_packets_pi(n, m):
                if psi.discrete or len(psi.unipotent) != 3:
                    continue
                if verdict.route != ROUTE_II_A3:
                    continue
                if Counter(psi.unipotent) == Counter(
                    rho_theta_parameter(n, m - 1, 0)
                ):
                    assert (n, m) in hit  # every first-form sigma row disagrees

    # verbatim: printed rows against the lift triples, mismatch families
    verbatim = set()
    for m in range(1, 5):
        for n in range(2 * m - 1, 9):
            for delta in (1, -1):
                for form, tau_prime in (("first", 0), ("second", 1)):
                    for which, (tau, side) in {
                        "pi": (0, "O(0,2m)"),
                        "sigma": (1, "O(0,2m)"),
                        "pi_star": (0, "O(2m,0)"),
                        "sigma_star": (1, "O(2m,0)"),
                    }.items():
                        if n < 2 * m - 1 + tau:
                            continue
                        row = rho_unipotent_table(form, n, m, which, delta)
                        if row.flags:
                            continue
                        if row.signs != rho_theta(n, m, tau_prime, tau, delta, side):
                            verbatim.add((form, which))
    assert verbatim == {("first", "sigma"), ("first", "sigma_star")}

    # the command line surfaces the discrepancy through exit code 3
    psi = json.dumps(
        {
            "n": 5,
            "unipotent": [
                {"char": "triv", "dim": 7},
                {"char": "triv", "dim": 3},
                {"char": "triv", "dim": 1},
            ],
            "discrete": [],
        }
    )
    assert cli.main(["rho", "--param", psi, "--module", "sigma", "--k", "2"]) == 3
    _ok("07 rho-consistency")


def test_08_character_sanity():
    # lift triples have product +1 across the whole domain
    for n, m, tp, tau, delta, side in itertools.product(
        range(1, 9), range(1, 5), (0, 1), (0, 1), (1, -1), ("O(0,2m)", "O(2m,0)")
    ):
        if n < 2 * m - 1 + tau:
            continue
        e1, e2, e3 = rho_theta(n, m, tp, tau, delta, side)
        assert e1 * e2 * e3 == 1

    # member characters are constant on equal blocks, never flagged
    for n in range(1, 7):
        for m in range(1, n + 1):
            for psi, _ in enumerate_packets_pi(n, m):
                for delta in (1, -1):
                    char = rho_pi_general(psi, n, m, delta)
                    assert not char.flags
                    assert char.sign_map() is not None

    # printed rows: the only in-domain degeneracy is the rank-one edge case
    flagged = set()
    for m in range(1, 5):
        for n in range(2 * m - 1, 9):
            for delta in (1, -1):
                for form in ("first", "second"):
                    for which, tau in (
                        ("pi", 0),
                        ("sigma", 1),
                        ("pi_star", 0),
                        ("sigma_star", 1),
                    ):
                        if n < 2 * m - 1 + tau:
                            continue
                        row = rho_unipotent_table(form, n, m, which, delta)
                        if row.flags:
                            flagged.add((form, which, n, m))
    assert flagged == {("second", "pi", 1, 1)}
    # below the lift's existence bound the determinant rows degenerate
    for m in range(2, 5):
        row = rho_unipotent_table("first", 2 * m - 1, m, "sigma", 1)
        assert VANISHING in row.flags

    # discrete-block signs depend on the token exactly for odd block sizes
    for n in range(1, 6):
        for m in range(1, n + 1):
            for psi, _ in enumerate_packets_pi(n, m):
                if not psi.discrete:
                    continue
                plus = rho_pi_general(psi, n, m, 1)
                minus = rho_pi_general(psi, n, m, -1)
                for j, block in enumerate(psi.discrete):
                    same = plus.signs[j] == minus.signs[j]
                    assert same == (block.a % 2 == 0), (n, m, str(psi), j)
    _ok("08 character-sanity")


def test_09_conservation_law():
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
    _ok("09 conservation-law")


def test_10_howe_round_trips():
    for n in range(1, 9):
        for m in range(1, n + 1):
            triv = [c for c in o_characters(0, 2 * m, 1) if c.restriction == (0, 0)][0]
            assert howe_ktype(triv, 0, 2 * m, n) == (-m,) * n
            src = howe_source(pi_nm(n, m))
            assert src.ell == m
            assert src.orep.entries == (0,) * m and src.orep.sign == 1
        for k in range(1, n // 2 + 1):
            det = [c for c in o_characters(0, 2 * k, 1) if c.restriction == (1, 1)][0]
            if n >= 2 * k:
                kt = howe_ktype(det, 0, 2 * k, n)
                want = tuple(
                    sorted((-k,) * (n - 2 * k) + (-k - 1,) * (2 * k), reverse=True)
                )
                assert tuple(sorted(kt, reverse=True)) == want
            src = howe_source(sigma_nk(n, k))
            if n > 2 * k:
                assert src.case == "c"
                assert src.ell == k and src.orep.is_det_type
            else:
                # sigma_{2k,k} is scalar; the determinant datum appears as
                # the smaller-rank alternative of the overlap case
                assert src.case == "d"
                assert src.alt_ell == k and src.alt_orep.is_det_type
    _ok("10 howe-round-trips")


def test_11_scalar_inequality_reproduction():
    for n in range(1, 13):
        for m in range(1, n + 1):
            for a in range(1, m + 1):
                t = 2 * m - a - 1
                for p in range(1, a + 1):
                    assert not ktype_inequality_scalar(m, p, a - p, t), (n, m, a, p)
    _ok("11 scalar-inequality-reproduction")


def test_12_cohomological_identities():
    for n in range(1, 11):
        for p in range(n + 1):
            for q in range(n - p + 1):
                rv = rho_vectors(n, p, q)
                assert rv.delta_u.doubled == (rv.delta_up + rv.delta_uk).doubled
    for n in range(1, 11):
        for amax in range(0, n + 1):
            tail = tuple(range(amax, 0, -1))
            head = tuple(range(n + 2, amax + 1, -1))[: n - amax]
            pos = head + tail
            chi = InfinitesimalCharacter(pos + tuple(-x for x in pos) + (0,))
            assert regular_a_max(chi) == amax
            for a in range(0, amax + 1):
                aq = aq_lambda_regular(chi, a)
                ell = n - a
                ms = aq.mu.entries[:ell]
                want = tuple(range(-1, -a - 1, -1)) + tuple(
                    -ms[ell - 1 - j] + (ell - j) for j in range(ell)
                )
                assert aq.lam_plus_rho == want
    _ok("12 cohomological-identities")


def test_13_tableaux():
    for n in range(1, 9):
        previous = None
        for m in range(0, n + 1):
            tab = av_scalar(n, m)
            assert validate_tableau(tab, n) == []
            assert tab.boxes == 2 * n
            assert chain_index(tab, n) == min(2 * m, n)
            if previous is not None:
                assert closure_leq(previous, tab, n)
            previous = tab
    _ok("13 tableaux")


def test_14_regular_case():
    for n in range(1, 7):
        for amax in range(0, n + 1):
            tail = tuple(range(amax, 0, -1))
            head = tuple(range(n + 3, amax + 2, -1))[: n - amax]
            pos = head + tail
            chi = InfinitesimalCharacter(pos + tuple(-x for x in pos) + (0,))
            assert regular_a_max(chi) == amax
            params = enumerate_params(chi, n)
            assert params
            for psi in params:
                assert len(psi.unipotent) == 1
                for a in range(0, amax + 1):
                    assert decide_regular(psi, a) == (
                        psi.unipotent[0].dim == 2 * a + 1
                    )
        # cross-check against the trivial representation: chi = (n, ..., 1)
        pos = tuple(range(n, 0, -1))
        chi = InfinitesimalCharacter(pos + tuple(-x for x in pos) + (0,))
        assert regular_a_max(chi) == n
        for psi in enumerate_params(chi, n):
            assert decide_regular(psi, n) == decide_pi(psi, n, 0).member
    _ok("14 regular-case")
