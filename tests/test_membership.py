import pytest

from sympacket.membership import (
    ROUTE_I,
    ROUTE_II_A1,
    ROUTE_II_A3,
    ROUTE_SIGMA,
    ROUTE_TRIVIAL,
    decide_pi,
    decide_pi_recursive,
    decide_regular,
    decide_sigma,
    decide_unipotent,
    enumerate_packets_pi,
    enumerate_packets_sigma,
    distinguished_parameter_sigma,
    peel_step,
    _decide_core,
    _enumerate_packets,
    _routes,
)
from sympacket.params import (
    CHAR_SGN,
    CHAR_TRIV,
    ArthurParameter,
    DiscreteBlock,
    RankBoundError,
    UnipotentBlock,
    a_psi_u,
    enumerate_params,
)
from sympacket.langlands import exponent_filter, standard_pi
from sympacket.weights import (
    InfinitesimalCharacter,
    inf_char_of_weight,
    module_of,
    pi_nm,
    sigma_nk,
)


def P(n, unip, disc=()):
    return ArthurParameter(
        n,
        tuple(UnipotentBlock(c, d) for c, d in unip),
        tuple(DiscreteBlock(t, a) for t, a in disc),
    ).canonical()


WORKED = P(2, [(CHAR_SGN, 3), (CHAR_TRIV, 1), (CHAR_SGN, 1)])
ROUTE_I_CASE = P(2, [(CHAR_TRIV, 1)], [(1, 2)])


def test_decide_pi_worked_cases():
    v = decide_pi(WORKED, 2, 1)
    assert (v.member, v.route, v.multiplicity) == (True, ROUTE_II_A1, 1)

    v = decide_pi(ROUTE_I_CASE, 2, 2)
    assert (v.member, v.route, v.multiplicity) == (True, ROUTE_I, 1)

    v = decide_pi(WORKED, 2, 2)
    assert (v.member, v.route) == (True, ROUTE_II_A3)

    v = decide_pi(ROUTE_I_CASE, 2, 1)
    assert (v.member, v.multiplicity) == (False, 0)


def test_decide_pi_trivial_representation():
    for n in (1, 2, 3):
        triv = P(n, [(CHAR_TRIV, 2 * n + 1)])
        v = decide_pi(triv, n, 0)
        assert (v.member, v.route) == (True, ROUTE_TRIVIAL)
        chi = inf_char_of_weight(pi_nm(n, 0))
        for psi in enumerate_params(chi, n):
            assert decide_pi(psi, n, 0).member == (psi == triv)


def test_decide_pi_rejects_trivial_big_block():
    # same blocks as the worked parameter but with trivial characters: the
    # big-block character test fails for both candidate modules
    psi = P(2, [(CHAR_TRIV, 3), (CHAR_TRIV, 1), (CHAR_TRIV, 1)])
    assert not decide_pi(psi, 2, 1).member
    assert not decide_pi(psi, 2, 2).member


def test_decide_pi_input_errors():
    with pytest.raises(ValueError):
        decide_pi(WORKED, 2, 3)
    with pytest.raises(ValueError):
        decide_pi(WORKED, 3, 1)
    bad = ArthurParameter(2, (UnipotentBlock(0, 3),))
    with pytest.raises(ValueError):
        decide_pi(bad, 2, 1)


def test_decide_sigma_distinguished_parameter():
    psi = distinguished_parameter_sigma(5, 2)
    assert psi == P(5, [(CHAR_TRIV, 7)], [(1, 2)])
    v = decide_sigma(psi, 5, 2)
    assert (v.member, v.route, v.multiplicity) == (True, ROUTE_SIGMA, 1)


def test_decide_sigma_requires_big_block():
    # right character but the dimension-7 block is missing
    psi = P(5, [(CHAR_SGN, 5)], [(6, 1), (1, 2)])
    assert inf_char_of_param_matches_sigma(psi, 5, 2)
    assert not decide_sigma(psi, 5, 2).member


def inf_char_of_param_matches_sigma(psi, n, k):
    from sympacket.params import inf_char_of_param

    return inf_char_of_param(psi) == inf_char_of_weight(sigma_nk(n, k))


def test_decide_sigma_delegates_at_boundary():
    for k in (1, 2):
        n = 2 * k
        chi = inf_char_of_weight(sigma_nk(n, k))
        for psi in enumerate_params(chi, n):
            assert decide_sigma(psi, n, k).member == decide_pi(psi, n, k + 1).member


def test_decide_unipotent():
    assert decide_unipotent(WORKED, 2) == [("pi", 1), ("sigma", 1)]
    assert decide_unipotent(P(2, [(CHAR_TRIV, 5)]), 2) == [("pi", 0)]
    for eta in (CHAR_TRIV, CHAR_SGN):
        psi = P(3, [(CHAR_TRIV, 3), (eta, 3), (eta, 1)])
        assert decide_unipotent(psi, 3) == [("pi", 2)]  # b+1 = 4 > n
    psi = P(2, [(CHAR_TRIV, 3), (CHAR_TRIV, 1), (CHAR_TRIV, 1)])
    assert decide_unipotent(psi, 2) == []
    with pytest.raises(ValueError):
        decide_unipotent(ROUTE_I_CASE, 2)


def test_peel_step_cases():
    psi = P(3, [(CHAR_TRIV, 3)], [(1, 2)])
    step = peel_step(psi, 3, 2)
    assert step.index == 0
    assert (step.n, step.m) == (1, 0)
    assert step.parameter == P(1, [(CHAR_TRIV, 3)])

    assert peel_step(P(2, [(CHAR_TRIV, 5)]), 2, 1) is None

    reject = P(2, [(CHAR_TRIV, 1), (CHAR_TRIV, 1), (CHAR_SGN, 1)], [(2, 1)])
    assert peel_step(reject, 2, 1) == "REJECT"


def test_peel_consistency_on_enumeration():
    # membership before a strip with equality matches membership after
    for n in range(1, 6):
        for m in range(0, n + 1):
            chi = inf_char_of_weight(pi_nm(n, m))
            for psi in enumerate_params(chi, n):
                step = peel_step(psi, n, m)
                if step is None or step == "REJECT":
                    continue
                before = decide_pi(psi, n, m).member
                if step.n == 0:
                    after = step.m == 0 and step.parameter.unipotent == (
                        UnipotentBlock(CHAR_TRIV, 1),
                    )
                else:
                    after = decide_pi(step.parameter, step.n, step.m).member
                assert before == after, (n, m, str(psi))


def test_recursive_oracle_agrees_small():
    for n in range(1, 6):
        for m in range(0, n + 1):
            chi = inf_char_of_weight(pi_nm(n, m))
            for psi in enumerate_params(chi, n):
                assert decide_pi(psi, n, m).member == decide_pi_recursive(psi, n, m)


def test_recursive_oracle_near_scalar_shape():
    # stripped to the near-scalar base: n = 2(m-1) with the big shifted block
    psi = P(4, [(CHAR_TRIV, 5)], [(1, 2)])
    assert decide_pi(psi, 4, 3).route == ROUTE_II_A3
    assert decide_pi_recursive(psi, 4, 3)


def test_exponent_bound_necessary():
    # the maximal exponent n - m of pi_n(m) bounds a(psi)
    assert exponent_filter(WORKED, standard_pi(2, 1))
    n = 4
    psi = P(n, [(CHAR_TRIV, 1)], [(n + 1, n)])
    # 2(n-m)+1 > n for m = 1: bound cannot be met
    assert not exponent_filter(psi, standard_pi(n, 1))
    assert exponent_filter(psi, standard_pi(n, n))  # vacuous at m = n


def test_enumerate_packets_worked():
    packets = enumerate_packets_pi(2, 1)
    assert [psi for psi, _ in packets] == [WORKED]
    assert packets[0][1].route == ROUTE_II_A1

    packets = enumerate_packets_pi(2, 2)
    members = {psi for psi, _ in packets}
    assert ROUTE_I_CASE in members and WORKED in members
    routes = {psi: v.route for psi, v in packets}
    assert routes[ROUTE_I_CASE] == ROUTE_I
    assert routes[WORKED] == ROUTE_II_A3

    packets = enumerate_packets_sigma(5, 2)
    members = {psi for psi, _ in packets}
    assert distinguished_parameter_sigma(5, 2) in members
    assert all(
        UnipotentBlock(CHAR_TRIV, 7) in psi.unipotent for psi in members
    )


def test_enumerate_packets_equal_public_filter():
    # the enumerators decide without re-validating; they must keep exactly
    # the parameters, in order and with the routes, that the public
    # deciders keep
    for n in range(1, 10):
        for m in range(0, n + 1):
            chi = inf_char_of_weight(pi_nm(n, m))
            public = [(psi, decide_pi(psi, n, m)) for psi in enumerate_params(chi, n)]
            assert enumerate_packets_pi(n, m) == [(p, v) for p, v in public if v.member]
        for k in range(1, n // 2 + 1):
            chi = inf_char_of_weight(sigma_nk(n, k))
            public = [(psi, decide_sigma(psi, n, k)) for psi in enumerate_params(chi, n)]
            assert enumerate_packets_sigma(n, k) == [
                (p, v) for p, v in public if v.member
            ]
    # spot checks at ranks 11 and 12, where most covers cannot hold a member
    spots = [
        (enumerate_packets_pi, decide_pi, pi_nm, 12, 9),
        (enumerate_packets_pi, decide_pi, pi_nm, 12, 6),
        (enumerate_packets_pi, decide_pi, pi_nm, 11, 11),
        (enumerate_packets_sigma, decide_sigma, sigma_nk, 12, 6),
        (enumerate_packets_sigma, decide_sigma, sigma_nk, 11, 3),
        # where the top-first search special-cases: top 1 shared by THM71_I
        # and THM71_II_A1, TRIVIAL, the THM71_II_A3 top, sigma_{2k,k}
        (enumerate_packets_pi, decide_pi, pi_nm, 10, 10),
        (enumerate_packets_pi, decide_pi, pi_nm, 12, 12),
        (enumerate_packets_pi, decide_pi, pi_nm, 12, 0),
        (enumerate_packets_pi, decide_pi, pi_nm, 11, 7),
        (enumerate_packets_sigma, decide_sigma, sigma_nk, 10, 5),
    ]
    for enumerate_packets, decide, weight, n, value in spots:
        chi = inf_char_of_weight(weight(n, value))
        public = [(psi, decide(psi, n, value)) for psi in enumerate_params(chi, n)]
        assert enumerate_packets(n, value) == [(p, v) for p, v in public if v.member]


def _table_route(routes, psi):
    """The first route of the table whose shape psi has, or None."""
    for route in routes:
        if route.char is None:  # one R[1] and pairwise disjoint segments
            segments = sorted((b.bottom, b.top) for b in psi.discrete)
            if [b.dim for b in psi.unipotent] == [1] and all(
                high < low for (_, high), (low, _) in zip(segments, segments[1:])
            ):
                return route
        elif a_psi_u(psi) == route.top and UnipotentBlock(route.char, route.top) in psi.unipotent:
            return route
    return None


def _modules(max_n):
    """Every pi_n(m) and sigma_{n,k} at ranks 1..max_n, from ``module_of``."""
    for n in range(1, max_n + 1):
        for m in range(0, n + 1):
            yield module_of("pi", n, m)
        for k in range(1, n // 2 + 1):
            yield module_of("sigma", n, k)


def test_route_table_pins_the_deciders():
    # the table both builds members and decides: on every parameter with the
    # module's character, the decider core returns the very route object an
    # independent reading of the table finds first, or None with it
    for module in _modules(9):
        routes = _routes(module)
        chi = InfinitesimalCharacter(module.inf_char())
        for psi in enumerate_params(chi, module.n):
            route = _table_route(routes, psi)
            assert _decide_core(psi, module) is route, (module, str(psi))


def test_every_route_admits_a_member():
    # a row of the table that no enumerated member takes would decide
    # nothing and build nothing, and no other test would notice
    for module in _modules(9):
        routes = _routes(module)
        assert all(route.module == module for route in routes)
        chi = InfinitesimalCharacter(module.inf_char())
        taken = {_table_route(routes, psi) for psi in enumerate_params(chi, module.n)}
        assert taken - {None} == set(routes), module
        admitted = {psi._route for psi, _ in _enumerate_packets(module, 12)}
        assert admitted == set(routes), module


def test_thm71_i_members_are_interval_compositions():
    # with 2m > n+1 the THM71_I members of pi_n(m) are one R[1] block, one
    # discrete block on [-(n-m), tau] for tau in n-m+1..m-1, and a
    # composition of tau+1..m-1 into consecutive segments
    for n in range(1, 11):
        for m in range(1, n + 1):
            if 2 * m <= n + 1:
                continue
            expected = set()
            for tau in range(n - m + 1, m):
                gaps = m - 1 - tau - 1  # cut points inside tau+1..m-1
                for mask in range(2 ** max(gaps, 0)):
                    segments, low = [], tau + 1
                    for high in range(tau + 1, m):
                        if high == m - 1 or mask >> (high - tau - 1) & 1:
                            segments.append((low + high, high - low + 1))
                            low = high + 1
                    disc = segments + [(tau - (n - m), tau + (n - m) + 1)]
                    parity = sum(a % 2 for _, a in disc) % 2
                    expected.add(P(n, [(parity, 1)], disc))
            assert len(expected) == 2 ** (2 * m - n - 2), (n, m)
            chi = inf_char_of_weight(pi_nm(n, m))
            module = module_of("pi", n, m)
            thm71_i = _routes(module)[0]
            assert thm71_i.verdict.route == ROUTE_I
            decided = {
                psi for psi in enumerate_params(chi, n)
                if _decide_core(psi, module) is thm71_i
            }
            assert decided == expected, (n, m)
            enumerated = {psi for psi, v in enumerate_packets_pi(n, m) if v.route == ROUTE_I}
            assert enumerated == expected, (n, m)


def test_enumeration_cap():
    # the top-first search keeps the rank checks of the full one
    with pytest.raises(RankBoundError):
        enumerate_packets_pi(13, 3)
    with pytest.raises(RankBoundError):
        enumerate_packets_sigma(13, 2)
    packets = enumerate_packets_pi(13, 3, max_rank=13)
    assert packets
    assert all(decide_pi(psi, 13, 3) == verdict for psi, verdict in packets)


def test_decide_regular():
    pos = (5, 2, 1)
    chi = InfinitesimalCharacter(pos + tuple(-x for x in pos) + (0,))
    params = enumerate_params(chi, 3)
    assert params, "regular character admits parameters"
    for psi in params:
        assert len(psi.unipotent) == 1
        for a in range(0, 3):  # a_max = 2
            if a > 2:
                continue
            assert decide_regular(psi, a) == (psi.unipotent[0].dim == 2 * a + 1)
    with pytest.raises(ValueError):
        decide_regular(params[0], 3)
    with pytest.raises(ValueError):
        decide_regular(WORKED, 0)  # non-regular character


def test_multiplicity_one_for_members():
    for n in range(1, 6):
        for m in range(0, n + 1):
            for _, verdict in enumerate_packets_pi(n, m):
                assert verdict.multiplicity == 1


def test_small_m_members_all_fire_exact_block_route():
    # with 2m <= n+1 the disjoint-segment and shifted-block routes are
    # unavailable, so every member carries the exact big block
    for n in range(1, 7):
        for m in range(1, n + 1):
            if 2 * m > n + 1:
                continue
            for psi, verdict in enumerate_packets_pi(n, m):
                assert verdict.route == ROUTE_II_A1, (n, m, str(psi))
    # the trivial representation's parameter also has the exact-block shape
    for n in range(1, 5):
        (psi, verdict), = enumerate_packets_pi(n, 0)
        assert verdict.route == ROUTE_TRIVIAL
        assert psi.unipotent == (UnipotentBlock(CHAR_TRIV, 2 * n + 1),)
