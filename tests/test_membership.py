import collections
import itertools

import pytest

from sympacket.membership import (
    ROUTE_I,
    ROUTE_II_A1,
    ROUTE_II_A3,
    ROUTE_SIGMA,
    ROUTE_TRIVIAL,
    MembershipVerdict,
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
    MAX_ENUMERATION_RANK,
    ArthurParameter,
    DiscreteBlock,
    RankBoundError,
    UnipotentBlock,
    a_psi_u,
    enumerate_params,
    validate,
)
from sympacket.characters import _rho_core
from sympacket.langlands import exponent_filter, standard_pi
from sympacket.weights import (
    InfinitesimalCharacter,
    Module,
    _inf_char_entries,
    inf_char_of_weight,
    module_of,
    pi_nm,
    sigma_nk,
)

from oracles import (
    decide_core_by_sums,
    decide_sigma_recursive,
    segments_pairwise_disjoint_by_pairs,
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


def test_decide_unipotent_refuses_another_rank():
    with pytest.raises(ValueError, match="rank does not match"):
        decide_unipotent(WORKED, 3)


def test_a_non_member_verdict_has_multiplicity_zero():
    assert MembershipVerdict(False, None, 0).multiplicity == 0
    with pytest.raises(ValueError, match="non-members have multiplicity 0"):
        MembershipVerdict(False, None, 1)


def test_peel_step_cases():
    psi = P(3, [(CHAR_TRIV, 3)], [(1, 2)])
    step = peel_step(psi, 3, 2)
    assert step.index == 0
    assert (step.n, step.m) == (1, 0)
    assert step.parameter == P(1, [(CHAR_TRIV, 3)])

    assert peel_step(P(2, [(CHAR_TRIV, 5)]), 2, 1) is None

    reject = P(2, [(CHAR_TRIV, 1), (CHAR_TRIV, 1), (CHAR_SGN, 1)], [(2, 1)])
    assert peel_step(reject, 2, 1) == "REJECT"


def test_peel_consistency_on_enumeration(ranks_1_to_9):
    # membership before a strip with equality matches membership after
    for n in range(1, 6):
        for m in range(0, n + 1):
            for psi in ranks_1_to_9["pi", n, m].params:
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


def test_recursive_oracle_agrees_small(ranks_1_to_9):
    for n in range(1, 6):
        for m in range(0, n + 1):
            for psi in ranks_1_to_9["pi", n, m].params:
                assert decide_pi(psi, n, m).member == decide_pi_recursive(psi, n, m)


def test_sigma_recursive_oracle_agrees(ranks_1_to_9):
    # every parameter of ranks 1-9: those of a sigma_{n,k} asked about it,
    # sigma_{2k,k} = pi_{2k}(k+1) included, and every one about sigma_{n,1}
    # (pi_n(1) shares its character; the others differ in it)
    asked = members = 0
    for (family, n, value), found in ranks_1_to_9.items():
        ks = {value} if family == "sigma" else {1} if n >= 2 else set()
        for k in ks:
            for psi in found.params:
                member = decide_sigma(psi, n, k).member
                assert member == decide_sigma_recursive(psi, n, k), (n, k, str(psi))
                asked += 1
                members += member
    assert asked > 10_000 and members > 150, (asked, members)


def test_sigma_recursive_oracle_strips_to_the_trivial_module():
    # the distinguished parameter sgn^k ⊠ R[2(n-k)+1] + δ_{k-1} ⊠ R[k] strips
    # to triv ⊠ R[2(n-k)+1], the trivial module pi_{n-k}(0); a block whose
    # segment ends above k-1 is refused
    psi = distinguished_parameter_sigma(7, 3)
    assert decide_sigma(psi, 7, 3).route == ROUTE_SIGMA
    assert decide_sigma_recursive(psi, 7, 3)
    high = P(3, [(CHAR_SGN, 1)], [(2, 3)])  # R[1] + [0, 2] and its mirror
    assert not decide_sigma(high, 3, 1).member and not decide_sigma_recursive(high, 3, 1)


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


def test_enumerate_packets_equal_public_filter(ranks_1_to_9):
    # the enumerators decide without re-validating; they must keep exactly
    # the parameters, in order and with the routes, that the public
    # deciders keep
    decide = {"pi": decide_pi, "sigma": decide_sigma}
    for (family, n, value), found in ranks_1_to_9.items():
        public = [(psi, decide[family](psi, n, value)) for psi in found.params]
        assert list(found.members) == [(p, v) for p, v in public if v.member]
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


def test_route_table_pins_the_deciders(ranks_1_to_9):
    # the table both builds members and decides: on every parameter with the
    # module's character, the decider core returns the very route object an
    # independent reading of the table finds first, or None with it
    for module in _modules(9):
        routes = _routes(module)
        for psi in ranks_1_to_9[module].params:
            route = _table_route(routes, psi)
            assert _decide_core(psi, module) is route, (module, str(psi))


def test_decide_core_reads_agree_with_the_sums(ranks_1_to_9):
    # _decide_core reads the top off the first block and THM71_I's one R[1]
    # off the block count, as canonical order allows: on every enumerated
    # parameter, asked about every module of its rank with its character
    # (pi_n(m) and pi_n(n+1-m) share one), it returns the oracle's route
    sharing = {}
    for module in _modules(9):
        sharing.setdefault((module.n, module.inf_char()), set()).add(module)
    asked = 0
    for modules in sharing.values():
        for psi in ranks_1_to_9[min(modules)].params:
            for module in modules:
                assert _decide_core(psi, module) is decide_core_by_sums(psi, module), (
                    module,
                    str(psi),
                )
                asked += 1
    assert asked


def _unipotent_parameters(n):
    """Every valid purely unipotent parameter of rank n, canonical: each
    partition of 2n+1 into odd parts, (dimension, count) by decreasing
    dimension, with an even number of sign blocks, put after the trivial
    blocks of their dimension."""

    def partitions(total, largest):
        if total == 0:
            yield ()
        for dim in range(min(total, largest), 0, -1):
            if dim % 2:
                for count in range(1, total // dim + 1):
                    for rest in partitions(total - count * dim, dim - 2):
                        yield ((dim, count),) + rest

    for groups in partitions(2 * n + 1, 2 * n + 1):
        for signs in itertools.product(*(range(count + 1) for _, count in groups)):
            if sum(signs) % 2:
                continue
            blocks = []
            for (dim, count), k in zip(groups, signs):
                blocks += [UnipotentBlock(CHAR_TRIV, dim)] * (count - k)
                blocks += [UnipotentBlock(CHAR_SGN, dim)] * k
            yield ArthurParameter(n, tuple(blocks))


def test_decide_unipotent_agrees_with_the_route_table():
    # decide_unipotent's tags, read through module_of, are the modules whose
    # deciders say member; at n = 2k it may name sigma_{2k,k} alone for
    # pi_{2k}(k+1), the same module
    checked = named_by_sigma = 0
    for n in range(1, 10):
        asked = [("pi", m) for m in range(n + 1)]
        asked += [("sigma", k) for k in range(1, n // 2 + 1)]
        for psi in _unipotent_parameters(n):
            assert validate(psi) == [] and psi == psi.canonical(), str(psi)
            tags = decide_unipotent(psi, n)
            members = {
                module_of(family, n, value)
                for family, value in asked
                if (decide_pi if family == "pi" else decide_sigma)(psi, n, value).member
            }
            assert {module_of(family, n, value) for family, value in tags} == members, str(psi)
            if n % 2 == 0 and ("sigma", n // 2) in tags and ("pi", n // 2 + 1) not in tags:
                named_by_sigma += 1
            checked += 1
    assert checked == 1444
    assert named_by_sigma == 7


def test_every_route_admits_a_member(ranks_1_to_9):
    # a row of the table that no enumerated member takes would decide
    # nothing and build nothing, and no other test would notice
    for module in _modules(9):
        routes = _routes(module)
        assert all(route.module == module for route in routes)
        taken = {_table_route(routes, psi) for psi in ranks_1_to_9[module].params}
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


def test_decide_regular_refuses_an_index_that_is_not_an_int():
    # delta_5 ⊠ R[2] + triv ⊠ R[3]: character (3, 2, 1, 0, -1, -2, -3), a_max 2
    psi = P(3, [(CHAR_TRIV, 3)], [(5, 2)])
    assert [decide_regular(psi, a) for a in range(3)] == [False, True, False]
    for a in (True, False, 1.0, 1.5, "1"):
        with pytest.raises(ValueError, match=f"ladder index must be int, got a={a!r}"):
            decide_regular(psi, a)
    # refused before the range check, and after the character's
    with pytest.raises(ValueError, match="ladder index must be int"):
        decide_regular(psi, 7.0)
    with pytest.raises(ValueError, match="not regular"):
        decide_regular(WORKED, 1.0)


def all_modules(max_n):
    """Every module ``module_of`` returns at ranks 0..max_n, sigma_{2k,k}
    (which is pi_{2k}(k+1)) included."""
    for n in range(max_n + 1):
        for m in range(n + 1):
            yield module_of("pi", n, m)
        for k in range(1, n // 2 + 1):
            yield module_of("sigma", n, k)


def test_module_character_memo_is_the_definition():
    # Module.inf_char, which the enumerate-* reports call with no memo in
    # between, is the character of the module's weight
    for module in all_modules(12):
        assert module.inf_char() == _inf_char_entries(module.weight()), module
    for n in range(1, 13):
        for family, weight, values in (
            ("pi", pi_nm, range(n + 1)),
            ("sigma", sigma_nk, range(1, n // 2 + 1)),
        ):
            for value in values:
                module = module_of(family, n, value)
                assert module.inf_char() == inf_char_of_weight(weight(n, value)).entries, module


def test_module_character_memo_leaves_the_definition_uncached():
    # a hand-built module with a float value equals and hashes like pi_3(1),
    # but its own inf_char() still refuses it once pi_3(1) is in the route memo
    assert decide_pi(P(3, [(CHAR_SGN, 5), (CHAR_TRIV, 1), (CHAR_SGN, 1)]), 3, 1).member
    hits = _routes.cache_info().hits
    _routes(module_of("pi", 3, 1))
    assert _routes.cache_info().hits == hits + 1  # pi_3(1) is kept
    hand_built = Module("pi", 3.0, 1)
    assert hand_built == module_of("pi", 3, 1) and hash(hand_built) == hash(module_of("pi", 3, 1))
    with pytest.raises(TypeError):
        hand_built.inf_char()


def test_route_table_memo_is_bounded():
    assert _routes.cache_info().maxsize == 256
    asked = list(all_modules(30))
    for module in asked:
        _routes(module)
    assert len(asked) > 256
    assert _routes.cache_info().currsize == 256


def test_user_built_question_above_the_enumeration_cap():
    # rank 40, past MAX_ENUMERATION_RANK: the closed-form segments of the
    # module test the character, and the route table decides as at small
    # rank
    n = 40
    trivial = P(n, [(CHAR_TRIV, 2 * n + 1)])
    assert decide_pi(trivial, n, 0).route == ROUTE_TRIVIAL
    assert not decide_pi(trivial, n, 1).member
    disjoint = P(n, [(CHAR_TRIV, 1)], [(19, 40)])  # R[1] + [-10, 29]
    assert validate(disjoint) == []
    assert decide_pi(disjoint, n, 30).route == ROUTE_I
    assert not decide_pi(disjoint, n, 29).member
    near = distinguished_parameter_sigma(n, 5)
    assert decide_sigma(near, n, 5).route == ROUTE_SIGMA
    assert not decide_sigma(near, n, 4).member
    for psi, m in ((trivial, 0), (trivial, 1), (disjoint, 30), (disjoint, 29)):
        assert decide_pi(psi, n, m).member == decide_pi_recursive(psi, n, m)
    assert module_of("pi", n, 30).inf_char() == _inf_char_entries((30,) * n)


def test_multiplicity_one_for_members(ranks_1_to_9):
    for n in range(1, 6):
        for m in range(0, n + 1):
            for _, verdict in ranks_1_to_9["pi", n, m].members:
                assert verdict.multiplicity == 1


def _fitting_routes(module, psi):
    """Every route of ``_routes(module)`` whose shape psi has: a copy of
    ``_decide_core``'s shape test that does not stop at the first match."""
    unipotent = psi.unipotent
    top = unipotent[0].dim
    return [
        route
        for route in _routes(module)
        if (
            top == 1 and len(unipotent) == 1 and segments_pairwise_disjoint_by_pairs(psi)
            if route.char is None
            else top == route.top and (route.char, top) in unipotent
        )
    ]


def test_each_member_fits_one_route_but_the_m_equal_n_overlap(ranks_1_to_9):
    # multiplicity one as a property of the route table, not of the constant
    # in the verdicts: a parameter fits at most one route's shape, except at
    # m = n, where one R[1] with disjoint segments fits THM71_I and
    # THM71_II_A1, and both routes give it the same characters; the decider
    # core takes the first route that fits.  Every parameter at ranks 1-9,
    # then every member at ranks 1-12, freshly enumerated.
    def fits(module, psi):
        routes = _fitting_routes(module, psi)
        assert _decide_core(psi, module) is (routes[0] if routes else None), (module, str(psi))
        if len(routes) > 1:
            assert module.family == "pi" and module.value == module.n, (module, str(psi))
            assert [r.verdict.route for r in routes] == [ROUTE_I, ROUTE_II_A1], str(psi)
            for delta in (1, -1):
                chars = [_rho_core(psi, delta, route) for route in routes]
                assert len({(c.blocks, c.signs, c.flags) for c in chars}) == 1, str(psi)
        return routes

    modules = list(dict.fromkeys(_modules(MAX_ENUMERATION_RANK)))
    for module in modules:
        if module.n <= 9:
            for psi in ranks_1_to_9[module].params:
                fits(module, psi)
    counts = collections.Counter()
    for module in modules:
        for psi, _ in _enumerate_packets(module):
            routes = fits(module, psi)
            assert routes and psi._route is routes[0], (module, str(psi))
            counts[len(routes)] += 1
    assert counts == {1: 12_764, 2: 2_047}


def test_small_m_members_all_fire_exact_block_route(ranks_1_to_9):
    # with 2m <= n+1 the disjoint-segment and shifted-block routes are
    # unavailable, so every member carries the exact big block
    for n in range(1, 7):
        for m in range(1, n + 1):
            if 2 * m > n + 1:
                continue
            for psi, verdict in ranks_1_to_9["pi", n, m].members:
                assert verdict.route == ROUTE_II_A1, (n, m, str(psi))
    # the trivial representation's parameter also has the exact-block shape
    for n in range(1, 5):
        (psi, verdict), = ranks_1_to_9["pi", n, 0].members
        assert verdict.route == ROUTE_TRIVIAL
        assert psi.unipotent == (UnipotentBlock(CHAR_TRIV, 2 * n + 1),)
