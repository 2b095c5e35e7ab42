import copy
import itertools
import pickle
import sys
from collections import Counter

import pytest

from sympacket.characters import (
    TABLE_COLUMNS,
    TABLE_FORMS,
    PacketCharacter,
    VANISHING,
    char_equivalent,
    component_group,
    rho_pi_general,
    rho_sigma_general,
    rho_theta,
    rho_theta_parameter,
    rho_unipotent_table,
    table_row,
    _discrete_fold,
    _discrete_signs,
    _rho_core,
    _unipotent_signs,
)
from sympacket import membership
from sympacket.membership import (
    distinguished_parameter_sigma,
    enumerate_packets_pi,
    enumerate_packets_sigma,
    ROUTE_II_A1,
    ROUTE_II_A3,
    ROUTE_SIGMA,
    _decide_route,
    _routes,
)
from sympacket.params import (
    CHAR_SGN,
    CHAR_TRIV,
    MAX_ENUMERATION_RANK,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    _discrete_block,
    _unip_key,
)
from sympacket.weights import module_of, pi_nm

from oracles import discrete_signs_by_block, unipotent_tail_by_member


def P(n, unip, disc=()):
    return ArthurParameter(
        n,
        tuple(UnipotentBlock(c, d) for c, d in unip),
        tuple(DiscreteBlock(t, a) for t, a in disc),
    ).canonical()


WORKED = P(2, [(CHAR_SGN, 3), (CHAR_TRIV, 1), (CHAR_SGN, 1)])


def test_component_group_orders():
    assert component_group(WORKED).order == 4
    repeated = P(3, [(CHAR_TRIV, 3), (CHAR_TRIV, 3), (CHAR_TRIV, 1)])
    assert component_group(repeated).order == 2
    triple = P(1, [(CHAR_TRIV, 1), (CHAR_TRIV, 1), (CHAR_TRIV, 1)])
    assert component_group(triple).order == 1
    assert component_group(triple).relation == (1,)


def test_char_equivalent_global_flip():
    blocks = WORKED.unipotent
    c1 = PacketCharacter(1, blocks, (1, -1, -1))
    c2 = PacketCharacter(1, blocks, (-1, 1, 1))
    c3 = PacketCharacter(1, blocks, (1, 1, 1))
    assert char_equivalent(c1, c2)
    assert not char_equivalent(c3, c1)
    assert char_equivalent(c1, c1)


def test_char_equivalent_repeated_blocks():
    b = UnipotentBlock(CHAR_TRIV, 3)
    c = UnipotentBlock(CHAR_TRIV, 1)
    blocks = (b, b, c)
    x = PacketCharacter(1, blocks, (1, 1, 1))
    y = PacketCharacter(1, blocks, (-1, -1, 1))
    z = PacketCharacter(1, blocks, (1, 1, -1))
    # only the odd-multiplicity block (c) flips under the duality relation
    assert not char_equivalent(x, y)
    assert char_equivalent(x, z)


def test_char_equivalent_wrong_support():
    c1 = PacketCharacter(1, WORKED.unipotent, (1, 1, 1))
    c2 = PacketCharacter(1, WORKED.unipotent[:1], (1,))
    with pytest.raises(ValueError):
        char_equivalent(c1, c2)


def test_char_equivalent_against_a_parameter_and_on_split_signs():
    # checked against a parameter, the blocks must be its own
    c1 = PacketCharacter(1, WORKED.unipotent, (1, 1, 1))
    c2 = PacketCharacter(1, WORKED.unipotent[:1], (1,))
    assert char_equivalent(c1, c1, WORKED)
    with pytest.raises(ValueError, match="do not list the parameter's blocks"):
        char_equivalent(c2, c2, WORKED)
    # equal blocks with unequal signs are no character
    b = UnipotentBlock(CHAR_TRIV, 1)
    split = PacketCharacter(1, (b, b), (1, -1))
    with pytest.raises(ValueError, match="not constant on equal blocks"):
        char_equivalent(split, split)


def test_rho_theta_examples():
    assert rho_theta(4, 2, 0, 0, 1, "O(0,2m)") == (1, -1, -1)
    for delta in (1, -1):
        for side in ("O(0,2m)", "O(2m,0)"):
            assert rho_theta(8, 4, 0, 0, delta, side) == (1, 1, 1)
    assert rho_theta(2, 1, 1, 1, 1, "O(2m,0)") == (-1, -1, 1)


def test_rho_theta_product_and_preconditions():
    for n, m, tp, tau, delta, side in itertools.product(
        range(1, 8), range(1, 4), (0, 1), (0, 1), (1, -1), ("O(0,2m)", "O(2m,0)")
    ):
        if n < 2 * m - 1 + tau:
            with pytest.raises(ValueError):
                rho_theta(n, m, tp, tau, delta, side)
            continue
        e1, e2, e3 = rho_theta(n, m, tp, tau, delta, side)
        assert e1 * e2 * e3 == 1


def test_theta_tables_refuse_an_unknown_side_or_form():
    with pytest.raises(ValueError, match="side must be"):
        rho_theta(3, 1, 0, 0, 1, "O(2m)")
    with pytest.raises(ValueError, match="form must be"):
        rho_unipotent_table("third", 3, 1, "pi", 1)


def test_theta_tables_refuse_what_is_not_an_int():
    # a float, a string or a bool rank, m or tau' is refused, not computed with
    with pytest.raises(ValueError, match="rank and m must be int, got n=3, m=1.0"):
        rho_unipotent_table("first", 3, 1.0, "pi", 1)
    with pytest.raises(ValueError, match="rank and m must be int, got n='3', m=1"):
        rho_unipotent_table("first", "3", 1, "pi", 1)
    with pytest.raises(ValueError, match="rank and m must be int, got n=True, m=1"):
        rho_unipotent_table("second", True, 1, "sigma", 1)
    with pytest.raises(ValueError, match="need 1 <= m <= n"):
        rho_unipotent_table("second", 3, 4, "sigma", 1)
    for n, m, tau_prime, refusal in (
        (3, 1.0, 0, "rank and m must be int"),
        (3.0, 1, 0, "rank and m must be int"),
        (3, 5, 0, "need 1 <= m <= n"),
        (3, 0, 0, "need 1 <= m <= n"),
        (3, 1, True, "tau' must be 0 or 1"),
        (3, 1, 2, "tau' must be 0 or 1"),
    ):
        with pytest.raises(ValueError, match=refusal):
            rho_theta_parameter(n, m, tau_prime)
    for tau_prime, tau in ((True, 0), (0, True), (1.0, 0), (0, 0.0), ("1", 0)):
        with pytest.raises(ValueError, match="tau and tau' must be 0 or 1"):
            rho_theta(3, 1, tau_prime, tau, 1, "O(2m,0)")
    for n, m in ((3.0, 1), (3, 1.0), (3, True), ("3", 1)):
        with pytest.raises(ValueError, match="rank and m must be int"):
            rho_theta(n, m, 0, 0, 1, "O(2m,0)")
    # m < 1, and with it a rank below 1, as rho_theta_parameter refuses it
    with pytest.raises(ValueError, match="need 1 <= m <= n"):
        rho_theta(3, -2, 0, 0, 1, "O(2m,0)")
    with pytest.raises(ValueError, match="need 1 <= m <= n"):
        rho_theta(-1, 0, 0, 0, 1, "O(0,2m)")
    for side in ("O(2m,0)", "O(0,2m)"):
        with pytest.raises(ValueError, match="need 1 <= m <= n"):
            rho_theta(3, 0, 0, 0, 1, side)
    with pytest.raises(ValueError, match="rank and value must be int, got n='3', value=1"):
        pi_nm("3", 1)
    with pytest.raises(ValueError, match="rank and value must be int"):
        pi_nm(3.0, 1)
    with pytest.raises(ValueError, match="rank must be positive"):
        pi_nm(0, 0)
    # the ints themselves are answered as before
    assert rho_theta(3, 1, 1, 0, 1, "O(2m,0)") == (1, 1, 1)
    assert rho_unipotent_table("first", 3, 1, "pi", 1).signs == (1, -1, -1)
    assert pi_nm(3, 1).entries == (1, 1, 1)


def test_table_row_matches_blocks_in_any_order():
    # the printed row is found on the parameter's blocks as a multiset (the
    # first form whose blocks are those, by Counter): in canonical order,
    # reversed, or rotated; on neither form's blocks it is None
    forms = (("first", 0), ("second", 1))
    for n, m_table in ((4, 2), (3, 1), (5, 2), (2, 1), (6, 3)):
        for tau_prime in (0, 1):
            blocks = rho_theta_parameter(n, m_table, tau_prime)
            form = next(
                form
                for form, t in forms
                if Counter(rho_theta_parameter(n, m_table, t)) == Counter(blocks)
            )
            for order in (blocks, blocks[::-1], blocks[1:] + blocks[:1]):
                psi = ArthurParameter(n, order)
                found = table_row(psi, "pi_star", m_table, 1)
                assert found == (form, rho_unipotent_table(form, n, m_table, "pi_star", 1))
    psi = P(4, [(CHAR_TRIV, 5), (CHAR_SGN, 3), (CHAR_TRIV, 1)])
    assert table_row(psi, "pi", 2, 1) is None
    # the blocks differ only in multiplicity: a repeated block is not two
    twice = ArthurParameter(4, (UnipotentBlock(0, 1), UnipotentBlock(0, 1), UnipotentBlock(0, 7)))
    assert table_row(twice, "pi", 1, 1) is None


def test_table_row_refuses_a_bad_column_or_token_on_any_parameter():
    # refused as rho_unipotent_table refuses them, whether or not the
    # parameter's blocks are those of a printed form
    matching = ArthurParameter(4, rho_theta_parameter(4, 2, 0))
    other = ArthurParameter(2, (UnipotentBlock(0, 5),))
    assert table_row(matching, "pi", 2, 1) is not None
    assert table_row(other, "pi", 2, 1) is None
    for psi in (matching, other):
        with pytest.raises(ValueError, match="which must be one of"):
            table_row(psi, "bogus", 2, 1)
        for delta in (5, 1.0, True, 0):
            with pytest.raises(ValueError, match="delta must be"):
                table_row(psi, "pi", 2, delta)


def test_rho_unipotent_table_examples():
    assert rho_unipotent_table("first", 4, 2, "pi", 1).signs == (1, -1, -1)
    assert rho_unipotent_table("first", 4, 2, "pi_star", 1).signs == (1, -1, -1)
    assert rho_unipotent_table("second", 3, 1, "pi", 1).signs == (1, -1, -1)


def test_rho_unipotent_table_blocks_and_sigma_product():
    row = rho_unipotent_table("first", 4, 2, "sigma", 1)
    assert row.blocks == rho_theta_parameter(4, 2, 0)
    assert [b.dim for b in row.blocks] == [1, 3, 5]
    # the printed sigma rows carry listed product -1: stored verbatim
    assert row.product() == -1


def test_rho_unipotent_table_vanishing_flag():
    # equal second and third blocks with the determinant lift: flagged
    row = rho_unipotent_table("first", 3, 2, "sigma", 1)
    assert row.blocks[1] == row.blocks[2]
    assert VANISHING in row.flags
    ok = rho_unipotent_table("first", 3, 2, "pi", 1)
    assert not ok.flags


def test_rho_pi_general_single_unipotent_block():
    psi = P(3, [(CHAR_TRIV, 3)], [(1, 2)])
    for delta in (1, -1):
        char = rho_pi_general(psi, 3, 2, delta)
        signs = dict(zip(char.blocks, char.signs))
        assert signs[DiscreteBlock(1, 2)] == -1
        assert signs[UnipotentBlock(CHAR_TRIV, 3)] == -1  # product normalization
        assert char.product() == 1
        assert not char.flags


def test_rho_pi_general_matches_table_on_unipotent_members():
    psi = WORKED
    for delta in (1, -1):
        char = rho_pi_general(psi, 2, 1, delta)
        row = rho_unipotent_table("second", 2, 1, "pi_star", delta)
        assert char_equivalent(char, row)


def test_rho_pi_general_requires_membership():
    psi = P(2, [(CHAR_TRIV, 3), (CHAR_TRIV, 1), (CHAR_TRIV, 1)])
    with pytest.raises(ValueError):
        rho_pi_general(psi, 2, 1, 1)


def test_rho_pi_general_even_blocks_delta_independent():
    psi = P(3, [(CHAR_TRIV, 3)], [(1, 2)])
    c1 = rho_pi_general(psi, 3, 2, 1)
    c2 = rho_pi_general(psi, 3, 2, -1)
    assert c1.signs == c2.signs  # the only discrete block has even a


def test_rho_pi_general_odd_block_depends_on_delta():
    psi = P(2, [(CHAR_TRIV, 1), (CHAR_TRIV, 1), (CHAR_SGN, 1)], [(2, 1)])
    c1 = dict(zip(*[rho_pi_general(psi, 2, 2, 1).blocks, rho_pi_general(psi, 2, 2, 1).signs]))
    c2 = dict(zip(*[rho_pi_general(psi, 2, 2, -1).blocks, rho_pi_general(psi, 2, 2, -1).signs]))
    blk = DiscreteBlock(2, 1)
    assert c1[blk] != c2[blk]


def test_rho_sigma_general_distinguished_parameter():
    psi = distinguished_parameter_sigma(5, 2)
    char = rho_sigma_general(psi, 5, 2, 1)
    signs = dict(zip(char.blocks, char.signs))
    assert signs[DiscreteBlock(1, 2)] == -1
    assert char.product() == 1


def test_rho_sigma_general_boundary_delegates():
    psi = P(4, [(CHAR_TRIV, 5)], [(1, 2)])
    assert rho_sigma_general(psi, 4, 2, 1) == rho_pi_general(psi, 4, 3, 1)


def test_members_get_consistent_characters(ranks_1_to_9):
    # every member's character is constant on equal blocks (no VANISHING)
    for n in range(1, 7):
        for m in range(1, n + 1):
            for psi, _ in ranks_1_to_9["pi", n, m].members:
                for delta in (1, -1):
                    char = rho_pi_general(psi, n, m, delta)
                    assert not char.flags
                    assert char.sign_map() is not None


def test_public_constructor_checks_its_character():
    blocks = WORKED.unipotent
    with pytest.raises(ValueError, match="whittaker token must be"):
        PacketCharacter(0, blocks, (1, 1, 1))
    with pytest.raises(ValueError, match="one sign per block"):
        PacketCharacter(1, blocks, (1, 1))
    with pytest.raises(ValueError, match="signs must be"):
        PacketCharacter(1, blocks, (1, 0, 1))


def test_public_constructor_stores_tuples():
    # lists are stored as tuples, as ArthurParameter stores its blocks, so a
    # character built from lists hashes, and equals its tuple-built twin
    built = PacketCharacter(1, [UnipotentBlock(0, 1)], [1], ["x"])
    twin = PacketCharacter(1, (UnipotentBlock(0, 1),), (1,), ("x",))
    assert type(built.blocks) is type(built.signs) is type(built.flags) is tuple
    assert built == twin and hash(built) == hash(twin)
    assert len({built, twin}) == 1
    for again in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert again == twin and hash(again) == hash(twin)
        assert type(again.blocks) is type(again.signs) is tuple


def test_public_constructor_runs_in_one_frame():
    # its checks are made inline, with no __post_init__ or generator frame,
    # so a printed table row costs little more than the recipe's unchecked
    # build
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        char = PacketCharacter(1, WORKED.unipotent, (1, -1, -1))
    finally:
        sys.setprofile(None)
    assert calls == ["__init__"]
    assert (char.whittaker, char.signs, char.flags) == (1, (1, -1, -1), ())


def test_tokens_and_signs_are_the_int_plus_or_minus_one():
    # True and 1.0 compare equal to 1, and -1.0 to -1, but none is a token
    # or a sign: refused everywhere one is taken, for a packet member and
    # its user-built copy alike, never carried into a character
    psi = enumerate_packets_pi(5, 3)[0][0]
    copy = ArthurParameter(psi.n, psi.unipotent, psi.discrete)
    blocks = WORKED.unipotent
    for bad in (True, False, 1.0, -1.0, 0):
        with pytest.raises(ValueError, match="whittaker token must be"):
            PacketCharacter(bad, blocks, (1, 1, 1))
        with pytest.raises(ValueError, match="signs must be"):
            PacketCharacter(1, blocks, (1, bad, 1))
        with pytest.raises(ValueError, match="delta must be"):
            rho_theta(3, 1, 0, 0, bad, "O(2m,0)")
        with pytest.raises(ValueError, match="delta must be"):
            rho_unipotent_table("first", 3, 1, "pi", bad)
        for p in (psi, copy):
            with pytest.raises(ValueError, match="delta must be"):
                rho_pi_general(p, 5, 3, bad)
    for p in (psi, copy):
        char = rho_pi_general(p, 5, 3, 1)
        assert type(char.whittaker) is int and all(type(s) is int for s in char.signs)


def test_vanishing_on_crafted_signs():
    # no member at ranks <= 9 is flagged (below), so the recipe's inline
    # comparisons are run here on crafted parameters through the routes of
    # every e2 e3 rule: equal neighbouring discrete blocks, and three
    # unipotent slots of which two or three are equal.  The flag must be
    # what sign_map says of the blocks and signs the recipe gives.
    odd, even = DiscreteBlock(2, 3), DiscreteBlock(1, 2)
    discretes = [(), (odd,), (even, even), (odd, odd), (even, odd, odd)]
    shapes = []
    for module in (module_of("pi", 5, 4), module_of("sigma", 6, 2)):
        for route in _routes(module):
            if route.char is None:  # THM71_I: one unipotent slot
                shapes.append((module, route, [(CHAR_TRIV, 1)]))
                continue
            key = (route.char, route.top)
            pool = sorted({key} | set(itertools.product((CHAR_TRIV, CHAR_SGN), (1, 3))))
            shapes += [
                (module, route, unip)
                for unip in itertools.combinations_with_replacement(pool, 3)
                if key in unip
            ]
    causes = set()
    for (module, route, unip), disc, delta in itertools.product(shapes, discretes, (1, -1)):
        psi = P(module.n, unip, disc)
        char = _rho_core(psi, delta, route)
        checked = PacketCharacter(delta, char.blocks, char.signs)
        assert (VANISHING in char.flags) == (checked.sign_map() is None), (char, route)
        # the pass that keeps the other token's character gives both
        # characters of the one-token passes, flags included
        assert _rho_core(psi, delta, route, True) == char
        assert psi._kept_char == _rho_core(psi, -delta, route)
        # the pairs of equal listed blocks with unequal signs: discrete
        # neighbours, or two of the unipotent slots
        found = {
            "discrete" if j < len(disc) else (i - len(disc), j - len(disc))
            for (i, b), (j, c) in itertools.combinations(enumerate(char.blocks), 2)
            if b == c and char.signs[i] != char.signs[j]
        }
        if len(found) == 1:
            causes |= found
    # each comparison is, on some parameter, the only one that flags it
    assert causes == {"discrete", (0, 1), (0, 2), (1, 2)}


def test_vanishing_flag_agrees_with_sign_map(ranks_1_to_9):
    # the flag is what sign_map of the same signs says, on every member's
    # character at ranks <= 9 (none is flagged) and on every printed row
    def agrees(char):
        checked = PacketCharacter(char.whittaker, char.blocks, char.signs)
        assert (VANISHING in char.flags) == (checked.sign_map() is None)
        return VANISHING in char.flags

    rho = {"pi": rho_pi_general, "sigma": rho_sigma_general}
    members = 0
    for (family, n, value), found in ranks_1_to_9.items():
        for psi, _ in found.members:
            for delta in (1, -1):
                assert not agrees(rho[family](psi, n, value, delta))
                members += 1
    assert members
    flagged = [
        agrees(rho_unipotent_table(form, n, m, which, delta))
        for form in TABLE_FORMS
        for n in range(1, 8)
        for m in range(1, n + 1)
        for which in TABLE_COLUMNS
        for delta in (1, -1)
    ]
    assert any(flagged) and not all(flagged)


RHO = {"pi": rho_pi_general, "sigma": rho_sigma_general}
ENUMERATE = {"pi": enumerate_packets_pi, "sigma": enumerate_packets_sigma}
SIGN_INPUTS = list(itertools.product((1, -1), repeat=3))  # token, final token, product


def members_up_to(max_n):
    """(family, n, value, members) of every pi_n(m) and sigma_{n,k} up to
    rank max_n, freshly enumerated."""
    for n in range(1, max_n + 1):
        for family, values in (("pi", range(n + 1)), ("sigma", range(1, n // 2 + 1))):
            for value in values:
                yield family, n, value, [psi for psi, _ in ENUMERATE[family](n, value)]


def fresh_copy(psi):
    """A user-built copy of psi whose blocks are new objects."""
    return ArthurParameter(
        psi.n,
        tuple(UnipotentBlock(*b) for b in psi.unipotent),
        tuple(DiscreteBlock(*b) for b in psi.discrete),
    )


def assert_table_is_the_rule(route, unipotent, held, table):
    """Each of the eight entries of the unipotent table is what the
    per-member tail gives (``oracles.unipotent_tail_by_member``), and the
    table holds the tail's slots, as unipotent blocks."""
    assert len(table) == len(SIGN_INPUTS)
    assert all(type(b) is UnipotentBlock for b in held)
    for whittaker, token, product in SIGN_INPUTS:
        slots, signs, flagged = unipotent_tail_by_member(
            route, unipotent, whittaker, token, product
        )
        assert held == slots, (route, unipotent)
        entry = table[4 * whittaker + 2 * token + product]
        assert entry == (signs, (VANISHING,) if flagged else ()), (route, unipotent)


def test_unipotent_table_is_the_per_member_rule():
    # every (route, unipotent tuple) of a three-block member at ranks 1-12
    # has the table of the per-member rule
    keys = {}
    for family, n, value, members in members_up_to(MAX_ENUMERATION_RANK):
        for psi in members:
            if len(psi.unipotent) == 3:
                route = _decide_route(psi, family, n, value)[0]
                keys.setdefault((route, psi.unipotent), (family, psi))
    for (route, unipotent), (family, psi) in keys.items():
        held, table = _unipotent_signs(route.char, route.top, route.verdict.route, unipotent)
        assert_table_is_the_rule(route, unipotent, held, table)
        # a character lists its parameter's own discrete block objects and
        # then the table's slot blocks, for a recorded member (asked first,
        # so that it keeps the other token's) and for a user-built copy,
        # whose blocks are equal but new
        n, value = route.module.n, route.module.value
        copy = fresh_copy(psi)
        for p in (psi, psi, copy, copy):
            for delta in (1, -1):
                char = RHO[family](p, n, value, delta)
                assert char.blocks == p.discrete + held
                assert all(b is c for b, c in zip(char.blocks, p.discrete + held))
        assert not any(b is c for b, c in zip(copy.unipotent, psi.unipotent))
    assert len(keys) == 584
    # beyond the cap, with nothing enumerated: every route of a three-block
    # part at ranks 13-24, on every canonical tuple of its big block
    # char ⊠ R[top], a block R[2j+1] with j <= top // 2 and a block R[1],
    # through the unmemoised function, so that the memo is left as it is
    build = _unipotent_signs.__wrapped__
    pairs = set()
    for n in range(MAX_ENUMERATION_RANK + 1, 2 * MAX_ENUMERATION_RANK + 1):
        for family, values in (("pi", range(n + 1)), ("sigma", range(1, n // 2 + 1))):
            for value in values:
                for route in _routes(module_of(family, n, value)):
                    tag = route.verdict.route
                    if tag not in (ROUTE_II_A1, ROUTE_II_A3, ROUTE_SIGMA):
                        continue
                    big = UnipotentBlock(route.char, route.top)
                    for j, c2, c1 in itertools.product(range(route.top // 2 + 1), *[(0, 1)] * 2):
                        blocks = (big, UnipotentBlock(c2, 2 * j + 1), UnipotentBlock(c1, 1))
                        unipotent = tuple(sorted(blocks, key=_unip_key))
                        if (route, unipotent) not in pairs:
                            pairs.add((route, unipotent))
                            held, table = build(route.char, route.top, tag, unipotent)
                            assert_table_is_the_rule(route, unipotent, held, table)
    keys = {(route.char, route.top, route.verdict.route, u) for route, u in pairs}
    assert len(pairs) == 17_408 and len(keys) == 4_918


def recipe_by_block(psi, route, delta):
    """The fields of psi's character for the token delta, from the per-block
    discrete pass and the per-member unipotent tail."""
    signs, product, token, _, vanishing = discrete_signs_by_block(psi.discrete, delta, False)
    if len(psi.unipotent) == 1:
        slots, tail, flagged = psi.unipotent, (product,), False
    else:
        slots, tail, flagged = unipotent_tail_by_member(route, psi.unipotent, delta, token, product)
    flags = (VANISHING,) if vanishing or flagged else ()
    return delta, psi.discrete + slots, signs + tail, flags


def fields(char):
    return char.whittaker, char.blocks, char.signs, char.flags


def shapes_up_to(total):
    """Every tuple of positive a with sum at most ``total``, () included."""
    found = [()]
    for shape in found:  # grows as it is read
        found += [shape + (a,) for a in range(1, total - sum(shape) + 1)]
    return found


def assert_entry_is_the_pass(blocks):
    """The table's entry for a discrete tuple is its fold and, for both
    tokens, the per-block pass: the signs, product and final token, the
    kept signs those of the other token, and the flags VANISHING exactly
    when two equal neighbours got unequal signs."""
    entry = _discrete_signs(blocks)
    assert entry == _discrete_fold(blocks)
    for delta in (1, -1):
        signs, product, token, kept, vanishing = discrete_signs_by_block(blocks, delta, True)
        assert entry[delta] == signs and entry[-delta] == kept, blocks
        assert entry[2 * delta] == signs + (product,)
        assert entry[3 * delta] == 4 * delta + 2 * token + product
        assert entry[0] == ((VANISHING,) if vanishing else ()), blocks


def test_discrete_table_is_the_per_block_pass():
    # every tuple of a with sum at most 12, so every shape of a member's
    # discrete blocks at ranks 1-12, read by a block tuple of that shape
    # with no two blocks equal, and by each tuple with one block made equal
    # to the one before where the a are equal (else only its t changes)
    shapes = shapes_up_to(MAX_ENUMERATION_RANK)
    assert len(shapes) == 4_096
    for shape in shapes:
        # t of the parity a needs, one per block: no two blocks equal
        ts = [2 * j + 1 - a % 2 for j, a in enumerate(shape)]
        assert_entry_is_the_pass(tuple(DiscreteBlock(t, a) for t, a in zip(ts, shape)))
        for i in range(1, len(shape)):
            pair = ts[:i] + [ts[i - 1]] + ts[i + 1 :]  # block i is block i-1 where a is
            assert_entry_is_the_pass(tuple(DiscreteBlock(t, a) for t, a in zip(pair, shape)))


def test_members_share_discrete_entries():
    # every member at ranks 1-12, with the table and the memo of cuts from
    # empty: equal discrete tuples are one object, the cut's, so the members
    # of a cut read one entry object, and a user-built copy with new, equal
    # blocks reads that entry too; each distinct tuple misses once and every
    # other ask hits, so the key is the tuple and no entry was dropped
    _discrete_signs.cache_clear()
    membership._cuts.cache_clear()
    held = {}  # id of a member's discrete tuple: the tuple and its entry
    asks = 0
    for family, n, value, members in members_up_to(MAX_ENUMERATION_RANK):
        for psi in members:
            route = _decide_route(psi, family, n, value)[0]
            for delta in (1, -1):
                _rho_core(psi, delta, route)
            entry = _discrete_signs(psi.discrete)
            assert held.setdefault(id(psi.discrete), (psi.discrete, entry))[1] is entry
            copied = fresh_copy(psi).discrete  # new blocks in a new tuple
            assert copied == psi.discrete and _discrete_signs(copied) is entry
            asks += 4
    distinct = {discrete for discrete, _ in held.values()}
    info = _discrete_signs.cache_info()
    assert len(held) == len(distinct) == info.currsize == info.misses == 7_190
    assert info.hits == asks - len(distinct)


def test_recipe_is_the_per_block_pass_and_the_per_member_tail():
    # every member at ranks 1-9, both tokens, asked with and without
    # keeping the other token's character
    checked = 0
    for family, n, value, members in members_up_to(9):
        for psi in members:
            route = _decide_route(psi, family, n, value)[0]
            for delta in (1, -1):
                expected = recipe_by_block(psi, route, delta)
                other = recipe_by_block(psi, route, -delta)
                assert fields(_rho_core(psi, delta, route)) == expected, psi
                assert fields(_rho_core(psi, delta, route, True)) == expected
                assert fields(psi._kept_char) == other
                checked += 1
    assert checked == 2 * 1_938  # members at ranks 1-9


def long_parameter():
    """A parameter with 13 discrete blocks, one more than any member at the
    enumeration cap has, two of them equal with odd a, and the THM71_I route
    of pi_5(4), through which the recipe is run on it."""
    disc = [(2 * j, 1) for j in range(3, 14)] + [(4, 1), (4, 1)]
    psi = P(13, [(CHAR_TRIV, 1)], disc)
    assert len(psi.discrete) == MAX_ENUMERATION_RANK + 1
    return psi, _routes(module_of("pi", 5, 4))[0]


def test_repeated_discrete_blocks_flag_only_with_odd_a():
    # crafted parameters through the THM71_I route (one unipotent block) and
    # through a route with a three-block unipotent part: a repeated block
    # flags both characters where its a is odd, and not where it is even;
    # equal odd a on unequal blocks never flags
    module = module_of("pi", 5, 4)
    one, exact = _routes(module)[0], _routes(module)[1]
    three = [(exact.char, exact.top), (CHAR_TRIV, 1), (CHAR_SGN, 1)]
    cases = [
        ([(2, 3), (2, 3)], True),
        ([(4, 1), (4, 1)], True),
        ([(1, 2), (1, 2)], False),
        ([(3, 4), (3, 4)], False),
        ([(4, 3), (2, 3)], False),
        ([(6, 1), (4, 1), (4, 1)], True),
        ([(1, 2), (1, 2), (5, 2), (5, 2)], False),
        ([(1, 2), (1, 2), (2, 1), (2, 1)], True),
    ]
    for (disc, flagged), (route, unip) in itertools.product(
        cases, [(one, [(CHAR_TRIV, 1)]), (exact, three)]
    ):
        n = sum(a for _, a in disc) + (len(unip) - 1) * 2
        psi = P(n, unip, disc)
        for delta in (1, -1):
            char = _rho_core(psi, delta, route, True)
            assert fields(char) == recipe_by_block(psi, route, delta)
            assert fields(psi._kept_char) == recipe_by_block(psi, route, -delta)
            assert (VANISHING in char.flags) == (VANISHING in psi._kept_char.flags) == flagged
    # a parameter longer than the bound: the same fold, the same answers
    psi, route = long_parameter()
    for delta in (1, -1):
        char = _rho_core(psi, delta, route, True)
        assert fields(char) == recipe_by_block(psi, route, delta)
        assert fields(psi._kept_char) == recipe_by_block(psi, route, -delta)
        assert char.flags == psi._kept_char.flags == (VANISHING,)


def test_recipe_and_cut_memos_stay_bounded_at_the_cap(monkeypatch):
    # all three memos from empty; then every module at the enumeration cap
    # and below is enumerated, and both characters of every member built
    memo = membership._cuts
    asked = {}  # each call, recursion included

    def recorded(low, high, reach):
        asked[low, high, reach] = found = memo(low, high, reach)
        return found

    _unipotent_signs.cache_clear()
    _discrete_signs.cache_clear()
    memo.cache_clear()
    monkeypatch.setattr(membership, "_cuts", recorded)
    three = 0
    for family, n, value, members in members_up_to(MAX_ENUMERATION_RANK):
        for psi in members:
            for delta in (1, -1):
                RHO[family](psi, n, value, delta)
            three += len(psi.unipotent) == 3
    table = _unipotent_signs.cache_info()
    assert three == 9_762 and table.currsize == table.misses == 276
    assert table.currsize * 3 < table.maxsize
    discretes = _discrete_signs.cache_info()
    assert discretes.currsize == discretes.misses == 7_190 < discretes.maxsize
    # a parameter of more discrete blocks than the bound is kept in no memo
    psi, route = long_parameter()
    for keep in (False, True):
        _rho_core(psi, 1, route, keep)
    assert _discrete_signs.cache_info() == discretes
    info = memo.cache_info()
    # nothing was dropped: the memo holds every key asked for
    assert info.currsize == info.misses == len(asked) < info.maxsize
    held = [cut for found in asked.values() for cut in found]
    assert len(held) <= 8_178  # the bound derived in ``membership._cuts``
    assert all(b is _discrete_block(*b) for cut in held for b in cut)
