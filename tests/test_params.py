import dataclasses
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympacket import params
from sympacket.characters import rho_pi_general
from sympacket.membership import (
    _module_inf_char,
    _parameter_count,
    decide_pi,
    enumerate_packets_pi,
    enumerate_packets_sigma,
)
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
    _all_segment_covers,
    _char_assignments,
    _trusted_params,
)
from sympacket.weights import (
    InfinitesimalCharacter,
    inf_char_of_weight,
    module_of,
    pi_nm,
    sigma_nk,
)

from oracles import (
    brute_force_params,
    checked_inf_char_entries,
    parameter_count_by_walk,
    set_segment_covers,
    valid_inf_char_by_copy,
    validate_by_copy,
)


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


def test_validate_refuses_fields_that_are_not_ints():
    # a float, a string or a bool is not an int, in the rank or in a block:
    # BLOCK_SHAPE alone, and the deciders refuse the parameter rather than
    # call it a member or fail inside
    refused = [
        ArthurParameter(1.0, (UnipotentBlock(CHAR_TRIV, 3),)),
        ArthurParameter(1, (UnipotentBlock(CHAR_TRIV, 3.0),)),
        ArthurParameter(1, (UnipotentBlock("sgn", 3),)),
        ArthurParameter(1, (UnipotentBlock(False, 3),)),
        ArthurParameter(1, (UnipotentBlock(CHAR_TRIV, 1),), (DiscreteBlock(1, 1.0),)),
        ArthurParameter(1, (UnipotentBlock(CHAR_TRIV, 1),), (DiscreteBlock(True, 1),)),
    ]
    for psi in refused:
        assert validate(psi) == ["BLOCK_SHAPE"], repr(psi)
        with pytest.raises(ValueError) as exc:
            decide_pi(psi, 1, 0)
        assert str(exc.value) == f"invalid parameter {psi}: ['BLOCK_SHAPE']"
    assert str(refused[2]) == "'sgn'⊠R[3]"
    assert validate(ArthurParameter(1, (UnipotentBlock(CHAR_TRIV, 3),))) == []


def test_validate_runs_in_one_frame():
    # one loop per block list: no generator, property or helper runs under
    # validate, valid or not
    psi = ArthurParameter(
        12,
        (UnipotentBlock(CHAR_SGN, 5), UnipotentBlock(CHAR_TRIV, 3), UnipotentBlock(CHAR_SGN, 1)),
        (DiscreteBlock(6, 5), DiscreteBlock(4, 3)),
    )
    disordered = ArthurParameter(12, psi.unipotent[::-1], psi.discrete[::-1])
    for user, codes in ((psi, []), (disordered, ["ORDER"])):
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            found = validate(user)
        finally:
            sys.setprofile(None)
        assert found == codes
        assert calls == ["validate"]


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
    odd = r"^discrete part must have even dimension, got 3$"
    with pytest.raises(ValueError, match=odd):
        twist_sgn(blocks, 3)


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
    # the enumerators search each route's top on its own: its centered
    # segment removed, the rest covered with unipotent dimensions at most
    # the top; that must give exactly the full search's covers with that top
    for n, chi in module_characters(8):
        full = _all_segment_covers(chi.entries)
        for top in range(1, 2 * n + 2, 2):
            topped = _all_segment_covers(chi.entries, top)
            assert len(set(topped)) == len(topped)
            assert set(topped) == {c for c in full if c[0][0] == top}, (n, chi, top)


def modules(ranks):
    """Every pi_n(m) and sigma_{n,k} at these ranks, as ``module_of`` gives
    them (sigma_{2k,k} as pi_{2k}(k+1))."""
    return [
        module_of(family, n, value)
        for n in ranks
        for family, values in (("pi", range(n + 1)), ("sigma", range(1, n // 2 + 1)))
        for value in values
    ]


def test_parameter_count_closed_form_agrees_with_the_oracle_walk():
    # the closed form is verified, not proved: it must equal the memoised
    # cover walk for every pi_n(m) and sigma_{n,k} at ranks 1-30; twins
    # share a character, so each character is walked once
    walked = {}
    for module in modules(range(1, 31)):
        entries = _module_inf_char(module)
        if entries not in walked:
            walked[entries] = parameter_count_by_walk(entries)
        assert _parameter_count(module) == walked[entries], module


def test_parameter_count_at_ranks_12_and_13_agrees_with_the_covers():
    # the closed form builds no cover; tests/test_cli.py checks it against
    # enumerate_params up to rank 11, this against the full cover search
    # above the enumeration cap
    def by_covers(entries):
        total = 0
        for unip_dims, _ in _all_segment_covers(entries):
            choices = 1
            for dim in set(unip_dims):
                choices *= unip_dims.count(dim) + 1
            total += choices // 2
        return total

    for n in (12, 13):
        chosen = [module_of("pi", n, m) for m in sorted({0, 1, n // 2, n})]
        chosen += [module_of("sigma", n, k) for k in range(1, n // 2 + 1)]
        for module in chosen:
            entries = _module_inf_char(module)
            assert _parameter_count(module) == by_covers(entries), module


def distinct_characters(ranks):
    """The distinct entries of the characters of every pi_n(m) and
    sigma_{n,k} at these ranks (pi_n(m) and pi_n(n+1-m) share one)."""
    seen = {}
    for n in ranks:
        weights = [pi_nm(n, m) for m in range(n + 1)]
        weights += [sigma_nk(n, k) for k in range(1, n // 2 + 1)]
        for weight in weights:
            seen.setdefault(inf_char_of_weight(weight).entries, n)
    return [(n, entries) for entries, n in seen.items()]


def test_cover_search_matches_the_set_based_oracle():
    # the search walks the symmetric half and reaches each cover once, so it
    # keeps no set: it must give the earlier set-based search's covers, in
    # the same shape, each once, in full and for every top
    for n, entries in distinct_characters(range(1, 12)):
        expected = set_segment_covers(entries)
        covers = _all_segment_covers(entries)
        assert len(covers) == len(set(covers)), entries
        assert set(covers) == expected, entries
        for top in range(1, 2 * n + 2, 2):
            topped = _all_segment_covers(entries, top)
            assert len(topped) == len(set(topped)), (entries, top)
            assert set(topped) == {c for c in expected if c[0][0] == top}, (entries, top)


def test_parameter_count_at_ranks_12_and_13_agrees_with_the_oracle_covers():
    # every character at ranks 12-13, counted over the set-based search's
    # covers: half of prod(c + 1) on each
    distinct = {_module_inf_char(module): module for module in modules((12, 13))}
    for entries, module in distinct.items():
        total = 0
        for unip_dims, _ in set_segment_covers(entries):
            choices = 1
            for dim in set(unip_dims):
                choices *= unip_dims.count(dim) + 1
            total += choices // 2
        assert _parameter_count(module) == total, entries


def test_top_character_filter():
    # with a top character, a cover yields exactly its parameters holding a
    # block of the largest unipotent dimension with that character
    for n, chi in module_characters(7):
        for dims, discrete in _all_segment_covers(chi.entries):

            def built(char=None):
                # one _trusted_params call per character multiset
                return [
                    psi
                    for unipotent in _char_assignments(n, dims, char)
                    for psi in _trusted_params(n, unipotent, (discrete,))
                ]

            every = built()
            top = dims[0]
            for char in (CHAR_TRIV, CHAR_SGN):
                assert built(char) == [
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


def test_enumeration_refuses_a_rank_that_is_not_an_int():
    # True and 1.0 equal the rank 1 of this character; parameters of such a
    # rank, which validate refuses (BLOCK_SHAPE), would be marked valid
    chi = inf_char_of_weight(pi_nm(1, 1))
    found = enumerate_params(chi, 1)
    assert found and all(validate(psi) == [] for psi in found)
    for bad in (True, 1.0):
        assert validate(ArthurParameter(bad, found[0].unipotent, found[0].discrete))
        with pytest.raises(ValueError, match=f"rank must be int, got n={bad!r}"):
            enumerate_params(chi, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "12", None, True, 12.0])
def test_enumeration_refuses_a_cap_that_is_not_an_int(bad):
    # n > nan and n > inf are always False, so either would lift the cap;
    # "12" and None would fail the comparison with a TypeError; True would
    # be the cap 1.  Each is refused before anything is built, at rank 2,
    # under any cap that would admit it, and at rank 13, over the default.
    for n in (2, 13):
        with pytest.raises(ValueError, match="max_rank must be int") as refused:
            enumerate_params(inf_char_of_weight(pi_nm(n, 1)), n, max_rank=bad)
        assert type(refused.value) is ValueError
        with pytest.raises(ValueError, match="max_rank must be int") as refused:
            enumerate_packets_pi(n, 1, max_rank=bad)
        assert type(refused.value) is ValueError
        with pytest.raises(ValueError, match="max_rank must be int") as refused:
            enumerate_packets_sigma(n, 1, max_rank=bad)
        assert type(refused.value) is ValueError


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


def test_blocks_of_the_two_kinds_with_equal_fields():
    # blocks are NamedTuples: like plain tuples, a unipotent and a discrete
    # block with the same fields compare and hash equal
    assert UnipotentBlock(1, 3) == DiscreteBlock(1, 3)
    assert hash(UnipotentBlock(1, 3)) == hash(DiscreteBlock(1, 3))
    # valid blocks of the two kinds never do (a unipotent dim is odd, a
    # discrete block has t >= 1 and t + a odd), so no enumerated parameter
    # holds such a pair
    for n, chi in module_characters(9):
        for psi in enumerate_params(chi, n):
            assert not set(psi.unipotent) & set(psi.discrete), str(psi)
    # contains_block looks for a block among those of its own kind
    assert contains_block(WORKED, UnipotentBlock(CHAR_SGN, 3))
    assert not contains_block(WORKED, DiscreteBlock(CHAR_SGN, 3))
    discrete_only = ArthurParameter(
        4, (UnipotentBlock(CHAR_TRIV, 3),), (DiscreteBlock(1, 3),)
    )
    assert contains_block(discrete_only, DiscreteBlock(1, 3))
    assert not contains_block(discrete_only, UnipotentBlock(CHAR_SGN, 3))
    # validate sees the invalid block whatever the other kind holds
    both = ArthurParameter(4, (UnipotentBlock(CHAR_SGN, 3),), (DiscreteBlock(1, 3),))
    assert validate(both) == ["BLOCK_SHAPE"]
    assert validate(discrete_only) == ["BLOCK_SHAPE", "PARITY_PRODUCT"]
    mixed = ArthurParameter(
        5,
        (UnipotentBlock(CHAR_SGN, 3), UnipotentBlock(CHAR_TRIV, 1)),
        (DiscreteBlock(1, 3), DiscreteBlock(2, 1)),
    )
    assert validate(mixed) == ["BLOCK_SHAPE", "DIM_SUM", "PARITY_PRODUCT", "ORDER"]


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


# --- the boundary of a user-built parameter ----------------------------------


@st.composite
def user_parameters(draw):
    """Parameters as a user may build them: int fields of any sign or well
    shaped, a block repeated, the blocks canonical, shuffled or as drawn,
    the rank that of the dimension count or any."""
    wild = draw(st.booleans())
    if wild:
        unip = st.builds(UnipotentBlock, st.integers(-1, 2), st.integers(-3, 9))
        disc = st.builds(DiscreteBlock, st.integers(-2, 8), st.integers(-2, 8))
    else:
        odd = st.integers(0, 4).map(lambda h: 2 * h + 1)
        unip = st.builds(UnipotentBlock, st.sampled_from((CHAR_TRIV, CHAR_SGN)), odd)
        # t + a odd: a of the other parity than t
        disc = st.tuples(st.integers(1, 8), odd).map(
            lambda ta: DiscreteBlock(ta[0], ta[1] + ta[0] % 2)
        )
    unipotent = draw(st.lists(unip, max_size=5))
    discrete = draw(st.lists(disc, max_size=4))
    if not wild and unipotent and draw(st.booleans()):
        # the character of the first block meets the determinant condition
        parity = sum(b.char for b in unipotent[1:]) + sum(b.a for b in discrete)
        unipotent[0] = UnipotentBlock(parity % 2, unipotent[0].dim)
    for blocks in (unipotent, discrete):
        if blocks and draw(st.booleans()):
            blocks.append(draw(st.sampled_from(blocks)))
    dims = sum(b.dim for b in unipotent) + 2 * sum(b.a for b in discrete)
    n = draw(st.sampled_from([(dims - 1) // 2]) | st.integers(-3, 12))
    arrangement = draw(st.sampled_from(("canonical", "shuffled", "drawn")))
    if arrangement == "shuffled":
        unipotent = draw(st.permutations(unipotent))
        discrete = draw(st.permutations(discrete))
    psi = ArthurParameter(n, tuple(unipotent), tuple(discrete))
    return psi.canonical() if arrangement == "canonical" else psi


def outcome(fn, psi):
    try:
        return "ok", fn(psi)
    except Exception as exc:
        return type(exc), str(exc)


@given(user_parameters())
@example(WORKED)
@example(ArthurParameter(2, WORKED.unipotent[::-1]))
@example(ArthurParameter(-1, (UnipotentBlock(CHAR_TRIV, -1),)))
@settings(max_examples=300, deadline=None)
def test_boundary_agrees_with_the_canonical_copy_oracle(psi):
    # validate's neighbour comparison gives the codes that comparing with the
    # canonical copy gives, and _require_valid then inf_char_of_param the
    # checked character's entries, or the same refusal
    assert validate(psi) == validate_by_copy(psi)
    assert outcome(valid_inf_char, psi) == outcome(valid_inf_char_by_copy, psi)


def valid_inf_char(psi):
    params._require_valid(psi)
    return inf_char_of_param(psi).entries


def test_segment_entries_are_the_checked_characters(ranks_1_to_9):
    # every parameter enumerated at ranks <= 8, stripped of its mark, as a
    # user would build it
    checked = 0
    for (_, n, _), found in ranks_1_to_9.items():
        if n > 8:
            continue
        for psi in found.params:
            copy = dataclasses.replace(psi)
            assert copy._valid is False
            assert inf_char_of_param(copy).entries == checked_inf_char_entries(copy), str(psi)
            checked += 1
    assert checked


def test_user_built_member_is_validated_once_per_question(monkeypatch):
    # decide_pi, then rho_pi_general with each token: a user-built member is
    # validated once per question, through the module attribute
    # params.validate, and no InfinitesimalCharacter is built; a member the
    # enumerator built is neither validated nor measured
    calls = {"validate": 0, "inf_char": 0}
    real_validate, init = params.validate, InfinitesimalCharacter.__init__

    def counted_validate(psi):
        calls["validate"] += 1
        return real_validate(psi)

    def counted_init(chi, entries):
        calls["inf_char"] += 1
        init(chi, entries)

    questions = [(6, 2), (5, 4), (4, 3)]
    members = {(n, m): [psi for psi, _ in enumerate_packets_pi(n, m)] for n, m in questions}
    monkeypatch.setattr(params, "validate", counted_validate)
    monkeypatch.setattr(InfinitesimalCharacter, "__init__", counted_init)

    def counts(psi, n, m):
        calls.update(validate=0, inf_char=0)
        assert decide_pi(psi, n, m).member
        for delta in (1, -1):
            rho_pi_general(psi, n, m, delta)
        return calls["validate"], calls["inf_char"]

    for (n, m), found in members.items():
        assert found
        for psi in found:
            user = ArthurParameter(psi.n, psi.unipotent, psi.discrete)
            assert counts(user, n, m) == (3, 0), str(psi)
            assert counts(psi, n, m) == (0, 0), str(psi)
    # the counters see a validation and a character built
    calls.update(validate=0, inf_char=0)
    inf_char_of_param(user)
    params._require_valid(user)
    assert calls == {"validate": 1, "inf_char": 1}
