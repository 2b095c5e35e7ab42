"""A user-built parameter's infinitesimal character is compared with the
module's by the edges of their segments (``membership._same_inf_char``):
O(blocks) per question, with no entry listed.  It must agree with the sorted
entries of both sides (``oracles.same_inf_char_by_entries``), its closed form
of the module's segments must be ``Module.inf_char()``, and a question at a
huge rank must cost what its few blocks cost."""

import tracemalloc
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from sympacket.characters import rho_pi_general
from sympacket.membership import (
    ROUTE_I,
    ROUTE_TRIVIAL,
    _same_inf_char,
    decide_pi,
    decide_sigma,
)
from sympacket.params import (
    CHAR_SGN,
    CHAR_TRIV,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    validate,
)
from sympacket.weights import module_of

from oracles import checked_inf_char_entries, same_inf_char_by_entries


def P(n, unip, disc=()):
    return ArthurParameter(
        n,
        tuple(UnipotentBlock(c, d) for c, d in unip),
        tuple(DiscreteBlock(t, a) for t, a in disc),
    ).canonical()


def modules_of_rank(n):
    """Every module ``module_of`` returns at rank n, sigma_{2k,k} (which is
    pi_{2k}(k+1)) included."""
    return [module_of("pi", n, m) for m in range(n + 1)] + [
        module_of("sigma", n, k) for k in range(1, n // 2 + 1)
    ]


@st.composite
def valid_parameters(draw):
    """A valid parameter of rank at most 8: an odd number of unipotent
    blocks, discrete blocks with t + a odd, the determinant condition met by
    the first unipotent character."""
    chars = st.sampled_from((CHAR_TRIV, CHAR_SGN))
    room = 17  # 2n + 1 <= 17
    unipotent = []
    count = draw(st.sampled_from((1, 3, 5)))
    for left in range(count - 1, -1, -1):  # blocks still to draw after this
        dim = 2 * draw(st.integers(0, (room - left - 1) // 2)) + 1
        unipotent.append((draw(chars), dim))
        room -= dim
    discrete = []
    while room >= 2 and draw(st.booleans()):
        a = draw(st.integers(1, room // 2))
        t = draw(st.integers(1, 8))
        t += 1 - (t + a) % 2  # t + a odd
        discrete.append((t, a))
        room -= 2 * a
    parity = sum(c for c, _ in unipotent[1:]) + sum(a for _, a in discrete)
    unipotent[0] = (parity % 2, unipotent[0][1])
    return P((17 - room - 1) // 2, unipotent, discrete)


@given(valid_parameters())
@settings(max_examples=200, deadline=None)
def test_edges_agree_with_the_sorted_entries(psi):
    assert validate(psi) == [] and psi.n <= 8
    for module in modules_of_rank(psi.n):
        assert _same_inf_char(psi, module) == same_inf_char_by_entries(psi, module), module


def test_edges_agree_on_every_enumerated_parameter(ranks_1_to_9):
    # every valid parameter whose character is a module's, at ranks <= 8,
    # against every module of its rank (one list per character)
    seen = set()
    agreed = matched = 0
    for (_, n, _), found in ranks_1_to_9.items():
        if n > 8 or not found.params:
            continue
        entries = checked_inf_char_entries(found.params[0])
        if entries in seen:
            continue
        seen.add(entries)
        same = {module: module.inf_char() == entries for module in modules_of_rank(n)}
        for psi in found.params:
            for module, expected in same.items():
                assert _same_inf_char(psi, module) == expected, (module, str(psi))
                agreed += 1
                matched += expected
    assert agreed > 30_000 and matched > 5_000, (agreed, matched)


def test_the_same_multiset_cut_differently():
    # pi_3(3) is [0, 2], [-2, 0] and {0}; R[1] + δ_1⊠R[2] + δ_4⊠R[1] is
    # [0, 1] + [2, 2], their mirrors and {0}: other edges, the same entries
    module = module_of("pi", 3, 3)
    psi = P(3, [(CHAR_SGN, 1)], [(1, 2), (4, 1)])
    assert validate(psi) == []
    assert same_inf_char_by_entries(psi, module)
    assert _same_inf_char(psi, module)
    assert decide_pi(psi, 3, 3).route == ROUTE_I


def test_multisets_of_one_size_that_differ():
    # seven entries each, not the entries of pi_3(3): [-3, 3], and
    # [-1, 1] twice with {0}
    module = module_of("pi", 3, 3)
    for psi in (P(3, [(CHAR_TRIV, 7)]), P(3, [(CHAR_TRIV, 3), (CHAR_SGN, 3), (CHAR_SGN, 1)])):
        assert validate(psi) == []
        assert len(checked_inf_char_entries(psi)) == len(module.inf_char()) == 7
        assert not same_inf_char_by_entries(psi, module)
        assert not _same_inf_char(psi, module)
        assert not decide_pi(psi, 3, 3).member


def atoms(module):
    """Blocks with the module's entries one by one: R[1] for each 0 and
    δ_{2v}⊠R[1], the segment [v, v] and its mirror, for each v > 0.  Not
    always a valid parameter, but the edge test reads only its segments."""
    count = Counter(module.inf_char())
    unipotent = (UnipotentBlock(CHAR_TRIV, 1),) * count[0]
    discrete = tuple(
        DiscreteBlock(2 * v, 1) for v in sorted(count, reverse=True) if v > 0 for _ in range(count[v])
    )
    return ArthurParameter(module.n, unipotent, discrete)


def test_closed_form_segments_are_the_modules_characters():
    # the edges agree with the entries exactly, so a module's closed form
    # matches the blocks of its own entries only if it is Module.inf_char()
    asked = 0
    for n in range(1, 41):
        for module in modules_of_rank(n):
            assert _same_inf_char(atoms(module), module), module
            asked += 1
    assert asked == 1260


def test_a_huge_user_built_question_costs_its_blocks():
    # rank 1,000,000: the answers of the sorted entries (which listed
    # 2,000,001 of them, and took seconds), in well under 64 KB
    n = 1_000_000
    trivial = P(n, [(CHAR_TRIV, 2 * n + 1)])
    # R[1] + [-1, n - 3] + [n - 2, n - 2], and mirrors: a THM71_I member of
    # pi_n(n - 1), whose character is that of pi_n(2) and sigma_{n,2}
    disjoint = P(n, [(CHAR_TRIV, 1)], [(n - 4, n - 1), (2 * n - 4, 1)])
    assert validate(trivial) == validate(disjoint) == []
    questions = [
        (lambda: decide_pi(trivial, n, 0).route, ROUTE_TRIVIAL),
        (lambda: decide_pi(trivial, n, 1).member, False),
        (lambda: decide_sigma(trivial, n, 1).member, False),
        (lambda: decide_pi(disjoint, n, n - 1).route, ROUTE_I),
        (lambda: decide_pi(disjoint, n, 2).member, False),
        (lambda: decide_sigma(disjoint, n, 2).member, False),
        (lambda: rho_pi_general(trivial, n, 0, 1).signs, (1,)),
        (lambda: rho_pi_general(trivial, n, 0, -1).signs, (1,)),
        (lambda: rho_pi_general(disjoint, n, n - 1, 1).signs, (1, 1, 1)),
        (lambda: rho_pi_general(disjoint, n, n - 1, -1).signs, (-1, -1, 1)),
    ]
    for ask, expected in questions:
        tracemalloc.start()
        try:
            answer = ask()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer == expected
        assert peak < 64 * 1024, peak
