"""THM71_I admits a parameter only if its discrete segments are pairwise
disjoint (``membership._segments_pairwise_disjoint``).  The library sorts
the segments once and compares neighbours, O(b log b) in b blocks; it must
agree with the test on every pair (``oracles.segments_pairwise_disjoint_by_pairs``),
and a member with a hundred thousand discrete blocks must be answered in
seconds, where the test on every pair took minutes."""

from time import perf_counter

from hypothesis import given, settings
from hypothesis import strategies as st

from sympacket.characters import rho_pi_general
from sympacket.membership import ROUTE_I, _segments_pairwise_disjoint, decide_pi
from sympacket.params import ArthurParameter, DiscreteBlock, UnipotentBlock, validate

from oracles import segments_pairwise_disjoint_by_pairs


def test_neighbours_agree_with_pairs_on_every_enumerated_parameter(ranks_1_to_9):
    answers = set()
    for found in ranks_1_to_9.values():
        for psi in found.params:
            answer = _segments_pairwise_disjoint(psi)
            assert answer == segments_pairwise_disjoint_by_pairs(psi), psi
            answers.add(answer)
    assert answers == {True, False}


# a segment [bottom, top] with bottom + top >= 1 is the block t = bottom + top,
# a = top - bottom + 1 (t + a odd); equal segments repeat a block
segments = st.tuples(st.integers(-6, 12), st.integers(0, 8)).filter(
    lambda s: 2 * s[0] + s[1] >= 1
)


@given(st.lists(segments, max_size=8))
@settings(max_examples=300, deadline=None)
def test_neighbours_agree_with_pairs_on_interval_lists(drawn):
    blocks = tuple(DiscreteBlock(2 * low + length, length + 1) for low, length in drawn)
    assert [(b.bottom, b.top) for b in blocks] == [(low, low + length) for low, length in drawn]
    psi = ArthurParameter(0, (), blocks)  # only the discrete blocks are read
    assert _segments_pairwise_disjoint(psi) == segments_pairwise_disjoint_by_pairs(psi)


def test_a_member_with_a_hundred_thousand_blocks_is_answered_in_seconds():
    # δ_1⊠R[2] and δ_{2j}⊠R[1] for j = 2 ... n-1, plus R[1]: the segments
    # [0, 1], {2}, ..., {n-1} cover [0, n-1], a THM71_I member of pi_n(n)
    n = 100_000
    discrete = tuple(DiscreteBlock(2 * j, 1) for j in range(n - 1, 1, -1))
    psi = ArthurParameter(n, (UnipotentBlock(n % 2, 1),), discrete + (DiscreteBlock(1, 2),))
    assert validate(psi) == [] and len(psi.discrete) == n - 1
    # each R[1] block takes the sign of the token, which flips after it;
    # δ_1⊠R[2] then takes -1, and R[1] makes the number of -1 signs even
    questions = [(lambda: decide_pi(psi, n, n).route, ROUTE_I)] + [
        (lambda d=delta: rho_pi_general(psi, n, n, d).signs,
         (delta, -delta) * ((n - 2) // 2) + (-1, 1))
        for delta in (1, -1)
    ]
    for ask, expected in questions:
        start = perf_counter()
        answer = ask()
        seconds = perf_counter() - start
        assert answer == expected
        assert seconds < 5, seconds
