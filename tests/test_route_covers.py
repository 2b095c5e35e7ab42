"""The packet enumerators build each route's covers directly
(``membership._route_covers``), with no cover search, grouped by unipotent
dimensions.  Those covers must be exactly the full walk's covers with the
route's top (``oracles.topped_covers(module.inf_char(), route.top)``), less
the THM71_I covers where THM71_I comes first; THM71_I's must be the
interval compositions of its closed form.  Every cover is built
once, from shared block instances, with its discrete blocks already in
canonical order.  The members come out in order with no sort of them
(``params._params_in_order``) because no two groups of a module share
dimensions, no group repeats a discrete tuple and each group lists its
discrete tuples in ascending order, as the one memo of cuts
(``membership._cuts``) lists each interval's cuts, those whose lowest
segment reaches a floor: all of them, or those whose lowest segment is a
piece that holds the zeros."""

import gc
import itertools
import operator

from sympacket import membership
from sympacket.membership import ROUTE_I, _route_covers, _routes
from sympacket.params import DiscreteBlock, _discrete_block
from sympacket.weights import module_of

from oracles import topped_covers


def _modules(max_n):
    """Every distinct pi_n(m) and sigma_{n,k} module up to rank max_n."""
    found = []
    for n in range(1, max_n + 1):
        found += [module_of("pi", n, m) for m in range(n + 1)]
        found += [module_of("sigma", n, k) for k in range(1, n // 2 + 1)]
    return list(dict.fromkeys(found))


def _cuts(low, high, memo):
    """The cuts of low..high into consecutive segments, highest first, by
    recursion on the highest segment, kept in ``memo`` by low."""
    if low > high:
        return [()]
    if low not in memo:
        memo[low] = [
            rest + (DiscreteBlock(low + cut, cut - low + 1),)
            for cut in range(low, high + 1)
            for rest in _cuts(cut + 1, high, memo)
        ]
    return memo[low]


def _thm71_i_covers(n, m):
    """One R[1], one block on [-(n-m), tau] for tau in n-m+1..m-1 and a cut
    of tau+1..m-1."""
    memo = {}
    return [
        ((1,), upper + (DiscreteBlock(tau - (n - m), tau + (n - m) + 1),))
        for tau in range(n - m + 1, m)
        for upper in _cuts(tau + 1, m - 1, memo)
    ]


def _check_module(module):
    """Check each route's covers of the module against the oracle's walk;
    the number of covers checked.  A function of its own, so that the
    module's covers and walks are freed by refcount when it returns, before
    the next module's are built, and no two modules' are alive at once."""
    checked = 0
    entries = module.inf_char()
    first = set()  # THM71_I's covers, which the later routes leave out
    for route in _routes(module):
        built = [
            (dims, discrete)
            for dims, discretes in _route_covers(module, route)
            for discrete in discretes
        ]
        covers = set(built)
        assert len(covers) == len(built), (module, route.verdict.route)
        discretes = [discrete for _, discrete in built]
        # strictly decreasing as (t, a): canonical, and no block repeats
        assert all(all(map(operator.gt, d, d[1:])) for d in discretes), module
        # each block one shared instance (``params._discrete_block``)
        blocks = set(itertools.chain.from_iterable(discretes))
        assert len(set(map(id, itertools.chain.from_iterable(discretes)))) == len(blocks)
        assert all(type(b) is DiscreteBlock and b is _discrete_block(*b) for b in blocks)
        if route.char is None:
            assert route.verdict.route == ROUTE_I
            assert covers == set(_thm71_i_covers(module.n, module.value)), module
            assert len(built) == 2 ** (2 * module.value - module.n - 2), module
            first = covers
        else:
            walked = set(topped_covers(entries, route.top))
            walked -= first
            assert covers == walked, (module, route.verdict.route)
        checked += len(built)
    return checked


def _clear_memos():
    membership._cuts.cache_clear()


def test_route_covers_are_the_walks_at_ranks_1_to_16():
    # The covers and walks make no reference cycle, and each module's are
    # freed by refcount when its check returns.  The cyclic collector would
    # only rescan the hundreds of thousands of cover tuples alive during a
    # rank-16 walk, in about half of this test's time, so it is paused while
    # they are built.  The memo of cuts (``membership._cuts``), bounded by
    # its keys and not by bytes, would keep ranks 13-16's cuts for the rest
    # of the session, so it is cleared after.
    enabled = gc.isenabled()
    gc.disable()
    try:
        checked = sum(_check_module(module) for module in _modules(16))
    finally:
        if enabled:
            gc.enable()
        _clear_memos()
    assert checked == 205_324


def test_route_cover_groups_are_distinct_at_ranks_1_to_16():
    # distinct dimensions and discrete tuples, each group ascending; the
    # memo of cuts is cleared after, as after the walks above
    groups = 0
    try:
        for module in _modules(16):
            dims_seen = []
            for route in _routes(module):
                for dims, discretes in _route_covers(module, route):
                    assert discretes, (module, route.verdict.route, dims)
                    # no group repeats a discrete tuple
                    assert len(set(discretes)) == len(discretes), (module, dims)
                    # each group arrives in the order the members need
                    # (``params._params_in_order`` sorts no discrete tuple)
                    assert list(discretes) == sorted(discretes), (module, dims)
                    dims_seen.append(dims)
            # no two groups across the module's routes share dimensions
            assert len(set(dims_seen)) == len(dims_seen), (module, dims_seen)
            groups += len(dims_seen)
    finally:
        _clear_memos()
    assert groups == 1_092  # over 208 modules


def test_cut_memos_list_ascending():
    # every interval of 1..13, with the floor at its start, and every zero
    # piece reaching up to 13, from an empty memo, against the reference
    # cuts of ``_cuts`` above
    _clear_memos()
    try:
        for low in range(1, 15):
            for high in range(low - 1, 14):
                found = membership._cuts(low, high, low)
                assert list(found) == sorted(found), (low, high)
                assert set(found) == set(_cuts(low, high, {})), (low, high)
                assert len(found) == 2 ** max(high - low, 0), (low, high)
        for s in range(13):
            for high in range(s + 1, 14):
                found = membership._cuts(-s, high, s + 1)
                assert list(found) == sorted(found), (s, high)
                # the piece [-s, tau], then a cut of tau+1..high
                reference = [
                    upper + (DiscreteBlock(tau - s, tau + s + 1),)
                    for tau in range(s + 1, high + 1)
                    for upper in _cuts(tau + 1, high, {})
                ]
                assert set(found) == set(reference), (s, high)
                assert len(found) == len(reference) == 2 ** (high - s - 1), (s, high)
    finally:
        _clear_memos()
