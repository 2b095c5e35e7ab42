"""Parameters built by the enumerators and the wire reader are marked valid
(``params._trusted_params``), and packet members also record the route
(which names its module) that admitted them; the one trust check
(``params._require_valid``) reads the mark instead of validating, and the
one lookup of the public deciders and characters
(``membership._decide_route``) reads the route instead of deciding.  On a
character question the route record answers, a member also keeps the
character of the other Whittaker token (``_kept_char``), which answers the
next question for that token.  The mark and records must never lie, must
be invisible to equality, hashing, order, printing and the wire format,
and must give the same answers and refusals as a user-built copy of the
same parameter, which is unmarked, carries no record and is validated and
decided."""

import copy
import dataclasses
import itertools
import pickle
import sys

import pytest

from sympacket import characters, cli, membership, params
from sympacket.characters import PacketCharacter, rho_pi_general, rho_sigma_general
from sympacket.membership import (
    decide_pi,
    decide_sigma,
    enumerate_packets_pi,
    enumerate_packets_sigma,
)
from sympacket.params import (
    ArthurParameter,
    UnipotentBlock,
    enumerate_params,
    validate,
)
from sympacket.weights import Module, inf_char_of_weight, module_of, pi_nm, sigma_nk

RECORDS = ("_valid", "_route", "_kept_char")
DECIDE = {"pi": decide_pi, "sigma": decide_sigma}
RHO = {"pi": rho_pi_general, "sigma": rho_sigma_general}


def marked(psi):
    return psi._valid


def route_record(psi):
    return psi._route


def user_copy(psi):
    return ArthurParameter(psi.n, psi.unipotent, psi.discrete)


def modules(max_n):
    """(family, n, value) of every pi_n(m) and sigma_{n,k} up to rank max_n."""
    for n in range(1, max_n + 1):
        for m in range(0, n + 1):
            yield "pi", n, m
        for k in range(1, n // 2 + 1):
            yield "sigma", n, k


ENUMERATE = {"pi": enumerate_packets_pi, "sigma": enumerate_packets_sigma}


def packets(family, n, value):
    return [psi for psi, _ in ENUMERATE[family](n, value)]


def weight(family, n, value):
    return pi_nm(n, value) if family == "pi" else sigma_nk(n, value)


def check_record(found):
    """Each parameter is marked valid, is valid, and is, to every observer
    but the mark, its user-built copy, which is unmarked."""
    copies = [user_copy(psi) for psi in found]
    for psi, copy in zip(found, copies):
        assert marked(psi) is True
        assert validate(psi) == []
        assert copy == psi and psi == copy and hash(copy) == hash(psi)
        assert repr(copy) == repr(psi) and str(copy) == str(psi)
        assert cli.param_to_json(copy) == cli.param_to_json(psi)
        for other in (copy, dataclasses.replace(psi)):
            assert [getattr(other, name) for name in RECORDS] == [False, None, None]
    assert sorted(copies) == found
    assert sorted(copies + found) == [p for psi in found for p in (psi, psi)]


def test_enumerated_parameters_record_their_character():
    for family, n, value in modules(9):
        chi = inf_char_of_weight(weight(family, n, value))
        found = enumerate_params(chi, n)
        assert found
        check_record(found)


def test_packet_members_record_their_character():
    for family, n, value in modules(9):
        found = packets(family, n, value)
        assert found
        check_record(found)


def test_wire_parameters_record_their_character():
    for family, n, value in modules(5):
        for psi in packets(family, n, value):
            read = cli.param_from_json(cli.param_to_json(psi))
            assert read == psi
            check_record([read])


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "refused", str(exc)


def test_recorded_and_user_built_parameters_get_the_same_answers(ranks_1_to_9):
    # for each module, every parameter with its character, members and not:
    # the verdict and both characters (or the non-member refusal) agree
    for family, n, value in modules(8):
        found = ranks_1_to_9[family, n, value]
        members = {psi for psi, _ in found.members}
        for psi in found.params:
            copy = user_copy(psi)
            assert marked(psi) and not marked(copy)
            verdict = DECIDE[family](psi, n, value)
            assert verdict == DECIDE[family](copy, n, value)
            assert verdict.member == (psi in members)
            for delta in (1, -1):
                got = outcome(RHO[family], psi, n, value, delta)
                assert got == outcome(RHO[family], copy, n, value, delta)
                assert (got[0] == "ok") == verdict.member
                if not verdict.member:
                    assert got[1].startswith("packet does not contain the")


def test_members_refused_by_another_module_alike(ranks_1_to_9):
    # each member against a module of its rank whose packet it is not in,
    # one with the same character where there is one (pi_n(m) and
    # pi_n(n+1-m) share theirs), else one with another character
    for family, n, value in modules(8):
        entries = inf_char_of_weight(weight(family, n, value)).entries
        others = sorted(
            (module for module in modules(n) if module[1] == n),
            key=lambda module: inf_char_of_weight(weight(*module)).entries != entries,
        )
        for psi, _ in ranks_1_to_9[family, n, value].members:
            copy = user_copy(psi)
            other, _, v = next(
                module for module in others if not DECIDE[module[0]](copy, n, module[2]).member
            )
            assert DECIDE[other](psi, n, v) == DECIDE[other](copy, n, v)
            for delta in (1, -1):
                got = outcome(RHO[other], psi, n, v, delta)
                assert got[0] == "refused"
                assert got == outcome(RHO[other], copy, n, v, delta)


def test_out_of_order_user_parameter_is_still_refused():
    def rho(psi, n, m):
        return rho_pi_general(psi, n, m, 1)

    for n, m in ((6, 2), (7, 6)):
        for psi in packets("pi", n, m):
            if len(set(psi.unipotent)) < 2:
                continue
            disordered = ArthurParameter(n, psi.unipotent[::-1], psi.discrete)
            assert validate(disordered) == ["ORDER"]
            for fn in (decide_pi, rho):
                with pytest.raises(ValueError) as exc:
                    fn(disordered, n, m)
                assert str(exc.value) == f"invalid parameter {disordered}: ['ORDER']"


def test_packet_members_record_the_route_that_admitted_them():
    for family, n, value in modules(9):
        module = module_of(family, n, value)
        found = ENUMERATE[family](n, value)
        records = {}
        for psi, verdict in found:
            route = route_record(psi)
            assert route is not None
            assert route.module == module
            assert any(route is row for row in membership._routes(module))
            assert route.verdict is verdict
            copy = user_copy(psi)
            # the table decides the copy: the very route recorded, not only
            # its verdict
            assert membership._decide_core(copy, module) is route
            if n <= 8:  # the public answers read the record, and agree
                assert DECIDE[family](psi, n, value) == DECIDE[family](copy, n, value)
                for delta in (1, -1):
                    got = RHO[family](psi, n, value, delta)
                    assert got == RHO[family](copy, n, value, delta)
            # the record is the route object itself, one per route
            assert records.setdefault(verdict.route, route) is route
        assert len({id(route_record(psi)) for psi, _ in found}) == len(records)


def test_parameters_built_elsewhere_carry_no_route_record():
    for family, n, value in modules(9):
        chi = inf_char_of_weight(weight(family, n, value))
        assert all(route_record(psi) is None for psi in enumerate_params(chi, n))
        for psi in packets(family, n, value):
            assert route_record(user_copy(psi)) is None
            assert route_record(dataclasses.replace(psi)) is None
            if n <= 5:
                assert route_record(cli.param_from_json(cli.param_to_json(psi))) is None


def test_enumerated_members_are_not_decided_again(monkeypatch):
    # asked about the module that admitted it, a member is neither validated
    # nor decided, and no character is read.  A user-built copy is validated
    # and decided once per question and compared by segment edges
    # (``membership._same_inf_char``): no entries of its own are listed
    # (``inf_char_of_param``) and none of the module's
    # (``Module.inf_char``).  A member asked about
    # pi_n(n+1-m), which shares the character of pi_n(m) (and is another
    # module unless n = 2m - 1), is not validated, and is compared by
    # segment edges and decided once.  No question builds a module's
    # character entries, and neither does the enumeration, which builds
    # each route's covers directly (``membership._route_covers``).
    calls = dict.fromkeys(("valid", "core", "edges", "entries"), 0)
    built = {}
    inf_char = Module.inf_char

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def counted_inf_char(module):
        built[module] = built.get(module, 0) + 1
        return inf_char(module)

    for owner, attr, name in [
        (params, "validate", "valid"),
        (membership, "_decide_core", "core"),
        (membership, "_same_inf_char", "edges"),
        (membership, "inf_char_of_param", "entries"),
        (params, "inf_char_of_param", "entries"),
    ]:
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    monkeypatch.setattr(Module, "inf_char", counted_inf_char)

    def counts(fn, *args):
        before = sum(built.values())
        calls.update(dict.fromkeys(calls, 0))
        fn(*args)
        return (*calls.values(), sum(built.values()) - before)

    asked = 0
    for family, n, value in modules(7):
        for psi in packets(family, n, value):
            copy = user_copy(psi)
            for delta in (1, -1):
                questions = [
                    (DECIDE[family], n, value),
                    (lambda p, n, v: RHO[family](p, n, v, delta), n, value),
                ]
                for fn, *args in questions:
                    where = (family, n, value, str(psi))
                    assert counts(fn, psi, *args) == (0, 0, 0, 0, 0), where
                    assert counts(fn, copy, *args) == (1, 1, 1, 0, 0), where
            twin = n + 1 - value
            if family == "pi" and value >= 1 and twin != value:
                assert counts(decide_pi, psi, n, twin) == (0, 1, 1, 0, 0)
                asked += 1
    assert asked
    assert not built, built
    # the counters see a validation and a character listed
    regular = ArthurParameter(1, (UnipotentBlock(0, 3),))
    assert counts(membership.decide_regular, regular, 1) == (1, 0, 0, 1, 0)


def test_member_characters_are_built_once_unchecked(monkeypatch):
    # the character recipe builds each character once, without the public
    # constructor's checks of its own signs and without sign_map for the
    # VANISHING flag; a user-built copy of a member takes the same recipe
    calls = {"init": 0, "sign_map": 0}
    init, sign_map = PacketCharacter.__init__, PacketCharacter.sign_map

    def counted_init(char, *args):
        calls["init"] += 1
        return init(char, *args)

    def counted_sign_map(char):
        calls["sign_map"] += 1
        return sign_map(char)

    monkeypatch.setattr(PacketCharacter, "__init__", counted_init)
    monkeypatch.setattr(PacketCharacter, "sign_map", counted_sign_map)
    # every pi_9(m) and sigma_{9,k}, and sigma_{2k,k}, whose module is the
    # scalar pi_{2k}(k+1)
    questions = [("pi", 9, m) for m in range(0, 10)]
    questions += [("sigma", 9, k) for k in range(1, 5)]
    questions += [("sigma", 2 * k, k) for k in range(1, 5)]
    built = 0
    for family, n, value in questions:
        for psi in packets(family, n, value):
            for delta in (1, -1):
                RHO[family](psi, n, value, delta)
                RHO[family](user_copy(psi), n, value, delta)
                built += 2
    assert built
    assert calls == {"init": 0, "sign_map": 0}
    # the counters do see the public constructor and sign_map
    PacketCharacter(1, (UnipotentBlock(0, 1),), (1,)).sign_map()
    assert calls == {"init": 1, "sign_map": 1}


def test_recorded_members_are_refused_as_their_copies():
    # the lookup reads a member's route record first; every question the
    # record does not answer takes the copy's path, so refusals and their
    # order are the copy's: a bad token, a value outside the module's range, a
    # rank that is not the parameter's, the other family, and sigma_{2k,k}
    # (recorded as pi_{2k}(k+1))
    refused = answered = 0
    for family, n, value in modules(6):
        other = "sigma" if family == "pi" else "pi"
        questions = [(family, n, value, delta) for delta in (0, 2, -2)]
        questions += [(family, n, v, 1) for v in (-1, 0, n // 2 + 1, n + 1)]
        questions += [(family, n + 1, value, 1)]
        questions += [(other, n, v, delta) for v in range(-1, n + 2) for delta in (1, -1, 0)]
        for psi in packets(family, n, value):
            copy = user_copy(psi)
            for fam, rank, v, delta in questions:
                got = outcome(RHO[fam], psi, rank, v, delta)
                assert got == outcome(RHO[fam], copy, rank, v, delta), (str(psi), fam, rank, v)
                if (fam, rank, v) == (family, n, value) and delta not in (1, -1):
                    assert got == ("refused", "delta must be +1 or -1")
                refused += got[0] == "refused"
                answered += got[0] == "ok"
    assert refused and answered
    for k in range(1, 5):
        for psi in packets("sigma", 2 * k, k):
            assert route_record(psi).module == ("pi", 2 * k, k + 1)
            copy = user_copy(psi)
            for delta in (1, -1, 0, 2):
                got = outcome(rho_sigma_general, psi, 2 * k, k, delta)
                assert got == outcome(rho_sigma_general, copy, 2 * k, k, delta)
                assert got == outcome(rho_pi_general, psi, 2 * k, k + 1, delta)


def test_member_asked_about_its_own_module_builds_no_module(monkeypatch):
    # the lookup builds no module for a member asked about the triple its
    # record names, and exactly one for a member of sigma_{2k,k}, recorded
    # as pi_{2k}(k+1) and asked as sigma; neither is validated or decided.
    # A user-built copy builds one, and is validated and decided.
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append((name, args) if name == "module_of" else name)
            return fn(*args)

        return counted

    monkeypatch.setattr(membership, "module_of", counting("module_of", module_of))
    monkeypatch.setattr(params, "validate", counting("validate", validate))
    monkeypatch.setattr(membership, "_decide_core", counting("decide", membership._decide_core))
    asked = renamed = 0
    for family, n, value in modules(9):
        built = [("module_of", (family, n, value))]
        for psi in packets(family, n, value):
            # only members of sigma_{2k,k} record another triple than the one asked
            other = route_record(psi).module != (family, n, value)
            assert other == (family == "sigma" and n == 2 * value)
            renamed += other
            for delta in (1, -1):
                for fn in (DECIDE[family], lambda p, n, v: RHO[family](p, n, v, delta)):
                    calls.clear()
                    fn(psi, n, value)
                    assert calls == (built if other else []), (family, n, value, str(psi))
                    calls.clear()
                    fn(user_copy(psi), n, value)
                    assert calls == built + ["validate", "decide"]
                    asked += 1
    assert asked and renamed


def profiler_events(fn, *args):
    """The result of fn(*args) and every call event of the profiler in it."""
    events = []

    def profile(frame, event, arg):
        if event == "call":
            events.append(frame.f_code.co_name)
        elif event == "c_call" and arg is not sys.setprofile:
            events.append(arg.__name__)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, events


def test_recorded_member_character_profiler_events():
    # one recorded member's rho_pi_general for both tokens, every call
    # event of the profiler.  The first ask, with the recipe's tables warm
    # for the member's keys: the lookup, the recipe and the two characters
    # it builds; the bound check on the discrete tuple, the three-block
    # test and the table reads, keyed by the member's own tuples, make no
    # event.  The second: the lookup, which tells
    # that the record answered, and the kept character.  Every member's
    # characters pay each event (the sweep benchmark counts them), so a new
    # frame or C call here has to earn its place.
    def member():
        return next(psi for psi in packets("pi", 6, 4) if psi.discrete and len(psi.unipotent) == 3)

    psi = member()
    rho_pi_general(user_copy(psi), 6, 4, 1)  # the tables hold the keys
    char, events = profiler_events(rho_pi_general, psi, 6, 4, 1)
    assert char == rho_pi_general(user_copy(psi), 6, 4, 1)
    assert events == [
        "rho_pi_general",
        "_decide_route",
        "_rho_core",
        "__new__",
        "__new__",
    ]
    other, events = profiler_events(rho_pi_general, psi, 6, 4, -1)
    assert other == rho_pi_general(user_copy(psi), 6, 4, -1)
    assert events == ["rho_pi_general", "_decide_route"]
    # a user-built copy is decided, and takes the one-token recipe, on each ask
    for delta in (1, -1):
        _, events = profiler_events(rho_pi_general, user_copy(psi), 6, 4, delta)
        assert "_decide_core" in events
        recipe = events[events.index("_rho_core"):]
        assert recipe == ["_rho_core", "__new__"]
    # with the tables cleared, the first ask also builds both entries, and no
    # more on the second ask.  The member has one discrete block, a = 3: its
    # fold (under the discrete table's ``lru_cache``, which makes no event)
    # signs it for each token and finds no equal neighbours, in one pass of
    # ``any`` over a generator.  The unipotent entry takes the sign power of
    # e1 e2 and, eta_2 not carrying the big block's character, that of the
    # THM71_II_A1 rule once for each of its eight (token, final token,
    # product) inputs.
    characters._unipotent_signs.cache_clear()
    characters._discrete_signs.cache_clear()
    fresh = member()
    assert [b.a for b in fresh.discrete] == [3]
    char, events = profiler_events(rho_pi_general, fresh, 6, 4, 1)
    assert char == rho_pi_general(user_copy(psi), 6, 4, 1)
    assert events == [
        "rho_pi_general",
        "_decide_route",
        "_rho_core",
        "_discrete_fold",
        *["_sign_pow", "append"] * 2,
        "any",
        "<genexpr>",
        "_unipotent_signs",
        *["_sign_pow", "_sign_pow"] * 8,
        "__new__",
        "__new__",
    ]
    other, events = profiler_events(rho_pi_general, fresh, 6, 4, -1)
    assert other == rho_pi_general(user_copy(psi), 6, 4, -1)
    assert events == ["rho_pi_general", "_decide_route"]


def kept_record(psi):
    return psi._kept_char


def fields(char):
    return char.whittaker, char.blocks, char.signs, char.flags


def test_members_keep_the_other_character_in_any_ask_order():
    # every member of every pi_n(m) and sigma_{n,k} at ranks 1-9, sigma_{2k,k}
    # among them (recorded as pi_{2k}(k+1)), freshly enumerated for each ask
    # order: delta then -delta, -delta then delta, delta twice.  Each answer
    # is the user-built copy's character, field by field.  The first ask
    # keeps the character of the other token, and a later ask for that token
    # returns the kept character itself.
    orders = [(1, -1), (-1, 1), (1, 1), (-1, -1)]
    renamed = returned = 0
    for family, n, value in modules(9):
        copies = [user_copy(psi) for psi in packets(family, n, value)]
        expected = [
            {delta: fields(RHO[family](copy, n, value, delta)) for delta in (1, -1)}
            for copy in copies
        ]
        renamed += family == "sigma" and n == 2 * value
        for first, second in orders:
            found = packets(family, n, value)
            assert found == copies
            for psi, want in zip(found, expected):
                assert kept_record(psi) is None
                assert fields(RHO[family](psi, n, value, first)) == want[first]
                kept = kept_record(psi)
                assert fields(kept) == want[-first]
                got = RHO[family](psi, n, value, second)
                assert fields(got) == want[second]
                if second != first:
                    assert got is kept
                    returned += 1
                assert fields(kept_record(psi)) == want[-first]
                # the record is invisible to equality and hashing
                assert psi == user_copy(psi) and hash(psi) == hash(user_copy(psi))
    assert renamed == 4 and returned


def counting_recipe(monkeypatch):
    """The keep argument of each run of the character recipe."""
    runs = []
    core = characters._rho_core

    def counted(psi, delta, route, keep=False):
        runs.append(keep)
        return core(psi, delta, route, keep)

    monkeypatch.setattr(characters, "_rho_core", counted)
    return runs


def test_user_built_parameters_keep_no_character(monkeypatch):
    # a user-built copy, and a parameter read from the wire (which is
    # marked valid but records no route), runs the one-token recipe on every
    # ask, the same token asked twice included, and keeps no character
    runs = counting_recipe(monkeypatch)
    asked = 0
    for family, n, value in modules(6):
        for psi in packets(family, n, value):
            for p in (user_copy(psi), cli.param_from_json(cli.param_to_json(psi))):
                for delta in (1, 1, -1, -1):
                    runs.clear()
                    got = RHO[family](p, n, value, delta)
                    assert runs == [False]
                    assert fields(got) == fields(RHO[family](psi, n, value, delta))
                    asked += 1
                assert kept_record(p) is None
                assert route_record(p) is None
    assert asked


def test_members_asked_about_another_module_keep_no_character(monkeypatch):
    # a member of pi_n(m) asked about sigma_{n,k} (but not pi_n(m) itself,
    # as sigma_{2k,k} is), or about pi_n(n+1-m), which shares its
    # character, is decided there: it runs the one-token recipe on every
    # ask, or is refused, and keeps nothing.  What it keeps for its own
    # module does not answer there either.
    runs = counting_recipe(monkeypatch)
    asked = refused = 0
    for n in range(1, 9):
        for m in range(1, n + 1):
            others = [
                (rho_sigma_general, n, k)
                for k in range(1, n // 2 + 1)
                if module_of("sigma", n, k) != module_of("pi", n, m)
            ]
            if n + 1 - m != m:
                others.append((rho_pi_general, n, n + 1 - m))
            for psi in packets("pi", n, m):
                copy = user_copy(psi)
                for own_first in (False, True):
                    if own_first:
                        rho_pi_general(psi, n, m, 1)
                    for rho, rank, v in others:
                        for delta in (1, -1, 1):
                            runs.clear()
                            got = outcome(rho, psi, rank, v, delta)
                            assert runs == ([False] if got[0] == "ok" else [])
                            assert got == outcome(rho, copy, rank, v, delta)
                            asked += got[0] == "ok"
                            refused += got[0] == "refused"
                            if not own_first:
                                assert kept_record(psi) is None
                    if own_first:
                        assert kept_record(psi).whittaker == -1
    assert asked and refused


def test_refusals_come_token_then_module_then_parameter():
    # each mix of a bad token, a bad module (a value out of range or not an
    # int) and a bad parameter (a rank that is not the parameter's): a
    # member and its user-built copy give the same answer, the refusal of
    # the first of token, module, parameter.  The member's record is never
    # trusted on a question it does not answer exactly.
    asked = 0
    for family, n, value in modules(6):
        # each value with the refusal of the module it names, if any
        values = [(value, None), (-1, "need "), (float(value), "rank and value must be int")]
        values += [(str(value), "rank and value must be int")]
        for psi in packets(family, n, value)[:4]:
            copy = user_copy(psi)
            for delta, (v, module_refusal), rank in itertools.product(
                (1, -1, True, 1.0, 0), values, (n, n + 1)
            ):
                got = outcome(RHO[family], psi, rank, v, delta)
                assert got == outcome(RHO[family], copy, rank, v, delta), (str(psi), delta, v, rank)
                good_token = type(delta) is int and delta in (1, -1)
                if not good_token:
                    assert got == ("refused", "delta must be +1 or -1")
                elif module_refusal is not None:
                    assert got[0] == "refused" and got[1].startswith(module_refusal)
                elif rank != n:
                    assert got == ("refused", "parameter rank does not match n")
                else:
                    assert got[0] == "ok"
                if good_token:
                    # the deciders make the same checks, module then parameter
                    verdict = outcome(DECIDE[family], psi, rank, v)
                    assert verdict == outcome(DECIDE[family], copy, rank, v)
                    assert verdict[0] == got[0]
                    if got[0] == "refused":
                        assert verdict == got
                asked += 1
    assert asked


def test_a_module_asked_with_equal_non_ints_is_refused():
    # True and 1.0 compare equal to 1, so a record that answered them would
    # answer a member where its copy is refused; every entry point refuses
    # them, and a family other than "pi" / "sigma"
    from sympacket.langlands import standard_pi, standard_sigma

    standard = {"pi": standard_pi, "sigma": standard_sigma}
    for family, n, value in (("pi", 1, 1), ("pi", 3, 1), ("sigma", 3, 1), ("sigma", 2, 1)):
        found = packets(family, n, value)
        for bad in (True, 1.0, "1"):
            questions = [(n, bad)] + ([(bad, value)] if n == 1 else [])
            for rank, v in questions:
                for fn in (ENUMERATE[family], standard[family]):
                    with pytest.raises(ValueError, match="rank and value must be int"):
                        fn(rank, v)
                for psi in found:
                    for p in (psi, user_copy(psi)):
                        for fn in (DECIDE[family], RHO[family]):
                            with pytest.raises(ValueError, match="rank and value must be int"):
                                fn(p, rank, v, *([1] if fn is RHO[family] else []))
        for psi in found:
            for p in (psi, user_copy(psi)):
                with pytest.raises(ValueError, match="family must be 'pi' or 'sigma'"):
                    membership._decide_route(p, family.capitalize(), n, value)
    with pytest.raises(ValueError, match="family must be 'pi' or 'sigma', got 'Pi'"):
        module_of("Pi", 4, 1)


def round_trips():
    """Each way to copy an object whole: ``copy.copy``, ``copy.deepcopy``
    and a pickle of every protocol."""
    yield copy.copy
    yield copy.deepcopy
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol))


def test_copies_and_pickles_keep_the_records():
    # an enumerated member marked and with both records (its second
    # character kept), a wire-read parameter marked, a user-built one bare,
    # and the characters: each copy equals its original, field by field
    # and record by record, and answers as it does
    members = packets("pi", 6, 4)
    member = members[-1]
    char = rho_pi_general(member, 6, 4, 1)
    wire = cli.param_from_json(cli.param_to_json(member))
    user = user_copy(member)
    assert marked(member) and None not in (route_record(member), kept_record(member))
    assert marked(wire) and route_record(wire) is None
    for trip in round_trips():
        for psi in (member, wire, user):
            got = trip(psi)
            assert type(got) is ArthurParameter and got == psi and got is not psi
            assert str(got) == str(psi) and hash(got) == hash(psi)
            assert [getattr(got, name) for name in RECORDS] == [
                getattr(psi, name) for name in RECORDS
            ]
            for delta in (1, -1):
                assert fields(rho_pi_general(got, 6, 4, delta)) == fields(
                    rho_pi_general(user_copy(psi), 6, 4, delta)
                )
        built = PacketCharacter(1, (UnipotentBlock(0, 1),), (1,))
        for original in (char, kept_record(member), built):
            got = trip(original)
            assert type(got) is PacketCharacter and fields(got) == fields(original)


def test_parameters_and_characters_hold_no_dict_and_stay_frozen():
    # the fields, the mark and the records are slots: no per-object
    # dictionary.  Setting or deleting a field, the mark, a record or any
    # other name raises FrozenInstanceError
    member = packets("pi", 6, 4)[-1]
    char = rho_pi_general(member, 6, 4, 1)
    built = (member, user_copy(member), char, kept_record(member), PacketCharacter(1, (), ()))
    for obj in built:
        assert not hasattr(obj, "__dict__"), obj
        is_param = isinstance(obj, ArthurParameter)
        for name in obj.__match_args__ + (RECORDS if is_param else ()) + ("extra",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
