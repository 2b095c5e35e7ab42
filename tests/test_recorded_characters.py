"""Parameters built by the enumerators record their infinitesimal character
(``params._trusted_params``), and packet members also the route (which
names its module) that admitted them; the public deciders and characters read the records
instead of validating and deciding.  The records must never lie, must be
invisible to equality, hashing, order, printing and the wire format, and
must give the same answers and refusals as a user-built copy of the same
parameter, which carries no record and is validated and decided."""

import dataclasses

import pytest

from sympacket import characters, cli, membership
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
    inf_char_of_param,
    validate,
)
from sympacket.weights import Module, inf_char_of_weight, module_of, pi_nm, sigma_nk

FIELDS = {"n", "unipotent", "discrete"}
DECIDE = {"pi": decide_pi, "sigma": decide_sigma}
RHO = {"pi": rho_pi_general, "sigma": rho_sigma_general}


def recorded(psi):
    return vars(psi).get("_inf_char")


def route_record(psi):
    return vars(psi).get("_route")


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
    """Each parameter is valid, records its own character and is, to every
    observer but the record, its user-built copy."""
    copies = [user_copy(psi) for psi in found]
    for psi, copy in zip(found, copies):
        assert validate(psi) == []
        assert recorded(psi) == inf_char_of_param(psi).entries
        assert copy == psi and psi == copy and hash(copy) == hash(psi)
        assert repr(copy) == repr(psi) and str(copy) == str(psi)
        assert cli.param_to_json(copy) == cli.param_to_json(psi)
        assert set(vars(copy)) == FIELDS
        assert set(vars(dataclasses.replace(psi))) == FIELDS
    assert sorted(copies) == found
    assert sorted(copies + found) == [p for psi in found for p in (psi, psi)]


def test_enumerated_parameters_record_their_character():
    for family, n, value in modules(9):
        chi = inf_char_of_weight(weight(family, n, value))
        found = enumerate_params(chi, n)
        assert found
        check_record(found)
        # one enumeration shares one record
        assert len({id(recorded(psi)) for psi in found}) == 1


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
            assert recorded(read) == recorded(psi)


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
            assert recorded(psi) is not None and recorded(copy) is None
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
    # asked about the module that admitted it, a member is neither decided
    # nor has the module's character built; a user-built copy is, once per
    # question, and so is a member asked about pi_n(n+1-m), which shares the
    # character of pi_n(m) (and is another module unless n = 2m - 1)
    calls = {"core": 0, "inf_char": 0}
    core, inf_char = membership._decide_core, Module.inf_char

    def counted_core(psi, module):
        calls["core"] += 1
        return core(psi, module)

    def counted_inf_char(module):
        calls["inf_char"] += 1
        return inf_char(module)

    monkeypatch.setattr(membership, "_decide_core", counted_core)
    monkeypatch.setattr(Module, "inf_char", counted_inf_char)

    def counts(fn, *args):
        calls.update(core=0, inf_char=0)
        fn(*args)
        return calls["core"], calls["inf_char"]

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
                    assert counts(fn, psi, *args) == (0, 0), (family, n, value, str(psi))
                    assert counts(fn, copy, *args) == (1, 1), (family, n, value, str(psi))
            twin = n + 1 - value
            if family == "pi" and value >= 1 and twin != value:
                assert counts(decide_pi, psi, n, twin)[0] == 1
                asked += 1
    assert asked


def test_member_characters_are_built_once_unchecked(monkeypatch):
    # the character recipe builds each character once, without the public
    # constructor's checks of its own signs and without sign_map for the
    # VANISHING flag; a user-built copy of a member takes the same recipe
    calls = {"post_init": 0, "sign_map": 0}
    post_init, sign_map = PacketCharacter.__post_init__, PacketCharacter.sign_map

    def counted_post_init(char):
        calls["post_init"] += 1
        return post_init(char)

    def counted_sign_map(char):
        calls["sign_map"] += 1
        return sign_map(char)

    monkeypatch.setattr(PacketCharacter, "__post_init__", counted_post_init)
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
    assert calls == {"post_init": 0, "sign_map": 0}
    # the counters do see the public constructor and sign_map
    PacketCharacter(1, (UnipotentBlock(0, 1),), (1,)).sign_map()
    assert calls == {"post_init": 1, "sign_map": 1}


def test_recorded_members_are_refused_as_their_copies():
    # rho_* read a member's route record first; every question the record
    # does not answer takes the copy's path, so refusals and their order
    # are the copy's: a bad token, a value outside the module's range, a
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
    calls = []

    def counted_module_of(*args):
        calls.append(args)
        return module_of(*args)

    monkeypatch.setattr(characters, "module_of", counted_module_of)
    asked = 0
    for family, n, value in modules(9):
        for psi in packets(family, n, value):
            for delta in (1, -1):
                RHO[family](psi, n, value, delta)
                asked += 1
                # sigma_{2k,k} members record pi_{2k}(k+1), which the
                # record-first check accepts for sigma_{2k,k} too
                assert calls == [], (family, n, value, str(psi))
                RHO[family](user_copy(psi), n, value, delta)
                assert calls == [(family, n, value)]
                calls.clear()
    assert asked
