"""Parameters built by the enumerators record their infinitesimal character
(``params._trusted_param``), and packet members also the route (which
names its module) that admitted them; the public deciders and characters read the records
instead of validating and deciding.  The records must never lie, must be
invisible to equality, hashing, order, printing and the wire format, and
must give the same answers and refusals as a user-built copy of the same
parameter, which carries no record and is validated and decided."""

import dataclasses

import pytest

from sympacket import cli, membership
from sympacket.characters import rho_pi_general, rho_sigma_general
from sympacket.membership import (
    decide_pi,
    decide_sigma,
    enumerate_packets_pi,
    enumerate_packets_sigma,
)
from sympacket.params import (
    ArthurParameter,
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


def test_recorded_and_user_built_parameters_get_the_same_answers():
    # for each module, every parameter with its character, members and not:
    # the verdict and both characters (or the non-member refusal) agree
    for family, n, value in modules(8):
        chi = inf_char_of_weight(weight(family, n, value))
        members = set(packets(family, n, value))
        for psi in enumerate_params(chi, n):
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


def test_members_refused_by_another_module_alike():
    # each member against a module of its rank whose packet it is not in,
    # one with the same character where there is one (pi_n(m) and
    # pi_n(n+1-m) share theirs), else one with another character
    for family, n, value in modules(8):
        entries = inf_char_of_weight(weight(family, n, value)).entries
        others = sorted(
            (module for module in modules(n) if module[1] == n),
            key=lambda module: inf_char_of_weight(weight(*module)).entries != entries,
        )
        for psi in packets(family, n, value):
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
