"""Parameters built by the enumerators record their infinitesimal character
(``params._trusted_param``), and the public deciders and characters read the
record instead of validating.  The record must never lie, must be invisible
to equality, hashing, order, printing and the wire format, and must give the
same answers and refusals as a user-built copy of the same parameter, which
carries no record and is validated."""

import dataclasses

import pytest

from sympacket import cli
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
from sympacket.weights import inf_char_of_weight, pi_nm, sigma_nk

FIELDS = {"n", "unipotent", "discrete"}
DECIDE = {"pi": decide_pi, "sigma": decide_sigma}
RHO = {"pi": rho_pi_general, "sigma": rho_sigma_general}


def recorded(psi):
    return vars(psi).get("_inf_char")


def user_copy(psi):
    return ArthurParameter(psi.n, psi.unipotent, psi.discrete)


def modules(max_n):
    """(family, n, value) of every pi_n(m) and sigma_{n,k} up to rank max_n."""
    for n in range(1, max_n + 1):
        for m in range(0, n + 1):
            yield "pi", n, m
        for k in range(1, n // 2 + 1):
            yield "sigma", n, k


def packets(family, n, value):
    enumerate_packets = {"pi": enumerate_packets_pi, "sigma": enumerate_packets_sigma}
    return [psi for psi, _ in enumerate_packets[family](n, value)]


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
