"""The hot paths leave no reference cycles behind.

Whatever a packet question, an enumeration, a character or a command
allocates is freed by reference counting when it is dropped, so the cyclic
garbage collector has nothing to find.  A recursive helper that is a nested
closure calling itself (or closures calling each other) refers to itself
through its own cell, and each call would leave it, and whatever it holds,
as cyclic garbage: the cover walk (``params._walk``) and the JSON writer
(``cli._write``, ``cli._blocks``) are module-level functions handed their
memo instead.

Each action runs once first, so that caches, the command line's parser and
lazily imported modules are in place; its second run, with the collector
off, must leave ``gc.collect() == 0``.
"""

import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from sympacket import cli, params
from sympacket.characters import rho_pi_general, rho_sigma_general
from sympacket.membership import (
    decide_pi,
    decide_sigma,
    distinguished_parameter_sigma,
    enumerate_packets_pi,
    enumerate_packets_sigma,
)
from sympacket.params import ArthurParameter
from sympacket.weights import module_of

MODULES = [("pi", 6, 3), ("pi", 7, 6), ("pi", 8, 8), ("pi", 8, 0), ("sigma", 8, 2), ("sigma", 8, 4)]
ENUMERATE = {"pi": enumerate_packets_pi, "sigma": enumerate_packets_sigma}
RHO = {"pi": rho_pi_general, "sigma": rho_sigma_general}

PARAM = {
    "n": 2,
    "unipotent": [{"char": "sgn", "dim": 3}, {"char": "triv", "dim": 1}, {"char": "sgn", "dim": 1}],
    "discrete": [],
}


def cyclic_garbage(action):
    """The number of objects ``gc.collect()`` finds after a second run of
    ``action`` with the collector off."""
    action()
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


def enumerate_module(family, n, value):
    return lambda: ENUMERATE[family](n, value)


def characters_of_members(family, n, value):
    def action():
        # freshly enumerated, so that each member's first ask runs the recipe
        rho = RHO[family]
        return [(rho(psi, n, value, 1), rho(psi, n, value, -1)) for psi, _ in ENUMERATE[family](n, value)]

    return action


@pytest.mark.parametrize("family, n, value", MODULES)
def test_enumeration_leaves_no_cyclic_garbage(family, n, value):
    assert cyclic_garbage(enumerate_module(family, n, value)) == 0


def test_a_cover_walk_that_raises_leaves_no_cyclic_garbage(monkeypatch):
    # the walk's memo must be freed when the walk raises, too: the sixth
    # step of the search raises, after the memo holds entries
    steps = params._first_steps
    calls = 0

    def failing(*args):
        nonlocal calls
        calls += 1
        if calls > 5:
            raise RuntimeError("step refused")
        return steps(*args)

    entries = module_of("pi", 8, 4).inf_char()
    monkeypatch.setattr(params, "_first_steps", failing)
    gc.collect()
    gc.disable()
    try:
        try:
            params._all_segment_covers(entries)
        except RuntimeError:
            pass
        found = gc.collect()
    finally:
        gc.enable()
    assert calls == 6
    assert found == 0


@pytest.mark.parametrize("family, n, value", MODULES)
def test_member_characters_leave_no_cyclic_garbage(family, n, value):
    assert cyclic_garbage(characters_of_members(family, n, value)) == 0


def test_user_built_decisions_leave_no_cyclic_garbage():
    # user-built copies of members, unmarked: validated and decided, as
    # members of their own module and as questions about pi_n(3)
    copies = [
        (family, n, value, ArthurParameter(psi.n, psi.unipotent, psi.discrete))
        for family, n, value in MODULES
        for psi, _ in ENUMERATE[family](n, value)
    ]

    def action():
        return (
            [decide_pi(psi, n, 3) for _, n, _, psi in copies],
            [RHO[family](psi, n, value, 1) for family, n, value, psi in copies],
            decide_sigma(distinguished_parameter_sigma(8, 3), 8, 3),
        )

    decisions = action()[0]
    assert any(verdict.member for verdict in decisions)
    assert not all(verdict.member for verdict in decisions)
    assert cyclic_garbage(action) == 0


def main_quietly(argv):
    def action():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return action


COMMANDS = [
    ["enumerate-pi", "7", "5"],
    ["enumerate-sigma", "8", "3"],
    ["decide", "--param", json.dumps(PARAM), "--pi", "1"],
    ["rho", "--param", json.dumps(PARAM), "--module", "pi", "--m", "2"],
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_commands_leave_no_cyclic_garbage(fmt, argv):
    action = main_quietly(["--format", fmt, *argv])
    code, out, _ = action()
    assert code in (0, 3) and out
    assert cyclic_garbage(action) == 0


def test_a_refusal_leaves_no_cyclic_garbage():
    bad = dict(PARAM, unipotent=[{"char": "triv", "dim": "five"}])
    action = main_quietly(["decide", "--param", json.dumps(bad), "--pi", "1"])
    code, _, err = action()
    assert code == 2 and "BLOCK_SHAPE" in err
    assert cyclic_garbage(action) == 0
