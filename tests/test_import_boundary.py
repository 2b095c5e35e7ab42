"""Which modules a command loads, checked in a fresh interpreter.

The packet commands (``enumerate-*``, ``decide``, ``rho``) load none of the
side modules (``quadforms``, ``cohomology``, ``langlands``, ``tableaux``)
nor ``fractions``; each other command loads the one it uses.  The package
serves the side modules' names on first use.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import sympacket

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sympacket.__file__)))
SIDE = ["fractions", "sympacket.cohomology", "sympacket.langlands",
        "sympacket.quadforms", "sympacket.tableaux"]

# runs each argv through cli.main, then prints the exit codes and the
# modules of SIDE that are loaded
RUN_COMMANDS = """
import contextlib, io, json, sys
from sympacket import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, sorted(set(json.loads(sys.argv[2])) & sys.modules.keys())]))
"""

WORKED = json.dumps({
    "n": 2,
    "unipotent": [{"char": "sgn", "dim": 3}, {"char": "triv", "dim": 1},
                  {"char": "sgn", "dim": 1}],
    "discrete": [],
})
REGULAR = json.dumps({"n": 3, "unipotent": [{"char": "sgn", "dim": 5}],
                      "discrete": [{"t": 10, "a": 1}]})


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _commands(argvs):
    return _python("-c", RUN_COMMANDS, json.dumps(argvs), json.dumps(SIDE))


def test_packet_commands_load_no_side_module():
    argvs = [
        ["enumerate-pi", "6", "3"],
        ["--format", "text", "enumerate-sigma", "6", "2"],
        ["decide", "--param", WORKED, "--pi", "1"],
        ["decide", "--param", WORKED, "--sigma", "1"],
        ["decide", "--param", REGULAR, "--regular", "2"],
        ["rho", "--param", WORKED, "--module", "pi", "--m", "1", "--whittaker", "-1"],
        ["enumerate-pi", "13", "3"],
        ["enumerate-pi", "x", "1"],
    ]
    codes, loaded = _commands(argvs)
    assert codes == [0, 0, 0, 0, 0, 0, 2, 1]
    assert loaded == []


@pytest.mark.parametrize("argv, modules", [
    (["invariants", "2", "2"], ["sympacket.quadforms"]),
    (["howe", "--p", "2", "--q", "2", "--char", "triv", "--rank", "3"], ["sympacket.quadforms"]),
    (["standard", "pi", "3", "1"], ["sympacket.langlands"]),
    (["tableau", "3", "1"], ["sympacket.tableaux"]),
    (["cohind", "3", "1", "1"], ["fractions", "sympacket.cohomology"]),
])
def test_other_commands_load_only_their_module(argv, modules):
    assert _commands([argv]) == [[0], modules]


LAZY_NAMES = """
import json, sys
import sympacket
before = sorted(set(json.loads(sys.argv[1])) & sys.modules.keys())
listed = {"HalfIntVector", "rho_vectors", "SignedTableau", "cohomology"} <= set(dir(sympacket))
from sympacket import HalfIntVector, rho_vectors, SignedTableau
from sympacket.cohomology import HalfIntVector as H, rho_vectors as r
from sympacket.tableaux import SignedTableau as S
same = (HalfIntVector, rho_vectors, SignedTableau) == (H, r, S)
attribute = sympacket.StandardModule is sys.modules["sympacket.langlands"].StandardModule
try:
    sympacket.no_such_name
    missing = "no error"
except AttributeError as exc:
    missing = str(exc)
star = {}
exec("from sympacket import *", star)
print(json.dumps([before, listed, same, attribute, missing,
                  {"OrthCharacter", "tableaux", "decide_pi"} <= star.keys()]))
"""


def test_side_names_are_served_on_first_use():
    before, listed, same, attribute, missing, star = _python("-c", LAZY_NAMES, json.dumps(SIDE))
    assert before == []
    assert listed and same and attribute and star
    assert missing == "module 'sympacket' has no attribute 'no_such_name'"


def test_side_names_are_the_side_modules_public_names():
    # the package lists the side modules' names itself, so that importing it
    # imports none of them: each listed name must be its module's, public
    # and served once, and every public name but cohomology.RhoVectors,
    # which the package has never served, must be listed
    unlisted = set()
    for module, names in sympacket._SIDE_NAMES.items():
        side = importlib.import_module(f"sympacket.{module}")
        assert set(names) <= set(side.__all__), module
        for name in names:
            assert getattr(sympacket, name) is getattr(side, name), name
        unlisted |= {(module, name) for name in side.__all__ if name not in names}
    assert len(sympacket._SIDE_MODULE) == sum(map(len, sympacket._SIDE_NAMES.values()))
    assert unlisted == {("cohomology", "RhoVectors")}
