"""The command line's table of well-formed argvs (``cli._table_parse``).

The top-level parser compiles a table from its own actions and parses a
well-formed argv with it; argparse parses every other argv.  The table must
decline an argv, or return exactly the namespace argparse returns for it,
and only where argparse accepts it.  Every subcommand must compile into the
table, or its argvs would silently fall back to argparse's slower parse.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympacket
from sympacket import cli

WORKED = json.dumps({
    "n": 2,
    "unipotent": [{"char": "sgn", "dim": 3}, {"char": "triv", "dim": 1},
                  {"char": "sgn", "dim": 1}],
    "discrete": [],
})

# each subcommand's number of positionals and its options
SHAPES = {
    "enumerate-pi": (2, ()),
    "enumerate-sigma": (2, ()),
    "decide": (0, ("--param", "--pi", "--sigma", "--regular")),
    "rho": (0, ("--param", "--module", "--m", "--k", "--whittaker")),
    "invariants": (2, ("--delta",)),
    "howe": (0, ("--p", "--q", "--char", "--eta", "--tau", "--rank", "--delta")),
    "standard": (3, ()),
    "tableau": (2, ()),
    "cohind": (3, ("--t", "--scalar-m", "--weight")),
}
OPTIONS = sorted({"--format", "--help", "-h"}.union(*(o for _, o in SHAPES.values())))
NAMES = sorted(SHAPES) + OPTIONS

INTS = st.integers(-3, 12).map(str)
VALUES = st.one_of(
    INTS,
    st.sampled_from([
        "json", "text", "xml", "pi", "sigma", "triv", "det", "sgn", "sgn-det",
        "1,-2", "", " 3", "+1", "３", WORKED, '{"n": 1, "unipotent": [], "discrete": []}',
        "{not json",
    ]),
    # tokens that start as an option does
    st.sampled_from(["-1,-1", "-1,x", "-1.5", "-３", "-", "--", "-h", "--help", "--pi", "-x"]),
)
# the values an option takes, most of the time: these words, else integers
WORDS = {
    "--format": ("json", "text"),
    "--param": (WORKED, "-1,-1", "-x"),
    "--module": ("pi", "sigma"),
    "--char": ("triv", "det", "sgn", "sgn-det"),
    "--eta": ("triv", "sgn"),
    "--weight": ("-1,-1", "1,-2", "-1,x"),
    "standard": ("pi", "sigma"),
}


def _value(name):
    usual = st.sampled_from(WORDS[name]) if name in WORDS else INTS
    return st.integers(0, 3).flatmap(lambda r: usual if r else VALUES)
TOKENS = st.one_of(
    VALUES,
    st.sampled_from(NAMES),
    st.sampled_from(NAMES).flatmap(lambda name: st.integers(1, len(name)).map(
        lambda k: name[:k])),
    st.tuples(st.sampled_from(OPTIONS), VALUES).map("=".join),
)


@st.composite
def argvs(draw):
    """A token list, or (three times as often) a subcommand's argv of about
    the right shape with at most one token put in anywhere."""
    if not draw(st.integers(0, 3)):
        return draw(st.lists(TOKENS, max_size=10))
    command = draw(st.sampled_from(sorted(SHAPES)))
    count, options = SHAPES[command]
    argv = draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))
    argv = argv + [command] + [draw(_value(command if i == 0 else "")) for i in range(count)]
    chosen = draw(st.permutations(options))[: draw(st.integers(0, len(options)))]
    for option in chosen:
        argv += [option, draw(_value(option))]
    if not draw(st.integers(0, 2)):
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


def _plain_parser():
    """The command line's parser with its table switched off: argparse alone."""
    parser = cli.build_parser()
    parser._table = None
    return parser


PLAIN = _plain_parser()
TABLE = cli.build_parser()._table


def _fields(namespace):
    return [(key, type(value), value) for key, value in vars(namespace).items()]


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_table_declines_or_parses_as_argparse(argv):
    fast = cli._table_parse(TABLE, argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # -h prints help
            plain = PLAIN.parse_args(argv)
    except (cli.UsageError, SystemExit):
        assert fast is None, argv
    else:
        assert fast is None or _fields(fast) == _fields(plain), argv


WELL_FORMED = {
    "enumerate-pi": ["enumerate-pi", "3", "1"],
    "enumerate-sigma": ["--format", "text", "enumerate-sigma", "4", "2"],
    "decide": ["decide", "--param", WORKED, "--pi", "1"],
    "rho": ["rho", "--param", WORKED, "--module", "pi", "--m", "1", "--whittaker", "-1"],
    "invariants": ["invariants", "2", "2", "--delta", "-1"],
    "howe": ["howe", "--p", "0", "--q", "4", "--char", "det", "--rank", "5"],
    "standard": ["standard", "sigma", "5", "2"],
    "tableau": ["tableau", "3", "1"],
    "cohind": ["cohind", "2", "1", "1", "--t", "1", "--weight", "-1,-1"],
}


@pytest.fixture
def argparse_refuses(monkeypatch):
    """argparse's own parse fails the test if it is reached."""
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)


def test_every_subcommand_compiles_into_the_table():
    assert sorted(TABLE[2]) == sorted(SHAPES) == sorted(WELL_FORMED)
    for argv in WELL_FORMED.values():
        assert _fields(cli._table_parse(TABLE, argv)) == _fields(PLAIN.parse_args(argv))


@pytest.mark.parametrize("token", ["-1,-1", "-1,x", "--", "-h", "--pi", "-x"])
def test_a_value_argparse_reads_as_an_option_is_declined(token):
    # only cohind reads a list led by a negative entry as a value
    argv = ["decide", "--param", token, "--pi", "1"]
    assert cli._table_parse(TABLE, argv) is None
    with pytest.raises(cli.UsageError, match="expected one argument"):
        PLAIN.parse_args(argv)


def test_well_formed_argvs_take_the_table(capsys, monkeypatch, argparse_refuses):
    for name, argv in WELL_FORMED.items():
        assert cli.main(argv) == 0, name
    capsys.readouterr()
    # the entry point passes no argv: the table reads sys.argv
    monkeypatch.setattr(sys, "argv", ["sympacket", "tableau", "3", "1"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == "tableau"


# runs each argv through cli.main and prints the subcommands the argv table
# compiled, then each exit code with the bytes written to stdout
RUN_WELL_FORMED = """
import io, json, sys
from sympacket import cli
table = cli._parser()._table
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.BytesIO()
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    code = cli.main(argv)
    sys.stdout.flush()
    runs.append([code, out.getvalue().hex()])
    sys.stdout = sys.__stdout__
print(json.dumps([table and sorted(table[2]), runs]))
"""


def test_well_formed_argvs_run_alike_on_every_supported_python():
    # pyproject.toml declares Python >= 3.10, and the table is compiled from
    # argparse's private attributes, which may differ between versions: each
    # other CPython 3.10-3.13 on PATH that starts must compile every
    # subcommand and print what this interpreter prints
    src = os.path.dirname(os.path.dirname(os.path.abspath(sympacket.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = json.dumps(list(WELL_FORMED.values()))

    def run(python):
        done = subprocess.run([python, "-c", RUN_WELL_FORMED, argvs], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, (python, done.stderr)
        return json.loads(done.stdout)

    expected = run(sys.executable)
    assert expected[0] == sorted(WELL_FORMED)
    assert [code for code, _ in expected[1]] == [0] * len(WELL_FORMED)
    others = []
    for name in ("python3.10", "python3.11", "python3.12", "python3.13"):
        python = shutil.which(name)
        if python is None:
            continue
        # a version manager's shim may be on PATH for a version it lacks
        probe = subprocess.run([python, "-c", "import sys; print(sys.version)"],
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0 or probe.stdout.strip() == sys.version:
            continue
        assert run(python) == expected, (name, probe.stdout)
        others.append(name)
    if not others:
        pytest.skip("no other CPython 3.10-3.13 starts here")
