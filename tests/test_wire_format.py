"""Properties of the ``--param`` wire format (``cli.param_to_json`` /
``cli.param_from_json``) on parameters drawn from the enumerator: it round
trips, takes only JSON integers, refuses unknown fields at every level and
refuses blocks out of canonical order, each with exit 2 and one violation
code; a refused value is echoed whole only when short."""

import contextlib
import functools
import io
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sympacket import cli
from sympacket.params import enumerate_params
from sympacket.weights import inf_char_of_weight, pi_nm, sigma_nk

MODULES = [("pi", n, m) for n in range(1, 7) for m in range(n + 1)] + [
    ("sigma", n, k) for n in range(2, 7) for k in range(1, n // 2 + 1)
]
FIELDS = {(): {"n", "unipotent", "discrete"}, ("unipotent",): {"char", "dim"},
          ("discrete",): {"t", "a"}}


@functools.cache
def parameters(family, n, value):
    weight = pi_nm(n, value) if family == "pi" else sigma_nk(n, value)
    return enumerate_params(inf_char_of_weight(weight), n)


@st.composite
def enumerated(draw):
    module = draw(st.sampled_from(MODULES))
    return draw(st.sampled_from(parameters(*module)))


def refusal(blob):
    """The exit code, standard output and violations of ``decide`` on a
    wire object."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["decide", "--param", json.dumps(blob), "--pi", "0"])
    return code, out.getvalue(), json.loads(err.getvalue())["violations"]


@given(enumerated())
@settings(max_examples=200, deadline=None)
def test_wire_round_trip(psi):
    assert cli.param_from_json(json.loads(json.dumps(cli.param_to_json(psi)))) == psi


NOT_INTEGERS = st.one_of(st.floats(), st.booleans(), st.text(max_size=5))


@given(enumerated(), st.data(), NOT_INTEGERS)
@settings(max_examples=200, deadline=None)
def test_non_integer_fields_are_refused(psi, data, value):
    blob = cli.param_to_json(psi)
    places = [(blob, "n")]
    places += [(block, "dim") for block in blob["unipotent"]]
    places += [(block, key) for block in blob["discrete"] for key in ("t", "a")]
    target, key = data.draw(st.sampled_from(places))
    target[key] = value
    assert refusal(blob) == (2, "", ["BLOCK_SHAPE"])


@given(enumerated(), st.data(), st.text(max_size=8))
@settings(max_examples=200, deadline=None)
def test_unknown_fields_are_refused_at_every_level(psi, data, key):
    blob = cli.param_to_json(psi)
    places = [((), blob)]
    places += [((kind,), block) for kind in ("unipotent", "discrete") for block in blob[kind]]
    level, target = data.draw(st.sampled_from(places))
    assume(key not in FIELDS[level])
    target[key] = 1
    assert refusal(blob) == (2, "", [f"UNKNOWN_FIELD:{key}"])


@given(enumerated(), st.data())
@settings(max_examples=200, deadline=None)
def test_shuffled_blocks_are_refused(psi, data):
    blob = cli.param_to_json(psi)
    shuffled = {
        kind: data.draw(st.permutations(blob[kind])) for kind in ("unipotent", "discrete")
    }
    assume(any(shuffled[kind] != blob[kind] for kind in shuffled))
    blob.update(shuffled)
    assert refusal(blob) == (2, "", ["ORDER"])


def refusal_text(blob):
    """The exit code and standard error of ``decide`` on a wire object."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["decide", "--param", json.dumps(blob), "--pi", "0"])
    assert out.getvalue() == ""
    return code, err.getvalue()


def test_over_long_refused_values_are_echoed_cut_short():
    # a refused field or character is echoed whole when its repr has at
    # most 80 characters; a longer one is cut there and named by its type
    # and length, so the exit-2 report stays short whatever the value
    long_values = [
        ("x" * 500_000, "(str of length 500000)"),
        (list(range(50_000)), "(list of length 50000)"),
        ({str(i): i for i in range(1000)}, "(dict of length 1000)"),
    ]
    for value, named in long_values:
        for place in ("n", "dim", "t", "a", "char"):
            blob = {"n": 1, "unipotent": [{"char": "triv", "dim": 1}], "discrete": [{"t": 1, "a": 2}]}
            if place == "n":
                blob["n"] = value
            elif place in ("dim", "char"):
                blob["unipotent"][0][place] = value
            else:
                blob["discrete"][0][place] = value
            code, err = refusal_text(blob)
            report = json.loads(err)
            assert code == 2 and report["violations"] == ["BLOCK_SHAPE"], place
            assert len(err) < 400, (place, len(err))
            if place == "char" and not isinstance(value, str):
                # a list or dict is no key of the name table: "unhashable type"
                assert "unhashable type" in report["error"]
            else:
                assert report["error"].endswith(f"{repr(value)[:80]}... {named}"), place
    # an int past 80 digits has no len: the length is that of its repr
    code, err = refusal_text({"n": 1, "unipotent": [{"char": 10**100, "dim": 3}]})
    assert json.loads(err)["error"].endswith(f"{'1' + '0' * 79}... (int of length 101)")
    # a value of up to 80 characters is echoed whole
    for value in ("five", "x" * 78, [1.5] * 16):
        code, err = refusal_text({"n": 1, "unipotent": [{"char": "triv", "dim": value}]})
        assert code == 2
        assert json.loads(err)["error"] == f"malformed parameter: dim must be an integer, got {value!r}"
    code, err = refusal_text({"n": 1, "unipotent": [{"char": "x" * 78, "dim": 3}]})
    assert json.loads(err)["error"] == f"malformed parameter: unknown character {'x' * 78!r}"
