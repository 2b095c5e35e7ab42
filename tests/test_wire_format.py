"""Properties of the ``--param`` wire format (``cli.param_to_json`` /
``cli.param_from_json``) on parameters drawn from the enumerator: it round
trips, takes only JSON integers, refuses unknown fields at every level and
refuses blocks out of canonical order, each with exit 2 and one violation
code."""

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
