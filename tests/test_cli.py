import copy
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import sympacket
from sympacket import characters, cli, membership, params
from sympacket.params import ArthurParameter, DiscreteBlock, UnipotentBlock


WORKED_JSON = json.dumps(
    {
        "n": 2,
        "unipotent": [
            {"char": "sgn", "dim": 3},
            {"char": "triv", "dim": 1},
            {"char": "sgn", "dim": 1},
        ],
        "discrete": [],
    }
)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_worked_case(capsys):
    code, out, _ = run(capsys, ["decide", "--param", WORKED_JSON, "--pi", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["member"] is True
    assert report["results"]["route"] == "THM71_II_A1"
    assert report["results"]["oracle_agrees"] is True
    assert report["schema_version"] == 1


def test_enumerate_pi_worked_case(capsys):
    code, out, _ = run(capsys, ["enumerate-pi", "2", "1"])
    assert code == 0
    report = json.loads(out)
    packets = report["results"]["packets"]
    assert len(packets) == 1
    assert packets[0]["route"] == "THM71_II_A1"
    assert packets[0]["parameter"] == json.loads(WORKED_JSON)


def test_invariants(capsys):
    code, out, _ = run(capsys, ["invariants", "2", "0", "--delta", "-1"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["hasse"] == {"-1": -1}
    assert report["results"]["discriminant"] == -1


def test_parameter_roundtrip(capsys):
    from sympacket.params import enumerate_params
    from sympacket.weights import inf_char_of_weight, pi_nm

    # parse(print(psi)) is the identity on every canonical parameter
    for m in range(0, 3):
        chi = inf_char_of_weight(pi_nm(2, m))
        for psi in enumerate_params(chi, 2):
            assert cli.param_from_json(cli.param_to_json(psi)) == psi

    psi = ArthurParameter(
        5, (UnipotentBlock(0, 7),), (DiscreteBlock(1, 2),)
    ).canonical()
    blob = cli.param_to_json(psi)
    assert cli.param_from_json(blob) == psi
    code, out, _ = run(
        capsys, ["decide", "--param", json.dumps(blob), "--sigma", "2"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["parameter"] == blob
    assert report["results"]["member"] is True
    assert report["results"]["route"] == "SIGMA"


def test_malformed_parameter_exits_2(capsys):
    bad = json.dumps({"n": 2, "unipotent": [{"char": "triv", "dim": 3}], "discrete": []})
    code, _, err = run(capsys, ["decide", "--param", bad, "--pi", "1"])
    assert code == 2
    payload = json.loads(err)
    assert "DIM_SUM" in payload["violations"]

    unknown = json.dumps({"n": 1, "unipotent": [], "discrete": [], "bogus": 1})
    code, _, err = run(capsys, ["decide", "--param", unknown, "--pi", "0"])
    assert code == 2
    assert "UNKNOWN_FIELD:bogus" in json.loads(err)["violations"]

    disordered = json.dumps(
        {
            "n": 2,
            "unipotent": [
                {"char": "triv", "dim": 1},
                {"char": "sgn", "dim": 3},
                {"char": "sgn", "dim": 1},
            ],
            "discrete": [],
        }
    )
    code, _, err = run(capsys, ["decide", "--param", disordered, "--pi", "1"])
    assert code == 2
    assert "ORDER" in json.loads(err)["violations"]


def test_over_long_unknown_fields_are_named_cut_short(capsys):
    # a field name is kept whole in the message and in its UNKNOWN_FIELD
    # code while its repr has at most 80 characters; a longer one is echoed
    # as weights._echo writes it, and its code keeps its first 80
    # characters followed by "...", which no name given whole can spell
    def refusal(blob):
        code, out, err = run(capsys, ["decide", "--param", json.dumps(blob), "--pi", "0"])
        assert (code, out) == (2, "")
        assert len(err.encode()) <= 1024
        return json.loads(err)

    base = {"n": 1, "unipotent": [{"char": "triv", "dim": 3}], "discrete": []}
    long_name, cut = "x" * 300_000, "x" * 80 + "..."
    echo = f"'{'x' * 79}... (str of length 300000)"
    report = refusal({**base, long_name: 1})
    assert report["violations"] == [f"UNKNOWN_FIELD:{cut}"]
    assert report["error"] == f"unknown fields in parameter: [{echo}]"
    # the cut: 78 characters (a repr of 80) whole, 79 and more cut, and a
    # name with escapes by its repr but cut by its characters
    for name, code in [
        ("x" * 78, "x" * 78),
        ("x" * 79, "x" * 79 + "..."),
        ("x" * 81, "x" * 80 + "..."),
        ("\n" * 40, "\n" * 40 + "..."),
    ]:
        assert refusal({**base, name: 1})["violations"] == ["UNKNOWN_FIELD:" + code]
    # in a block, and next to short names, which keep the message's bytes
    short = ["bogus", "é", 'say "hi"', "it's"]
    block = {"char": "triv", "dim": 3, **dict.fromkeys(short + [long_name], 1)}
    report = refusal({**base, "unipotent": [block]})
    names = sorted(short + [long_name])
    assert report["violations"] == [
        f"UNKNOWN_FIELD:{cut if k == long_name else k}" for k in names
    ]
    assert report["error"] == "unknown fields in unipotent block: [{}]".format(
        ", ".join(echo if k == long_name else repr(k) for k in names)
    )
    assert refusal({**base, **dict.fromkeys(short, 1)})["error"] == (
        f"unknown fields in parameter: {sorted(short)}"
    )


def test_an_unknown_field_refusal_names_at_most_16_fields(capsys, tmp_path):
    # the first 16 unknown fields in sorted order are named, in the message
    # and in their UNKNOWN_FIELD codes; the message counts the rest
    def refusal(argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        return err, json.loads(err)

    base = {"n": 1, "unipotent": [{"char": "triv", "dim": 3}], "discrete": []}
    for count in (16, 17):
        names = sorted(f"k{i}" for i in range(count))
        err, report = refusal(
            ["decide", "--param", json.dumps({**base, **dict.fromkeys(names, 1)}), "--pi", "0"]
        )
        assert report["violations"] == [f"UNKNOWN_FIELD:{k}" for k in names[:16]]
        listed = f"unknown fields in parameter: {names[:16]}"
        assert report["error"] == (listed if count == 16 else listed + " and 1 more")
    # 80,000 short keys fill most of the 1 MiB --param cap
    path = tmp_path / "manykeys.json"
    path.write_text(json.dumps({**base, **{f"k{i}": 1 for i in range(80_000)}}))
    assert path.stat().st_size <= cli.MAX_PARAM_BYTES
    names = sorted(f"k{i}" for i in range(80_000))[:16]
    for fmt in ("json", "text"):
        err, report = refusal(["--format", fmt, "decide", "--param", str(path), "--pi", "1"])
        assert len(err.encode()) <= 1024
        assert report["violations"] == [f"UNKNOWN_FIELD:{k}" for k in names]
        assert report["error"] == f"unknown fields in parameter: {names} and 79984 more"


def test_usage_error_exits_1(capsys):
    assert cli.main(["decide", "--param", WORKED_JSON]) == 1
    assert cli.main(["nonsense"]) == 1


UNREADABLE = os.path.join("no-such-directory", "param.json")


@pytest.mark.parametrize(
    "param, argv, error",
    [
        (WORKED_JSON, ["--module", "pi", "--m", "1", "--k", "5"],
         "--k is not allowed with --module pi"),
        (WORKED_JSON, ["--module", "sigma", "--k", "1", "--m", "1"],
         "--m is not allowed with --module sigma"),
        # the flags are checked before --param is read
        (UNREADABLE, ["--module", "pi"], "--m is required with --module pi"),
        (UNREADABLE, ["--module", "pi", "--m", "1", "--k", "5"],
         "--k is not allowed with --module pi"),
        (UNREADABLE, ["--module", "sigma", "--k", "1", "--m", "1"],
         "--m is not allowed with --module sigma"),
    ],
    ids=[
        "pi-with-k",
        "sigma-with-m",
        "unreadable-param-pi-without-m",
        "unreadable-param-pi-with-k",
        "unreadable-param-sigma-with-m",
    ],
)
def test_rho_refuses_the_value_flag_of_the_other_module(capsys, param, argv, error):
    # refused as a missing flag is, not silently dropped
    code, out, err = run(capsys, ["rho", "--param", param] + argv)
    assert (code, out, err) == (1, "", f"usage error: {error}\n")


def test_rho_discrepancy_exit_3(capsys):
    # unipotent member of the sigma_{5,2} packet with a trivial rank-one
    # block: the two printed character recipes disagree on this row
    psi = json.dumps(
        {
            "n": 5,
            "unipotent": [
                {"char": "triv", "dim": 7},
                {"char": "triv", "dim": 3},
                {"char": "triv", "dim": 1},
            ],
            "discrete": [],
        }
    )
    code, out, _ = run(
        capsys, ["rho", "--param", psi, "--module", "sigma", "--k", "2"]
    )
    assert code == 3
    report = json.loads(out)
    assert report["results"]["table_agrees"] is False
    assert "discrepancy" in report["results"]


def test_rho_agreeing_case_exit_0(capsys):
    code, out, _ = run(
        capsys,
        ["rho", "--param", WORKED_JSON, "--module", "pi", "--m", "1", "--whittaker", "-1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["table_agrees"] is True
    char = report["results"]["character"]
    assert sorted(char["signs"]) in ([-1, -1, 1], [1, 1, 1], [-1, 1, 1], [-1, -1, -1])


def test_standard_and_tableau_and_howe_and_cohind(capsys):
    code, out, _ = run(capsys, ["standard", "sigma", "5", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["max_exponent"] == 3
    assert report["results"]["exponents"] == [
        {"sgn_power": 0, "exponent": 3},
        {"sgn_power": 0, "exponent": 1},
    ]

    code, out, _ = run(capsys, ["tableau", "3", "1"])
    report = json.loads(out)
    assert code == 0
    assert report["results"]["chain_index"] == 2
    assert sorted(report["results"]["rows"]) == ["+", "+-", "+-", "-"]

    code, out, _ = run(
        capsys,
        ["howe", "--p", "0", "--q", "4", "--eta", "triv", "--tau", "0", "--rank", "3"],
    )
    report = json.loads(out)
    assert code == 0
    assert report["results"]["ktype"] == [-2, -2, -2]
    assert report["results"]["first_occurrence"] == 0

    code, out, _ = run(
        capsys,
        ["howe", "--p", "0", "--q", "4", "--char", "det", "--rank", "5"],
    )
    report = json.loads(out)
    assert code == 0
    assert report["results"]["first_occurrence"] == 4
    assert report["results"]["degree"] == 4
    assert cli.main(["howe", "--p", "0", "--q", "4", "--rank", "5"]) == 1

    code, out, _ = run(capsys, ["cohind", "4", "1", "2", "--t", "3"])
    report = json.loads(out)
    assert code == 0
    assert report["results"]["S"] == 1 * 3 + 1 * 2
    assert report["results"]["delta_u"]["half"] is True
    assert report["results"]["weakly_fair"] is True


def test_weight_may_lead_with_a_negative_entry(capsys):
    # -1,-1 is a value of --weight, as -1 is and as --weight=-1,-1 reads it
    argv = ["cohind", "2", "1", "1", "--t", "1"]
    spaced = run(capsys, argv + ["--weight", "-1,-1"])
    assert spaced == run(capsys, argv + ["--weight=-1,-1"])
    assert spaced[0] == 0
    assert json.loads(spaced[1])["inputs"]["weight"] == [-1, -1]
    # a token that is not a list of integers still reads as an option
    code, _, err = run(capsys, argv + ["--weight", "-1,x"])
    assert code == 1 and "expected one argument" in err


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--scalar-m", "2"], "--scalar-m needs --t"),
        (["--weight", "9,9"], "--weight needs --t"),
        (["--weight", ""], "--weight needs --t"),
        (["--weight=9,9", "--scalar-m", "2"], "--scalar-m needs --t"),
    ],
    ids=["scalar-m", "weight", "empty-weight", "both"],
)
def test_cohind_flags_need_t(capsys, flags, error):
    # refused as a usage mistake, not dropped from the report; checked
    # before any work, so a rank past the report bound is not reached
    for n in ("2", "100000"):
        code, out, err = run(capsys, ["cohind", n, "1", "1"] + flags)
        assert (code, out, err) == (1, "", f"usage error: {error}\n")


def test_cohind_empty_weight_is_refused(capsys):
    for weight in (["--weight", ""], ["--weight="]):
        code, out, err = run(capsys, ["cohind", "2", "1", "1", "--t", "1"] + weight)
        assert (code, out) == (2, "")
        assert json.loads(err)["violations"] == ["WEIGHT_SHAPE"]


# texts int() reads as an integer that JSON would not write
NOT_JSON_INTEGERS = [" 3", "3 ", "+3", "03", "-0", "1_0", "３", "٣"]


@pytest.mark.parametrize("text", NOT_JSON_INTEGERS)
def test_integer_arguments_are_read_as_json_writes_them(capsys, text):
    for argv in (
        ["enumerate-pi", text, "1"],
        ["tableau", "3", text],
        ["decide", "--param", WORKED_JSON, "--pi", text],
        ["rho", "--param", WORKED_JSON, "--module", "pi", "--m", "1", "--whittaker", text],
        ["cohind", "3", "1", "1", "--t", text],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert f"invalid int value: {text!r}" in err, argv
    code, out, err = run(capsys, ["cohind", "3", "1", "1", "--t", "2", "--weight=1," + text])
    assert (code, out) == (2, "")
    assert json.loads(err)["violations"] == ["WEIGHT_SHAPE"]


def test_json_integers_are_taken(capsys):
    assert run(capsys, ["tableau", "10", "0"])[0] == 0
    code, out, _ = run(capsys, ["cohind", "3", "1", "1", "--t", "-2", "--weight", "2,1,0"])
    assert code == 0
    assert json.loads(out)["inputs"]["t"] == -2


def test_decide_regular(capsys):
    psi = json.dumps(
        {
            "n": 3,
            "unipotent": [{"char": "sgn", "dim": 5}],
            "discrete": [{"t": 10, "a": 1}],
        }
    )
    code, out, _ = run(capsys, ["decide", "--param", psi, "--regular", "2"])
    assert code == 0
    assert json.loads(out)["results"]["member"] is True
    code, out, _ = run(capsys, ["decide", "--param", psi, "--regular", "1"])
    assert code == 0
    assert json.loads(out)["results"]["member"] is False
    # out-of-range ladder index is a validation error
    code, _, err = run(capsys, ["decide", "--param", psi, "--regular", "3"])
    assert code == 2


def test_text_format(capsys):
    code, out, _ = run(capsys, ["--format", "text", "enumerate-pi", "2", "1"])
    assert code == 0
    assert "# enumerate-pi" in out
    assert "[results]" in out


# a member of the pi_2(2) packet with a discrete block
DISCRETE = {
    "n": 2,
    "unipotent": [{"char": "triv", "dim": 1}],
    "discrete": [{"t": 1, "a": 2}],
}


@pytest.mark.parametrize(
    "base, path, value",
    [
        (json.loads(WORKED_JSON), ("unipotent", 0, "dim"), 3.9),
        (json.loads(WORKED_JSON), ("unipotent", 0, "dim"), "3"),
        (json.loads(WORKED_JSON), ("n",), 2.0),
        (DISCRETE, ("discrete", 0, "t"), "1"),
        (json.loads(WORKED_JSON), ("unipotent", 1, "dim"), True),
        (DISCRETE, ("discrete", 0, "a"), 2.0),
    ],
    ids=["dim-3.9", "dim-string-3", "n-2.0", "t-string-1", "dim-true", "a-2.0"],
)
def test_non_integer_numbers_exit_2(capsys, base, path, value):
    # the wire format takes JSON integers as they are: no bool, float or
    # numeric string is coerced, even when it names an integer
    assert cli.main(["decide", "--param", json.dumps(base), "--pi", "2"]) == 0
    capsys.readouterr()
    bad = copy.deepcopy(base)
    *where, key = path
    target = bad
    for step in where:
        target = target[step]
    target[key] = value
    code, out, err = run(capsys, ["decide", "--param", json.dumps(bad), "--pi", "2"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["violations"] == ["BLOCK_SHAPE"]


def test_inline_json_array_is_not_a_file_name(capsys):
    code, _, err = run(capsys, ["decide", "--param", '[{"n": 2}]', "--pi", "1"])
    assert code == 2
    payload = json.loads(err)
    assert payload["violations"] == ["BLOCK_SHAPE"]
    assert "JSON object" in payload["error"]


def _trivial_param(n):
    # triv ⊠ R[2n+1]: a ~100-byte parameter whose character has 2n+1 entries
    return json.dumps({"n": n, "unipotent": [{"char": "triv", "dim": 2 * n + 1}],
                       "discrete": []})


def test_report_rank_is_bounded(capsys):
    howe = ["howe", "--p", "2", "--q", "2", "--char", "triv", "--rank"]
    # no larger rank: a regression then fails in seconds, not out of memory
    params = [_trivial_param(cli.MAX_REPORT_RANK + 1), _trivial_param(10**6)]
    for argv in (
        ["tableau", "100000", "3"],
        ["cohind", "100000", "1", "2"],
        ["standard", "pi", "400000", "3"],
        ["standard", "sigma", "400000", "3"],
        howe + ["400000"],
        ["--format", "text"] + howe + [str(cli.MAX_REPORT_RANK + 1)],
        *(["decide", "--param", param, "--pi", "0"] for param in params),
        *(["rho", "--param", param, "--module", "pi", "--m", "0"] for param in params),
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["violations"] == ["RANK_BOUND"]
    bound = str(cli.MAX_REPORT_RANK)
    assert cli.main(["tableau", bound, "3"]) == 0
    assert cli.main(["cohind", bound, "1", "2"]) == 0
    assert cli.main(["standard", "pi", bound, "3"]) == 0
    assert cli.main(["standard", "sigma", bound, "3"]) == 0
    assert cli.main(howe + [bound]) == 0
    param = _trivial_param(cli.MAX_REPORT_RANK)
    assert cli.main(["decide", "--param", param, "--pi", "0"]) == 0
    assert cli.main(["rho", "--param", param, "--module", "pi", "--m", "0"]) == 0
    capsys.readouterr()


def test_enumerate_and_rho_reports_match_the_library(capsys):
    from sympacket import characters, membership
    from sympacket.params import enumerate_params
    from sympacket.weights import inf_char_of_weight, pi_nm, sigma_nk

    for n in range(1, 6):
        for family, values in (("pi", range(0, n + 1)), ("sigma", range(1, n // 2 + 1))):
            for value in values:
                code, out, _ = run(capsys, [f"enumerate-{family}", str(n), str(value)])
                assert code == 0
                results = json.loads(out)["results"]
                weight = pi_nm(n, value) if family == "pi" else sigma_nk(n, value)
                chi = inf_char_of_weight(weight)
                assert results["parameters_with_inf_char"] == len(enumerate_params(chi, n))
                if family == "pi":
                    packets = membership.enumerate_packets_pi(n, value)
                    rho, label = characters.rho_pi_general, "--m"
                else:
                    packets = membership.enumerate_packets_sigma(n, value)
                    rho, label = characters.rho_sigma_general, "--k"
                assert [p["parameter"] for p in results["packets"]] == [
                    cli.param_to_json(psi) for psi, _ in packets
                ]
                assert [p["route"] for p in results["packets"]] == [
                    v.route for _, v in packets
                ]
                # the command decides once and reuses the verdict; its
                # character is the one the public recipe gives
                for psi, _ in packets:
                    for delta in (1, -1):
                        code, out, _ = run(
                            capsys,
                            ["rho", "--param", json.dumps(cli.param_to_json(psi)),
                             "--module", family, label, str(value),
                             "--whittaker", str(delta)],
                        )
                        assert code in (0, 3)
                        assert json.loads(out)["results"]["character"] == (
                            cli._character_to_json(rho(psi, n, value, delta))
                        )


def test_enumerate_counts_every_parameter_with_the_character(capsys):
    # the count covers every parameter, also those on covers whose
    # parameters the command never builds; every m and k at ranks 1-11
    # (ranks 10-11 add about 2 s, most of it in enumerate_params)
    from sympacket.params import enumerate_params
    from sympacket.weights import inf_char_of_weight, pi_nm, sigma_nk

    for n in range(1, 12):
        for family, weight, values in (
            ("pi", pi_nm, range(0, n + 1)),
            ("sigma", sigma_nk, range(1, n // 2 + 1)),
        ):
            for value in values:
                code, out, _ = run(capsys, [f"enumerate-{family}", str(n), str(value)])
                assert code == 0
                chi = inf_char_of_weight(weight(n, value))
                assert json.loads(out)["results"]["parameters_with_inf_char"] == len(
                    enumerate_params(chi, n)
                ), (family, n, value)


def test_enumerate_searches_no_covers(capsys, monkeypatch):
    # the enumerator builds each route's covers directly and the report's
    # parameter count is closed form, so the command takes no cover-search
    # step, as the enumerator takes none, for a pi and a sigma module
    calls = []
    first_steps = params._first_steps

    def counted(half, bound):
        calls.append((half, bound))
        return first_steps(half, bound)

    monkeypatch.setattr(params, "_first_steps", counted)
    for argv, enumerate_packets in (
        (["enumerate-pi", "9", "5"], lambda: membership.enumerate_packets_pi(9, 5)),
        (["enumerate-sigma", "8", "3"], lambda: membership.enumerate_packets_sigma(8, 3)),
    ):
        assert enumerate_packets()
        assert calls == [], argv
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == [], argv
    # the counter sees a search
    params._all_segment_covers(membership.module_of("pi", 3, 1).inf_char())
    assert calls


def test_repeated_calls_match_a_fresh_parser(capsys):
    # main builds its parser once per process; a sequence of calls, usage
    # errors among them, must print what a newly built parser prints
    member = json.dumps(DISCRETE)
    sequence = [
        ["enumerate-pi", "4", "3"],
        ["decide", "--param", WORKED_JSON],
        ["--format", "text", "enumerate-sigma", "5", "2"],
        ["decide", "--param", WORKED_JSON, "--pi", "1"],
        ["nonsense"],
        ["rho", "--param", member, "--module", "pi", "--m", "2", "--whittaker", "-1"],
        ["--format", "text", "decide", "--param", member, "--pi", "2"],
        ["rho", "--param", WORKED_JSON, "--module", "pi"],
        ["--format", "text", "rho", "--param", WORKED_JSON, "--module", "pi", "--m", "1"],
        ["enumerate-pi", "3", "5"],
        ["enumerate-pi", "4", "3"],
    ]
    cached = [run(capsys, argv) for argv in sequence]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 0, 0, 1, 0, 0, 1, 0, 2, 0]


@pytest.mark.parametrize(
    "argv, violation, error",
    [
        (["enumerate-pi", "13", "3"], "RANK_BOUND", "rank 13 exceeds the enumeration cap 12"),
        (["enumerate-pi", "3", "5"], "RANGE", "need 0 <= m <= n, got m=5, n=3"),
        (["enumerate-sigma", "5", "3"], "RANGE", "need 2 <= 2k <= n, got k=3, n=5"),
        (
            ["rho", "--param", WORKED_JSON, "--module", "pi", "--m", "5"],
            "RANGE",
            "need 0 <= m <= n, got m=5",
        ),
        (
            ["rho", "--param", json.dumps(DISCRETE), "--module", "pi", "--m", "1"],
            "NOT_MEMBER",
            "packet does not contain the scalar module",
        ),
        (["decide", "--param", "{not json", "--pi", "1"], "PARAM_JSON", "parameter is not valid JSON"),
        (
            ["cohind", "4", "1", "2", "--t", "3", "--weight", "1,x"],
            "WEIGHT_SHAPE",
            "invalid literal for int()",
        ),
        (
            ["howe", "--p", "2", "--q", "2", "--char", "triv", "--rank", "-5"],
            "RANGE",
            "rank must be nonnegative, got -5",
        ),
    ],
    ids=["enumeration-cap", "pi-range", "sigma-range", "rho-range", "rho-non-member",
         "invalid-json", "weight-not-integers", "howe-negative-rank"],
)
def test_every_exit_2_names_a_violation(capsys, argv, violation, error):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["violations"] == [violation]
    assert payload["error"].startswith(error)


def test_unreadable_parameter_file_names_a_violation(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    # bytes no UTF-8 text holds, before JSON that would parse
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'\xff\xfe{"n": 1}')
    for path, reason in ((missing, ""), (latin, "'utf-8' codec")):
        code, out, err = run(capsys, ["decide", "--param", str(path), "--pi", "1"])
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["violations"] == ["PARAM_UNREADABLE"]
        assert payload["error"].startswith("cannot read parameter file"), path
        assert reason in payload["error"]


def test_oversized_parameter_file_is_refused(capsys, tmp_path):
    # only MAX_PARAM_BYTES + 1 bytes are read, so an endless file is refused
    # at once and an oversized regular file without being read whole
    limit = cli.MAX_PARAM_BYTES
    fits = tmp_path / "fits.json"
    fits.write_text(WORKED_JSON + " " * (limit - len(WORKED_JSON)), encoding="utf-8")
    assert fits.stat().st_size == limit
    assert run(capsys, ["decide", "--param", str(fits), "--pi", "1"])[0] == 0
    oversized = tmp_path / "oversized.json"
    oversized.write_text(WORKED_JSON + " " * (limit + 1 - len(WORKED_JSON)), encoding="utf-8")
    code, out, err = run(capsys, ["decide", "--param", str(oversized), "--pi", "1"])
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["violations"] == ["PARAM_UNREADABLE"]
    assert payload["error"] == f"parameter file is longer than {limit} bytes"

    if not os.path.exists("/dev/zero"):
        return
    src = os.path.dirname(os.path.dirname(os.path.abspath(sympacket.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "sympacket", "decide", "--param", "/dev/zero", "--pi", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert json.loads(done.stderr) == payload


def test_parameter_file_reads_as_text(capsys, tmp_path):
    # a file is decoded as a text-mode read decodes it: CRLF line ends become
    # LF before the JSON decoder counts positions
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{\r\n  "n": 2,\r\n  oops\r\n}')
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(path.read_text(encoding="utf-8"))
    code, _, err = run(capsys, ["decide", "--param", str(path), "--pi", "1"])
    assert code == 2
    payload = json.loads(err)
    assert payload["violations"] == ["PARAM_JSON"]
    assert payload["error"] == f"parameter is not valid JSON: {expected.value}"


def test_deeply_nested_parameter_names_a_violation(capsys, tmp_path):
    # nested deeper than the JSON decoder's stack, inline and in a file
    deep = "[" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep, encoding="utf-8")
    for spec in (deep, str(path)):
        code, out, err = run(capsys, ["decide", "--param", spec, "--pi", "1"])
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["violations"] == ["PARAM_JSON"]
        assert payload["error"].startswith("parameter is nested too deeply")


def test_overlong_integer_in_a_parameter_is_not_json(capsys, tmp_path):
    # json.loads refuses an integer longer than the interpreter's digit limit
    # (4,300 digits by default) with a plain ValueError, not JSONDecodeError
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    spec = '{"n": ' + "9" * (limit + 1) + ', "unipotent": []}'
    path = tmp_path / "long.json"
    path.write_text(spec, encoding="utf-8")
    for param in (spec, str(path)):
        code, out, err = run(capsys, ["decide", "--param", param, "--pi", "1"])
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["violations"] == ["PARAM_JSON"]
        assert payload["error"].startswith("parameter is not valid JSON: ")


def test_reports_write_parameters_from_the_records(capsys, monkeypatch):
    # a report holds each parameter and character as it is; the writer
    # writes them, and each of their blocks, from their fields, and never
    # builds a wire dict: of a parameter, a character or a block
    built = []

    def counted(to_json):
        def wrapper(value):
            built.append((to_json.__name__, value))
            return to_json(value)
        return wrapper

    for name in ("param_to_json", "_character_to_json", "_block_to_json"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    for argv in (
        ["enumerate-pi", "12", "12"],
        ["decide", "--param", WORKED_JSON, "--pi", "1"],
        # a three-block member with a printed table row
        ["rho", "--param", WORKED_JSON, "--module", "pi", "--m", "1"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        results = json.loads(out)["results"]
        if argv[0] == "enumerate-pi":
            assert len(results["packets"]) == 2560
        if argv[0] == "rho":
            assert results["table_row"]["blocks"] == results["character"]["blocks"]
    assert built == []


def test_parameter_is_validated_once(capsys, monkeypatch):
    # param_from_json validates; the parameter it returns records its
    # character, so the deciders and characters do not validate it again
    # (decide --pi is left out: its oracle, decide_pi_recursive, validates)
    calls = []
    validate = params.validate

    def counted(psi):
        calls.append(psi)
        return validate(psi)

    for module in (params, membership, characters, cli):
        if getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counted)
    regular = json.dumps(
        {"n": 3, "unipotent": [{"char": "sgn", "dim": 5}], "discrete": [{"t": 10, "a": 1}]}
    )
    for argv in (
        ["decide", "--param", WORKED_JSON, "--sigma", "1"],
        ["decide", "--param", regular, "--regular", "2"],
        ["rho", "--param", WORKED_JSON, "--module", "pi", "--m", "1"],
        ["rho", "--param", WORKED_JSON, "--module", "sigma", "--k", "1", "--whittaker", "-1"],
    ):
        calls.clear()
        code, _, _ = run(capsys, argv)
        assert code in (0, 3)  # 3: a report on the documented discrepancy
        assert len(calls) == 1, argv


def test_python_m_sympacket_runs_the_command_line(capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sympacket.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["enumerate-pi", "2", "1"]
    done = subprocess.run([sys.executable, "-m", "sympacket", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, argv)


def test_enumeration_cap_is_checked_before_any_work(capsys):
    # building the module is O(1), and the cap is checked before its weight
    # or character is built: a huge rank is refused at once, in little memory
    from sympacket.membership import enumerate_packets_pi
    from sympacket.params import RankBoundError

    cli._parser()  # built once per process; not part of the refusal
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["enumerate-pi", "3000000", "3"])
        cli_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(RankBoundError, match="rank 3000000 exceeds the enumeration cap 12"):
            enumerate_packets_pi(3_000_000, 3)
        library_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["violations"] == ["RANK_BOUND"]
    assert payload["error"] == "rank 3000000 exceeds the enumeration cap 12"
    assert cli_peak < 2**20 and library_peak < 2**20, (cli_peak, library_peak)


@pytest.mark.parametrize(
    "argv, first",
    [(["enumerate-pi", "10", "8"], b"{\n"),
     (["--format", "text", "enumerate-pi", "11", "11"], b"# enumerate-pi\n")],
    ids=["json", "text"],
)
def test_closed_stdout_exits_141_without_a_traceback(argv, first):
    # each report (~200 KB of JSON, ~330 KB of text) outgrows a pipe buffer,
    # so the reader's early close interrupts its one write
    src = os.path.dirname(os.path.dirname(os.path.abspath(sympacket.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sympacket", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""
