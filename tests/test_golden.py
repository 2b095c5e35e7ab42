"""Golden wire output: SHA-256 digests of the command line's reports.

Each digest covers, for one grid of argvs (one command, family and rank,
or one subcommand's grid, or its refusals) and one format, every argv with
its exit code, stdout and stderr, in order.  So a changed byte in a
report, an exit code (the exit 3 rows of ``rho`` included) or the list of
members changes it.  Reports of schema_version 1 stay byte-identical: a
digest may change only with an intended change of the wire format.
"""

import hashlib
import json

import pytest

from sympacket import characters, cli, membership
from sympacket.params import enumerate_params
from sympacket.weights import inf_char_of_weight, pi_nm, sigma_nk

FORMATS = (("json", []), ("text", ["--format", "text"]))


def _values(family, n):
    return range(0, n + 1) if family == "pi" else range(1, n // 2 + 1)


def _digest(capsys, argvs):
    h = hashlib.sha256()
    for argv in argvs:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        h.update(json.dumps([argv, code, out, err]).encode())
    return h.hexdigest()


def _enumerate_argvs(family, n, prefix):
    return [prefix + [f"enumerate-{family}", str(n), str(v)] for v in _values(family, n)]


def _rho_argvs(family, n, prefix):
    enumerate_packets = {
        "pi": membership.enumerate_packets_pi,
        "sigma": membership.enumerate_packets_sigma,
    }[family]
    label = "--m" if family == "pi" else "--k"
    return [
        prefix + ["rho", "--param", json.dumps(cli.param_to_json(psi)),
                  "--module", family, label, str(v), "--whittaker", delta]
        for v in _values(family, n)
        for psi, _ in enumerate_packets(n, v)
        for delta in ("1", "-1")
    ]


ENUMERATE_DIGESTS = {
    ("pi", 1, "json"): "df9aa630faf903bbde966d9b16e734b561a5127313977b14694c322b9fe427e4",
    ("pi", 1, "text"): "b7487f31df6e8eba9a8367a5543d243d7526587878ddd7d2bb8dbd01c34ad6ff",
    ("pi", 2, "json"): "9850563456f12d394f105e502ac87955f2253baed3b74a2b68163d623c946002",
    ("pi", 2, "text"): "2f5f5cafecc8481306a5858763b957d45d5f359118c060fb77bcca919fc3ba90",
    ("pi", 3, "json"): "d4c61e28c59bed8484bf673e003128302f7c8edd5bcceb487478d40881503eea",
    ("pi", 3, "text"): "9c12a0dda3e15cb76c378b43e2a13e9ad5709fa84a4cf23b443eac932bca0d18",
    ("pi", 4, "json"): "1e463b6de89af94c06f66ecaff8a0f872e9ef9439c9078f52d5836bec0496142",
    ("pi", 4, "text"): "8a2b2fda390ec933547caf1c34c6919b550f2c532d2e1f5af15f6ffaf9c4f526",
    ("pi", 5, "json"): "3736b97b98f34462c5aadeb1ddece6183b522ac25c88d71f0e8297cfae1c88de",
    ("pi", 5, "text"): "930610516fbce93e6b0e68b8ff259b66f38fa0207da4e090f66e2b63ba959449",
    ("pi", 6, "json"): "a20c518dfc7be63c9051e78967501017b32965becccf7224b9cd42b57e6105d0",
    ("pi", 6, "text"): "1652498d2deb3750bf35e9dead28c40ab562403988af8c4105d6aa712cdf8c2b",
    ("pi", 7, "json"): "4bb64b6b6b5ebd36bbd4fa7f378c5166a58d6bd76783f208c6a4a0f544df4f9f",
    ("pi", 7, "text"): "89a64f94b7518b10781998f3ec11beca5b7795f00c2e55723a25215b0bb24a5c",
    ("pi", 8, "json"): "187abc4e1795e4fc23421fd74c825597418dd4b672fa57aaa9b8e1f7b66ce455",
    ("pi", 8, "text"): "f908d99cd62da0271ca72e22102c07f55c5552120b1fa69d9ddc0b82c9d19cec",
    ("sigma", 2, "json"): "fe87ab6019e529c6118fa57afba66bab0e9c2dc87637bb8df260dbc09367e79f",
    ("sigma", 2, "text"): "2d5414af1f204eacffe888eeb99f68c4e160b2ce39a53f4855a91d53cf0dd3ff",
    ("sigma", 3, "json"): "208670697f19dca83e783f372bbb870b006b738bd92f4d78dbb66e95756dd945",
    ("sigma", 3, "text"): "9602399860aa247256725c3221905b12d6595fb41b90ae25784922272c264295",
    ("sigma", 4, "json"): "ccfa8efdd6a9561bea0a0a642e1fa7d7ebc9447b730c01c0ca4f9136856c055b",
    ("sigma", 4, "text"): "4ca006824b4c2f940c2fa6bcb74af08d902bde37a48d3031bfc52a2daf0fa3af",
    ("sigma", 5, "json"): "455b920df0fe368a4859fd7926234b1c0f1a29e925dda2929975169ff3a144ce",
    ("sigma", 5, "text"): "e5f938b37a7d2a99e994440210d54ec6e9e6aa476b8142bd4e4a54f1d01908bd",
    ("sigma", 6, "json"): "e40fba07569556bac4197e8bb165db4e1b73c794d425dc628f38a68608524f8b",
    ("sigma", 6, "text"): "5d48e045197e82838e2b284a4dbf77971a1ad738714329c3d0a8245ba7df9394",
    ("sigma", 7, "json"): "23e697e243a12d0ddeff6f94bbd3b017012dd465421bcbe1ff063d598658350e",
    ("sigma", 7, "text"): "7cd23c8688fac5d30f4e08de3144d682a75fe94aa120786bd8fa4d5f10c43986",
    ("sigma", 8, "json"): "208fd1e5dd95f1792d9431e03d93abb6ca3a69c43eb1c2d6af404d121be72ab2",
    ("sigma", 8, "text"): "c9014921c74096039e99ea299343732437345e669ce86d2b78cdf85e3e668f8d",
}

# ranks 9-10, where the covers holding a member are the fewest of all covers
ENUMERATE_DIGESTS_9_10 = {
    ("pi", 9, "json"): "9fb2ea30f1cdfb2646bfb3cfcaca6758d6eebefdb87213589b552f5f06c7f211",
    ("pi", 9, "text"): "a53a1d22250eb0029ffe660011b83ec0b2dc5c877e32e4dcf1c70be9364eaee2",
    ("pi", 10, "json"): "ce8a400f136a1ac388c9eddfcb11bc78a82510e6688c68c6bd819ad3965d70cc",
    ("pi", 10, "text"): "d08f14ab2b4d35ac701559dd0331f9b6a7305164635df583a5529312704649ef",
    ("sigma", 9, "json"): "fb5f88a6127d2955d023e612672c47714980185481db829f56f04a8ab148060c",
    ("sigma", 9, "text"): "320d0c4078f526d63286aac95e5f9362dc15544f0146608f758f3520400a8242",
    ("sigma", 10, "json"): "b62903f7eeb2771523161be8ab2cdf5d637b74d230a40eaf28c70203831a9897",
    ("sigma", 10, "text"): "4da7715668f14df5d19d4f01395980a82a3ba238799d5d3b7fb7bdeee44dd93b",
}

RHO_DIGESTS = {
    ("pi", 1, "json"): "b214fae6e485866ef255d6bf1204f4fa1185f028585dabf7d0a7df571f57e710",
    ("pi", 1, "text"): "8a66fcdf9440dc6571b3231042308579de78f08419526bb29caca15650c3c1b2",
    ("pi", 2, "json"): "e3be8b846b241bcee5bc397ebcff14a50456702331e70c34896fb4439251e786",
    ("pi", 2, "text"): "74d6bd6c7b0339b00035e8a37c51377991e0e550d68df39997aee056f278b01e",
    ("pi", 3, "json"): "d7cb841d9fa31a2a4f35928e90527c8e7ea3c31b40a7029659c7eb1d7bf2a7e0",
    ("pi", 3, "text"): "680eb8227cfcb00aa8d8482c5ca28e19c36581982fa54cdaae2b6daf1259aba5",
    ("pi", 4, "json"): "66858732e095ee3f7b913204b9f18475e7b217fd24df325b8eb06a789e4ee60f",
    ("pi", 4, "text"): "993a7ce7b8f58544b1252992fb732a20b90f8e6ef794054109ef7e2923dc7cc3",
    ("pi", 5, "json"): "30d258979f37692a6b56b2dd1f2f417de094a6997da71e1383c290abcace372c",
    ("pi", 5, "text"): "f76f89fd2fa05a104d11425fad6676f4c3e296ec74d1db8d7d77a1abd77c876b",
    ("pi", 6, "json"): "29d3f5ea805e645c89f0bcf66c673bfab856cbf4397be03cc3330cf8c33f9143",
    ("pi", 6, "text"): "ec44bf45e879b84871de099959dbdecaa6262d20b3b746e4da8bed187a4a038f",
    ("sigma", 2, "json"): "8c6f4ccf0736dbd304cd638ed036cee25b22972914653051df96e398ce7d6c64",
    ("sigma", 2, "text"): "8e958f4da0adb4006c2b5e78a942ad006510fc940a6d11a312dec362553931b4",
    ("sigma", 3, "json"): "410e79a6d51b38a5e98fb9e2ccb4a472a34b7107fefdfaf6399f95df58234fd1",
    ("sigma", 3, "text"): "4a7b941a4d2f7be5dec23e77ad3ec78c8183bd3dbddac2549407204d5e11bf4a",
    ("sigma", 4, "json"): "9d5ba6d5f5d752392efdd4b5513d33755740851f5d867ce923c2c4cca2c83d2a",
    ("sigma", 4, "text"): "e866ce8db5c97ca56fa6a855cbeea97c46dd0fea410a184be81d7701bea57677",
    ("sigma", 5, "json"): "0e3ea2305b3459098bb2aaf3043b1fc9986e2974e431863729b63eafd80a2e6d",
    ("sigma", 5, "text"): "a9213a9e778f83f61c543c7d936a2649a6bd769436ca49841de5faeaf357d13f",
    ("sigma", 6, "json"): "a7e51fad90d1e4ec27c46067a6e6a99a587b53f0fea20248b3867ee93b903105",
    ("sigma", 6, "text"): "0d851bbb50512581ceae90670f93b586a2662d6d93c2e225f5a5b730d9eb2c5a",
}


# both characters of every member, as ``repr``, in enumeration order
CHARACTER_DIGESTS = {
    ("pi", 7): "51c497c430fe53d788c5270cd6fcb47ce20e2433fded8c69f4a33f064f4d980b",
    ("pi", 8): "dffba8cf6380b47890035c3a886061edb88737319a97279807edf7af1f534aa4",
    ("pi", 9): "737446d2239d64cf007e8a9e5bb238225e26520a9defdde9e498de822672dc32",
    ("sigma", 7): "88d1e11044925e9b2f2ef04aa08e18fad7740e006711a8a78d63c3280034a773",
    ("sigma", 8): "9e392511b4ec94186db9476fe7037ed43b00cabf74c578e9de1b840ae39ca90f",
    ("sigma", 9): "574de97d12e0b234fb542c57cff092591dff092182937917a5eae6ef8975fd3c",
}


def _character_digest(family, n):
    enumerate_packets, rho = {
        "pi": (membership.enumerate_packets_pi, characters.rho_pi_general),
        "sigma": (membership.enumerate_packets_sigma, characters.rho_sigma_general),
    }[family]
    h = hashlib.sha256()
    for v in _values(family, n):
        for psi, _ in enumerate_packets(n, v):
            for delta in (1, -1):
                h.update(repr(rho(psi, n, v, delta)).encode())
    return h.hexdigest()


def _digests(capsys, argvs_of, ranks):
    return {
        (family, n, fmt): _digest(capsys, argvs_of(family, n, prefix))
        for family in ("pi", "sigma")
        for n in ranks
        for fmt, prefix in FORMATS
        if _values(family, n)
    }


def test_enumerate_reports_are_golden(capsys):
    # enumerate-pi / enumerate-sigma for every m and k at ranks 1-8
    assert _digests(capsys, _enumerate_argvs, range(1, 9)) == ENUMERATE_DIGESTS


def test_enumerate_reports_at_ranks_9_and_10_are_golden(capsys):
    assert _digests(capsys, _enumerate_argvs, (9, 10)) == ENUMERATE_DIGESTS_9_10


def test_rho_reports_are_golden(capsys):
    # rho for both Whittaker tokens on every member at ranks 1-6
    assert _digests(capsys, _rho_argvs, range(1, 7)) == RHO_DIGESTS


def test_member_characters_at_ranks_7_to_9_are_golden():
    # the values of the characters, which the rho reports pin only to rank 6
    digests = {
        (family, n): _character_digest(family, n)
        for family in ("pi", "sigma")
        for n in (7, 8, 9)
    }
    assert digests == CHARACTER_DIGESTS


# --- the other subcommands, the refusals and the largest reports -------------

WORKED = {
    "n": 2,
    "unipotent": [
        {"char": "sgn", "dim": 3},
        {"char": "triv", "dim": 1},
        {"char": "sgn", "dim": 1},
    ],
    "discrete": [],
}
DISCRETE = {"n": 2, "unipotent": [{"char": "triv", "dim": 1}], "discrete": [{"t": 1, "a": 2}]}


def _trivial(n):
    return json.dumps({"n": n, "unipotent": [{"char": "triv", "dim": 2 * n + 1}], "discrete": []})


def _with(path, value, base=WORKED):
    """The wire text of ``base`` with the field at ``path`` set to ``value``."""
    bad = json.loads(json.dumps(base))
    *where, key = path
    target = bad
    for step in where:
        target = target[step]
    target[key] = value
    return json.dumps(bad)


def _decide_argvs(family):
    # every parameter with the module's character, members and non-members
    weight = pi_nm if family == "pi" else sigma_nk
    return [
        ["decide", "--param", json.dumps(cli.param_to_json(psi)), f"--{family}", str(v)]
        for n in range(1, 5)
        for v in _values(family, n)
        for psi in enumerate_params(inf_char_of_weight(weight(n, v)), n)
    ]


REGULAR = [
    {"n": 3, "unipotent": [{"char": "sgn", "dim": 5}], "discrete": [{"t": 10, "a": 1}]},
    {"n": 1, "unipotent": [{"char": "triv", "dim": 3}], "discrete": []},
    {"n": 2, "unipotent": [{"char": "triv", "dim": 1}],
     "discrete": [{"t": 4, "a": 1}, {"t": 2, "a": 1}]},
    {"n": 2, "unipotent": [{"char": "sgn", "dim": 3}], "discrete": [{"t": 6, "a": 1}]},
    WORKED,  # not a regular character: exit 2
]

HOWE_FORMS = [["--char", c] for c in ("triv", "det", "sgn", "sgn-det")] + [
    ["--eta", "sgn", "--tau", "1"],
    ["--eta", "triv", "--tau", "0", "--delta", "-1"],
]

GRIDS = {
    "decide-pi": lambda: _decide_argvs("pi"),
    "decide-sigma": lambda: _decide_argvs("sigma"),
    "decide-regular": lambda: [
        ["decide", "--param", json.dumps(psi), "--regular", str(a)]
        for psi in REGULAR
        for a in range(4)
    ],
    "invariants": lambda: [
        ["invariants", str(p), str(q)] + delta
        for p in range(4)
        for q in range(4)
        for delta in ([], ["--delta", "1"], ["--delta", "-1"])
    ],
    "howe": lambda: [
        ["howe", "--p", str(p), "--q", str(q), "--rank", str(n)] + form
        for p in range(4)
        for q in range(4)
        for n in range(3)
        for form in HOWE_FORMS
    ],
    "standard": lambda: [
        ["standard", family, str(n), str(v)]
        for family in ("pi", "sigma")
        for n in range(1, 6)
        for v in range(n + 2)
    ],
    "tableau": lambda: [
        ["tableau", str(n), str(m)] for n in range(6) for m in range(-1, n + 2)
    ],
    "cohind": lambda: [
        ["cohind", str(n), str(p), str(q)] + extra
        for n in range(1, 5)
        for p in range(3)
        for q in range(3)
        for extra in (
            [],
            ["--t", "-1"],
            ["--t", "3", "--scalar-m", "0"],
            ["--t", "2", "--scalar-m", "2"],
            ["--t", "1", "--weight=" + ",".join(["-1"] * n)],
            ["--t", "4", "--scalar-m", "1", "--weight=" + ",".join(map(str, range(-n, 0)))],
            ["--t", "0", "--weight", "0,0,0,0,0"],
        )
    ],
    # the usage errors of tests/test_cli.py
    "exit-1": lambda: [
        ["decide", "--param", json.dumps(WORKED)],
        ["nonsense"],
        ["howe", "--p", "0", "--q", "4", "--rank", "5"],
        ["rho", "--param", json.dumps(WORKED), "--module", "pi"],
        ["rho", "--param", json.dumps(WORKED), "--module", "pi", "--m", "1", "--k", "5"],
        ["rho", "--param", json.dumps(WORKED), "--module", "sigma", "--k", "1", "--m", "1"],
        ["rho", "--param", "no-such-directory/param.json", "--module", "pi"],
    ],
    # the refusals of tests/test_cli.py, and field names that need escapes
    "exit-2": lambda: [
        ["decide", "--param", _with(("unipotent", 0, "char"), "triv"), "--pi", "1"],
        ["decide", "--param", json.dumps({"n": 1, "unipotent": [], "discrete": [], "bogus": 1}),
         "--pi", "0"],
        ["decide", "--param", json.dumps({"n": 1, "unipotent": [], "discrete": [],
                                      "b\u00fcr\u2028": 1, "\ud800": 2, "\x07": 3}),
         "--pi", "0"],
        ["decide", "--param", _with(("unipotent", 0, "char"), "sgn\u00e9"), "--pi", "1"],
        ["decide", "--param", json.dumps({**WORKED, "unipotent": [WORKED["unipotent"][i]
                                                              for i in (1, 0, 2)]}),
         "--pi", "1"],
        ["decide", "--param", json.dumps(REGULAR[0]), "--regular", "3"],
        ["decide", "--param", _with(("unipotent", 0, "dim"), 3.9), "--pi", "2"],
        ["decide", "--param", _with(("unipotent", 0, "dim"), "3"), "--pi", "2"],
        ["decide", "--param", _with(("n",), 2.0), "--pi", "2"],
        ["decide", "--param", _with(("discrete", 0, "t"), "1", DISCRETE), "--pi", "2"],
        ["decide", "--param", _with(("unipotent", 1, "dim"), True), "--pi", "2"],
        ["decide", "--param", _with(("discrete", 0, "a"), 2.0, DISCRETE), "--pi", "2"],
        ["decide", "--param", '[{"n": 2}]', "--pi", "1"],
        ["decide", "--param", "{not json", "--pi", "1"],
        ["decide", "--param", "[" * 100000, "--pi", "1"],
        ["decide", "--param", "no-such-directory/param.json", "--pi", "1"],
        ["tableau", "100000", "3"],
        ["cohind", "100000", "1", "2"],
        ["standard", "pi", "400000", "3"],
        ["standard", "sigma", "400000", "3"],
        ["howe", "--p", "2", "--q", "2", "--char", "triv", "--rank", "400000"],
        ["howe", "--p", "2", "--q", "2", "--char", "triv", "--rank", "-5"],
        ["howe", "--p", "2", "--q", "2", "--char", "triv", "--rank", "65"],
        ["decide", "--param", _trivial(65), "--pi", "0"],
        ["decide", "--param", _trivial(10**6), "--pi", "0"],
        ["rho", "--param", _trivial(65), "--module", "pi", "--m", "0"],
        ["rho", "--param", _trivial(10**6), "--module", "pi", "--m", "0"],
        ["enumerate-pi", "13", "3"],
        ["enumerate-pi", "3000000", "3"],
        ["enumerate-pi", "3", "5"],
        ["enumerate-sigma", "5", "3"],
        ["rho", "--param", json.dumps(WORKED), "--module", "pi", "--m", "5"],
        ["rho", "--param", json.dumps(DISCRETE), "--module", "pi", "--m", "1"],
        ["cohind", "4", "1", "2", "--t", "3", "--weight", "1,x"],
    ],
    # a block list, a block or a field that is not there or not of its JSON
    # type, refused in the reader's words on every Python; a block's fields
    # are read before any block's unknown fields are named
    "block-shape": lambda: [
        ["decide", "--param", json.dumps(bad), "--pi", "1"]
        for bad in (
            {"n": 1, "unipotent": ["x"]},
            {**WORKED, "unipotent": "x"},
            {**WORKED, "unipotent": None},
            {**WORKED, "unipotent": {}},
            {"n": 1, "unipotent": [{"char": "triv", "dim": 3}], "discrete": {}},
            {**DISCRETE, "discrete": 3},
            {**WORKED, "unipotent": [[1, 3]]},
            {**WORKED, "unipotent": [None]},
            {**DISCRETE, "discrete": ["t"]},
            {**WORKED, "unipotent": [{"char": "sgn"}]},
            {**WORKED, "unipotent": [{"dim": 3}]},
            {**DISCRETE, "discrete": [{"t": 1}]},
            {**DISCRETE, "discrete": [{"a": 2}]},
            {"unipotent": WORKED["unipotent"], "discrete": []},
            {**WORKED, "unipotent": [{"char": "sgn", "dim": 3, "x": 1}, {"char": "sgn\u00e9"}]},
            {**DISCRETE, "unipotent": [{"char": "triv", "dim": 1, "x": 1}], "discrete": [{"t": 1}]},
            {**DISCRETE, "unipotent": [{"char": "triv", "dim": 1, "x": 1}],
             "discrete": [{"t": 1, "a": 2, "y": 1}]},
        )
    ],
    # argvs that only argparse reads (abbreviations, ``=`` forms, intermixed
    # positionals, a repeated option, ``--``, an option after the subcommand),
    # and usage errors, among them integers not written as JSON writes them
    "argparse-only": lambda: [
        ["decide", "--par", json.dumps(WORKED), "--pi", "1"],
        ["decide", "--p", json.dumps(WORKED), "--pi", "1"],
        ["rho", "--param", json.dumps(WORKED), "--mod", "pi", "--m", "1", "--whit", "-1"],
        ["howe", "--p", "2", "--q", "2", "--ch", "det", "--ra", "1"],
        ["cohind", "3", "1", "1", "--t", "2", "--scal", "1"],
        ["--form", "text", "tableau", "3", "1"],
        ["decide", "--param=" + json.dumps(WORKED), "--pi=1"],
        ["decide", "--param", json.dumps(WORKED), "--sigma=1"],
        ["cohind", "3", "--t", "2", "1", "1"],
        ["invariants", "2", "--delta", "-1", "2"],
        ["rho", "--param", json.dumps(WORKED), "--module", "pi", "--m", "1", "--m", "2"],
        ["enumerate-pi", "--", "3", "1"],
        ["enumerate-pi", "3", "1", "--format", "text"],
        ["rho", "--param", json.dumps(WORKED), "--module", "pi", "--m", "1",
         "--whittaker", "2"],
        ["enumerate-pi", "x", "1"],
        ["enumerate-pi", " 3", "+1"],
        ["enumerate-pi", "\uff13", "1"],
        ["enumerate-pi", "3", "-1"],
        ["decide", "--param", json.dumps(WORKED), "--pi", "1", "--sigma", "1"],
        ["decide", "--param", json.dumps(WORKED), "--pi"],
        ["decide", "--param", json.dumps(WORKED), "--regular", "1", "2"],
        ["tableau", "3", "1", "2"],
        ["--format", "xml", "tableau", "3", "1"],
    ],
}

REPORT_DIGESTS = {
    ("decide-pi", "json"): "5a1b7a2f74c7b5e4fef2c415093ebe2fa441d59ab9f1f1923625e22097fc2aed",
    ("decide-pi", "text"): "8259bd873283a05b05cbb2db9829a4541056d97f2fbfd57dd9821c887b888169",
    ("decide-sigma", "json"): "c935501a7d4706b108c61bf6a723b47e04c2b0637636f1ab30f927c3c6b65e68",
    ("decide-sigma", "text"): "604b2ab83f677cf760a46e4ff53f8ad764a407806124d7e26aa2e1354ecc62dd",
    ("decide-regular", "json"): "916ea684481b51f85a669e8eb736b18049c9900d9adef93ac90765866bc6bba5",
    ("decide-regular", "text"): "86a86e5aad20738456948e898101b3abd49f98befba7b79d7ab7c981ab424295",
    ("invariants", "json"): "edb04d33ffbf450afef4862c7227189837f22cb28e266ece4a23525950136f93",
    ("invariants", "text"): "6e37022f731b37ed8adae0ec3635d627903f76c185ae6f936e41c5714fb172bf",
    ("howe", "json"): "a5ed0727e60a9fb9b2e2d3df0b5860ee639fd8c49a4bd62c452f761771772549",
    ("howe", "text"): "9c64204139fc72a4ee52a0cc40bd7fb353864cb90612a87c3c7ecacb2ef13212",
    ("standard", "json"): "1aa32ea61dac86467301e95f1fc9e96182194541d70b48e43cd664f5cefbbb71",
    ("standard", "text"): "9c1346e8c9db2bbac5a9b27275a0e7639129a9ed57f2b36ea7757aedba2680b7",
    ("tableau", "json"): "deb800ecfd96f8a2390ede748fb5fe145ac2dc1f93c713abec99869474721cb8",
    ("tableau", "text"): "98143a32f941f3e030cd56fecbd8a79b35edd84e443c358ba9312594cb82f913",
    ("cohind", "json"): "9fe268f2a54aff4fb1efab7ce5b38fa10f9d70d671a9c8058304d0181a072866",
    ("cohind", "text"): "835f9b06e4d7a3c03f11856ffc5b2ab191213ba8871eb5a11ab06a1f92423b73",
    ("exit-1", "json"): "35b695c6502e75664d85057b368594ef0e55720a0f13b43353d8d41911a59a46",
    ("exit-1", "text"): "7f54b4ee28437aaf45c69e81b9e28a2e9ff4ca4c1d23f9baf94ac577435f7d91",
    ("exit-2", "json"): "8c717939c1925a68ec955de8da5a0dd95c8d521f0be7e37fc44e3cdb1e2480a1",
    ("exit-2", "text"): "680cdaf174c28c6b18eef7e881ce870885b92a055dfe8157362c23450d9b72b4",
    ("block-shape", "json"): "1cb9ccb9d6a5cd2a59e9a6f15f6236ee2476923b71d2c46a10d1a5c3f92350b7",
    ("block-shape", "text"): "751fbc0c0c1f7605df8791242058a62e41df695711d5b16cfb42ffd1f1efa91e",
    ("argparse-only", "json"): "8588cfbfa7103c0e1de32b1cf9b4a9d11c17c29746f7954f1f1319d74717e9b7",
    ("argparse-only", "text"): "6ac052b7e1c7da87ee9b573bbd16a61c405b2c1dc38f5691cf23e8c2dbc7a06b",
}

# the largest reports a command prints: ~2 MB and ~0.4 MB of JSON
LARGE_DIGESTS = {
    (12, "json"): "be2ac11c51f503f69b6bb8863741dfbe49779e80b4822a761728c084d1009c4f",
    (12, "text"): "030e85cb18a937535f30643f3ecabd59c55ca7138833e374ad6930bf6dc30a4b",
    (9, "json"): "58a96236420773ad4eaf296c3f4dad0f3e27a15d77c0d9e1875800718b91e0de",
    (9, "text"): "1583cb34cebba43b8565069be5836deaf81d93e4beec34646100f84ce39f8adf",
}


@pytest.mark.parametrize("name", list(GRIDS))
def test_other_reports_and_refusals_are_golden(capsys, name):
    argvs = GRIDS[name]()
    digests = {fmt: _digest(capsys, [prefix + argv for argv in argvs])
               for fmt, prefix in FORMATS}
    assert digests == {fmt: REPORT_DIGESTS[name, fmt] for fmt, _ in FORMATS}


@pytest.mark.parametrize("m", [12, 9])
def test_largest_enumerate_reports_are_golden(capsys, m):
    digests = {fmt: _digest(capsys, [prefix + ["enumerate-pi", "12", str(m)]])
               for fmt, prefix in FORMATS}
    assert digests == {fmt: LARGE_DIGESTS[m, fmt] for fmt, _ in FORMATS}


# the help of the top level and of each subcommand, printed before exit 0
HELP_DIGESTS = {
    "": "71c4a11aec749bee7991bf9fbbdda4f77d02388bff2cb2d2db18a07dbeb1679b",
    "enumerate-pi": "f8ae3058c5d9c658657769f4d8f4d658fc7d68d456649c16d0c513fed26aea06",
    "enumerate-sigma": "2b73c97bf97a177403ffab0f66df3674b991cd8e045c904cb7de54bae8507c22",
    "decide": "c7a4d544a4f3d299cbe0f55ee70c791a82f11e435fa44ab20007afcd3d85ff18",
    "rho": "c0f2b7cfbc9f982a4a4f3ac0c64ebea7f486ba3e8a4bcc92f6761b558f773403",
    "invariants": "677c1c1eb57cd7be9cc37f1ae4444fc13ffa78c50bb4a7988ed3cc114a5dda8c",
    "howe": "a49f8b53e2ba07c72960701200151e9da1837dd22aa562558c59d12471cdc2cd",
    "standard": "8bdf256e7856b2e9612817e59612e54e3bf9f7c886e503a6ac1f5ff46ba316b1",
    "tableau": "f72e15f271086879af638bf48c2b559ba94b784bc047cc1cc8db30b1ea5569ae",
    "cohind": "d173d574d29458584d54c2b893f97af17d18484eb0f29d4594a661a4b01af0f4",
}


def test_help_is_golden(capsys, monkeypatch):
    # argparse wraps help to the terminal's width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    digests = {}
    for command in HELP_DIGESTS:
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "-h"] if command else ["-h"])
        out, err = capsys.readouterr()
        assert (exit_.value.code, err) == (0, "")
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == HELP_DIGESTS
