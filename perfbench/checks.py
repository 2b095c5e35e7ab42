"""Correctness checks owned by the benchmark.

Every check returns a list of problems (empty when the output is right).
They read library objects only through their public fields and recompute
everything else with the independent code in ``gen.py``; the one library
function used is the stripping oracle ``decide_pi_recursive``.
"""

from __future__ import annotations

import json
from collections import Counter

import gen


def as_tuple(psi):
    """Library parameter -> the generator's (n, unip, disc) tuple form."""
    return (
        psi.n,
        tuple((b.char, b.dim) for b in psi.unipotent),
        tuple((b.t, b.a) for b in psi.discrete),
    )


def block_problems(p) -> list[str]:
    return [f"{code} in {p}" for code in gen.violations(p)]


def character_problems(char, p, delta: int) -> list[str]:
    """One ±1 sign per listed block, listed blocks = the parameter's blocks,
    product +1, constant on equal blocks unless flagged VANISHING."""
    n, unip, disc = p
    listed = []
    for b in char.blocks:
        listed.append(("u", b.char, b.dim) if hasattr(b, "dim") else ("d", b.t, b.a))
    want = Counter([("u", c, d) for c, d in unip] + [("d", t, a) for t, a in disc])
    out = []
    if char.whittaker != delta:
        out.append(f"character token {char.whittaker} != {delta} for {p}")
    if len(char.signs) != len(listed) or any(s not in (1, -1) for s in char.signs):
        return out + [f"not one ±1 sign per block for {p}"]
    if Counter(listed) != want:
        out.append(f"character blocks differ from the parameter's for {p}")
    product = 1
    for s in char.signs:
        product *= s
    if product != 1:
        out.append(f"sign product is not +1 for {p}")
    seen: dict = {}
    constant = all(seen.setdefault(b, s) == s for b, s in zip(listed, char.signs))
    if not constant and "VANISHING" not in char.flags:
        out.append(f"signs differ on equal blocks without VANISHING for {p}")
    return out


def oracle_member(lib, psi, module: str, n: int, value: int) -> bool:
    """Membership by the stripping oracle; for sigma_{n,k} with n > 2k, which
    it does not cover, by the criterion restated in gen.py."""
    oracle = lib["membership"].decide_pi_recursive
    if module == "pi":
        return oracle(psi, n, value)
    if n == 2 * value:
        return oracle(psi, n, value + 1)
    return gen.member_sigma(as_tuple(psi), value)


def to_library(lib, p):
    P = lib["params"]
    n, unip, disc = p
    return P.ArthurParameter(
        n,
        tuple(P.UnipotentBlock(c, d) for c, d in unip),
        tuple(P.DiscreteBlock(t, a) for t, a in disc),
    )


def packet_problems(lib, module: str, n: int, value: int, packets, chars) -> list[str]:
    """One enumerate_packets_* result with the characters of its members."""
    out = []
    got = [as_tuple(psi) for psi, _ in packets]
    chi = gen.target_inf_char(module, n, value)
    for p, (_, verdict) in zip(got, packets):
        out += block_problems(p)
        if gen.param_inf_char(p[1], p[2]) != chi:
            out.append(f"{p} does not have the infinitesimal character of {module}({n},{value})")
        if not verdict.member or verdict.multiplicity != 1:
            out.append(f"{p} reported with member={verdict.member}, "
                       f"multiplicity={verdict.multiplicity}")
    if len(set(got)) != len(got):
        out.append(f"duplicate packets for {module}({n},{value})")
    everything = gen.enumerate_params(chi, n)
    want = {p for p in everything if oracle_member(lib, to_library(lib, p), module, n, value)}
    if set(got) != want:
        out.append(f"packets of {module}({n},{value}) differ from the oracle's: "
                   f"{len(set(got) - want)} extra, {len(want - set(got))} missing")
    if module == "sigma" and gen.distinguished_sigma(n, value) not in set(got):
        out.append(f"distinguished parameter missing for sigma({n},{value})")
    if len(chars) != len(packets):
        out.append(f"{len(chars)} character pairs for {len(packets)} packets")
    for p, pair in zip(got, chars):
        for delta, char in zip((1, -1), pair):
            out += character_problems(char, p, delta)
    return out


def small_rank_problems(lib) -> list[str]:
    """The library's enumerate_params equals generate-and-test at small ranks."""
    P, W = lib["params"], lib["weights"]
    out = []
    for n in gen.SMALL_RANKS:
        for m in range(n + 1):
            got = [as_tuple(p) for p in P.enumerate_params(W.inf_char_of_weight(W.pi_nm(n, m)), n)]
            if got != gen.brute_force_params(gen.target_inf_char("pi", n, m), n):
                out.append(f"enumerate_params differs from generate-and-test at ({n},{m})")
    return out


def query_problems(lib, q: dict, psi, result) -> list[str]:
    """One point query: verdict against the oracle and the generator's label;
    characters of members."""
    verdict, chars = result
    module, n, value = q["module"], q["n"], q["value"]
    out = []
    oracle = oracle_member(lib, psi, module, n, value)
    if verdict.member != oracle or verdict.member != q["member"]:
        out.append(f"{module}({n},{value}) on {q['param']}: verdict {verdict.member}, "
                   f"oracle {oracle}, generated as {q['member']}")
    if verdict.member:
        if verdict.multiplicity != 1:
            out.append(f"member with multiplicity {verdict.multiplicity}")
        for delta, char in zip((1, -1), chars):
            out += character_problems(char, as_tuple(psi), delta)
    elif chars:
        out.append("characters computed for a non-member")
    return out


# --- command line reports -------------------------------------------------------


def parse_text_report(text: str) -> dict:
    """Read the --format text rendering back into {command, inputs, results}."""
    lines = text.rstrip("\n").split("\n")
    if not lines or not lines[0].startswith("# "):
        raise ValueError("text report has no '# command' header")
    report: dict = {"command": lines[0][2:], "inputs": {}, "results": {}}
    section = None
    for line in lines[1:]:
        if line in ("[inputs]", "[results]"):
            section = line[1:-1]
            continue
        if section is None or not line.startswith("  ") or " = " not in line:
            raise ValueError(f"unreadable text report line {line!r}")
        key, value = line[2:].split(" = ", 1)
        try:
            report[section][key] = json.loads(value)
        except json.JSONDecodeError:
            if not value.endswith(")") or "(n=" not in value:
                raise ValueError(f"unreadable value {value!r}") from None
            report[section][key] = value  # a rendered parameter
    if section != "results":
        raise ValueError("text report lacks a results section")
    return report


def _argv_command(argv: list[str]) -> tuple[str, bool]:
    text = argv[:2] == ["--format", "text"]
    return (argv[2] if text else argv[0]), text


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def cli_problems(op: dict, outcome: tuple[int, str, str]) -> list[str]:
    """Exit code, report shape and the facts each report must state.

    Inputs of kind "coerced" are not judged here: the runner counts them as
    failed unless they exit 2 (see ``cli_failed``).
    """
    code, stdout, stderr = outcome
    argv, kind = op["argv"], op["kind"]
    command, text = _argv_command(argv)
    where = " ".join(argv)[:160]
    if kind in ("malformed", "coerced"):
        if code != 2:
            return [] if kind == "coerced" else [f"exit {code}, want 2: {where}"]
        try:
            err = json.loads(stderr)
        except json.JSONDecodeError:
            return [f"exit 2 without a JSON error report: {where}"]
        if err.get("schema_version") != 1 or not err.get("violations") or stdout:
            return [f"error report lacks schema_version 1 or violations: {where}"]
        return []
    if code not in (0, 3):
        return [f"exit {code}: {where}: {stderr[:200]}"]
    try:
        report = parse_text_report(stdout) if text else json.loads(stdout)
    except ValueError as exc:
        return [f"unreadable report ({exc}): {where}"]
    if not text and report.get("schema_version") != 1:
        return [f"schema_version is not 1: {where}"]
    if report.get("command") != command:
        return [f"report command {report.get('command')!r} != {command!r}"]
    results = report["results"]
    out = []
    agrees = results.get("table_agrees")
    if (code == 3) != (agrees is False):
        out.append(f"exit {code} with table_agrees={agrees}: {where}")
    if command == "decide":
        param = gen.from_wire(json.loads(_flag(argv, "--param")))
        if _flag(argv, "--pi") is not None:
            if results.get("oracle_agrees") is not True:
                out.append(f"decide --pi without oracle_agrees true: {where}")
            want = gen.member_pi(param, int(_flag(argv, "--pi")))
        elif _flag(argv, "--sigma") is not None:
            want = gen.member_sigma(param, int(_flag(argv, "--sigma")))
        else:
            want = param[1][0][1] == 2 * int(_flag(argv, "--regular")) + 1
        if results.get("member") is not want:
            out.append(f"decide says member={results.get('member')}, want {want}: {where}")
    elif command.startswith("enumerate-"):
        module = command.split("-", 1)[1]
        n, value = int(argv[-2]), int(argv[-1])
        chi = gen.target_inf_char(module, n, value)
        everything = gen.enumerate_params(chi, n)
        want = sorted(p for p in everything if gen.member(p, module, value))
        got = sorted(gen.from_wire(e["parameter"]) for e in results["packets"])
        if results["inf_char"] != list(chi) or results["parameters_with_inf_char"] != len(everything):
            out.append(f"wrong character data: {where}")
        if got != want:
            out.append(f"packets differ from the criterion's: {where}")
    elif command == "rho":
        char = results.get("character", {})
        signs = char.get("signs", [])
        product = 1
        for s in signs:
            product *= s
        if len(signs) != len(char.get("blocks", ())) or product != 1:
            out.append(f"character is not one sign per block with product +1: {where}")
    return out


def cli_failed(op: dict, outcome: tuple[int, str, str]) -> bool:
    """A non-integer number must exit 2; while it is coerced it fails."""
    return op["kind"] == "coerced" and outcome[0] != 2
