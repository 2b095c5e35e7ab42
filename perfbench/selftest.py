"""Feed each benchmark check a correct output and corrupted copies of it.

    python3 perfbench/selftest.py

Run from the repository root.  Every check must pass the real output and
report at least one problem for each corruption; the script exits 1 and
names the corruption that slipped through otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from run import import_library  # noqa: E402
from workloads import CliMix  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list[str], clean: bool) -> None:
    if clean and problems:
        FAILURES.append(f"{label}: correct output rejected: {problems[:3]}")
    if not clean and not problems:
        FAILURES.append(f"{label}: corruption not detected")


def flip_sign(char, i: int = 0):
    signs = list(char.signs)
    signs[i] = -signs[i]
    return SimpleNamespace(whittaker=char.whittaker, blocks=char.blocks,
                           signs=tuple(signs), flags=char.flags)


def packets_case(lib) -> None:
    M, C = lib["membership"], lib["characters"]
    for module, n, value in (("pi", 4, 2), ("sigma", 5, 2)):
        packets = (M.enumerate_packets_pi if module == "pi" else M.enumerate_packets_sigma)(n, value)
        rho = C.rho_pi_general if module == "pi" else C.rho_sigma_general
        chars = [(rho(psi, n, value, 1), rho(psi, n, value, -1)) for psi, _ in packets]

        def run(label, pk, ch, clean=False):
            expect(f"{module}({n},{value}) {label}", checks.packet_problems(
                lib, module, n, value, pk, ch), clean)

        run("as computed", packets, chars, clean=True)
        run("dropped packet", packets[1:], chars[1:])
        run("duplicated packet", packets + packets[:1], chars + chars[:1])
        psi, verdict = packets[0]
        run("multiplicity 2", [(psi, dataclasses.replace(verdict, multiplicity=2))] + packets[1:], chars)
        short = dataclasses.replace(psi, unipotent=psi.unipotent[1:])
        run("dropped block", [(short, verdict)] + packets[1:], chars)
        swapped = dataclasses.replace(psi, unipotent=psi.unipotent[::-1])
        if swapped != psi:
            run("blocks out of order", [(swapped, verdict)] + packets[1:], chars)
        run("flipped sign", packets, [(flip_sign(chars[0][0]), chars[0][1])] + chars[1:])
        dropped = chars[0][0]
        dropped = SimpleNamespace(whittaker=dropped.whittaker, blocks=dropped.blocks[1:],
                                  signs=dropped.signs[1:], flags=dropped.flags)
        run("character lost a block", packets, [(dropped, chars[0][1])] + chars[1:])
        run("wrong token", packets, [(chars[0][1], chars[0][0])] + chars[1:])
    n, unip, disc = gen.distinguished_sigma(5, 2)
    expect("parity", checks.block_problems((n, ((1 - unip[0][0], unip[0][1]),), disc)), False)


def query_case(lib) -> None:
    M, C = lib["membership"], lib["characters"]
    members, others = gen.split_members("pi", 6, 4)
    for p, is_member in ((members[0], True), (others[0], False)):
        psi = checks.to_library(lib, p)
        q = {"module": "pi", "n": 6, "value": 4, "param": gen.to_wire(p), "member": is_member}
        verdict = M.decide_pi(psi, 6, 4)
        chars = (C.rho_pi_general(psi, 6, 4, 1), C.rho_pi_general(psi, 6, 4, -1)) if is_member else ()
        expect(f"query member={is_member}", checks.query_problems(lib, q, psi, (verdict, chars)), True)
        flipped = M.MembershipVerdict(not is_member, None if is_member else "X", 0 if is_member else 1)
        expect(f"query flipped verdict member={is_member}",
               checks.query_problems(lib, q, psi, (flipped, chars)), False)
        if is_member:
            expect("query flipped sign", checks.query_problems(
                lib, q, psi, (verdict, (flip_sign(chars[0], -1), chars[1]))), False)


def cli_case(lib) -> None:
    ops = [
        {"kind": "rho", "argv": ["rho", "--module", "sigma", "--k", "2", "--param", json.dumps(
            gen.to_wire((5, ((0, 7), (0, 3), (0, 1)), ())))]},
        {"kind": "decide", "argv": ["--format", "text", "decide", "--pi", "1", "--param",
                                    json.dumps(gen.to_wire((2, ((1, 3), (0, 1), (1, 1)), ())))]},
        {"kind": "enumerate", "argv": ["enumerate-pi", "3", "2"]},
        {"kind": "malformed", "argv": ["decide", "--pi", "1", "--param", '{"n": 3, "unipotent": '
                                       '[{"char": "triv", "dim": 1}], "discrete": []}']},
        {"kind": "coerced", "argv": gen.COERCED[0]},
    ]
    wl = CliMix({"ops": ops}, lib)
    outcomes = [wl.run(argv) for argv in wl.ops]
    for op, out in zip(ops, outcomes):
        expect(f"cli {op['kind']}", checks.cli_problems(op, out), True)
    rho, decide, enum, bad, coerced = outcomes
    expect("rho exit 3 is the discrepancy", [] if rho[0] == 3 else ["no exit 3"], True)
    expect("rho wrong exit code", checks.cli_problems(ops[0], (0,) + rho[1:]), False)
    report = json.loads(rho[1])
    del report["schema_version"]
    expect("rho without schema_version", checks.cli_problems(ops[0], (3, json.dumps(report), "")), False)
    expect("decide oracle disagrees", checks.cli_problems(
        ops[1], (0, decide[1].replace("oracle_agrees = true", "oracle_agrees = false"), "")), False)
    expect("decide flipped member", checks.cli_problems(
        ops[1], (0, decide[1].replace("member = true", "member = false"), "")), False)
    expect("unreadable text report", checks.cli_problems(ops[1], (0, "member: yes\n", "")), False)
    report = json.loads(enum[1])
    report["results"]["packets"].pop()
    expect("enumerate dropped packet", checks.cli_problems(ops[2], (0, json.dumps(report), "")), False)
    expect("malformed accepted", checks.cli_problems(ops[3], (0, enum[1], "")), False)
    err = json.loads(bad[2])
    err["violations"] = []
    expect("malformed without violations", checks.cli_problems(ops[3], (2, "", json.dumps(err))), False)
    expect("coerced input counted as failed",
           [] if checks.cli_failed(ops[4], (0, "", "")) else ["not failed"], True)
    expect("rejected coerced input not failed",
           [] if not checks.cli_failed(ops[4], (2, "", bad[2])) else ["failed"], True)
    expect("coerced report judged by the failure count only", checks.cli_problems(ops[4], coerced), True)


def main() -> int:
    lib = import_library()
    packets_case(lib)
    query_case(lib)
    cli_case(lib)
    expect("small ranks", checks.small_rank_problems(lib), True)
    for line in FAILURES:
        print(f"SELFTEST FAILED: {line}")
    print("selftest:", "FAILED" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
