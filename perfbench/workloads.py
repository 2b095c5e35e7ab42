"""The three workloads: how one operation runs and how a round is checked.

A workload is built from the generated inputs during set-up.  ``ops`` is the
fixed list of one round; ``run(op)`` performs one operation through the
library's modules, looked up at call time so that trace wrappers apply.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import checks


class Sweep:
    """enumerate_packets_* for every m and k at the swept ranks, with both
    characters of every member."""

    tail_pct = 90
    min_rounds = 3
    enumerate_ops: frozenset = frozenset()

    def __init__(self, data: dict, lib: dict) -> None:
        self.lib = lib
        self.ops = [tuple(op) for op in data["ops"]]

    def run(self, op):
        module, n, value = op
        members, chars = self.lib["membership"], self.lib["characters"]
        if module == "pi":
            packets = members.enumerate_packets_pi(n, value)
            rho = chars.rho_pi_general
        else:
            packets = members.enumerate_packets_sigma(n, value)
            rho = chars.rho_sigma_general
        return packets, [(rho(psi, n, value, 1), rho(psi, n, value, -1)) for psi, _ in packets]

    def failed(self, index: int, result) -> bool:
        return False

    def problems(self, results: list) -> list[str]:
        out = checks.small_rank_problems(self.lib)
        for (module, n, value), (packets, chars) in zip(self.ops, results):
            out += checks.packet_problems(self.lib, module, n, value, packets, chars)
        return out


class PointQueries:
    """Public decide_pi / decide_sigma on single parameters, characters of
    the members."""

    tail_pct = 95
    min_rounds = 1
    enumerate_ops: frozenset = frozenset()

    def __init__(self, data: dict, lib: dict) -> None:
        self.lib = lib
        self.questions = data["ops"]
        P = lib["params"]
        char = {"triv": P.CHAR_TRIV, "sgn": P.CHAR_SGN}
        self.ops = []
        for q in self.questions:
            w = q["param"]
            psi = P.ArthurParameter(
                w["n"],
                tuple(P.UnipotentBlock(char[b["char"]], b["dim"]) for b in w["unipotent"]),
                tuple(P.DiscreteBlock(b["t"], b["a"]) for b in w["discrete"]),
            )
            self.ops.append((q["module"] == "pi", psi, q["n"], q["value"]))

    def run(self, op):
        is_pi, psi, n, value = op
        if is_pi:
            verdict = self.lib["membership"].decide_pi(psi, n, value)
            rho = self.lib["characters"].rho_pi_general
        else:
            verdict = self.lib["membership"].decide_sigma(psi, n, value)
            rho = self.lib["characters"].rho_sigma_general
        if not verdict.member:
            return verdict, ()
        return verdict, (rho(psi, n, value, 1), rho(psi, n, value, -1))

    def failed(self, index: int, result) -> bool:
        return False

    def problems(self, results: list) -> list[str]:
        out = []
        for q, op, result in zip(self.questions, self.ops, results):
            out += checks.query_problems(self.lib, q, op[1], result)
        return out


class CliMix:
    """sympacket.cli.main(argv) in process, output captured."""

    tail_pct = 95
    min_rounds = 2

    def __init__(self, data: dict, lib: dict) -> None:
        self.lib = lib
        self.specs = data["ops"]
        self.ops = [op["argv"] for op in self.specs]
        self.enumerate_ops = frozenset(
            i for i, op in enumerate(self.specs) if op["kind"] == "enumerate")

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.lib["cli"].main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def failed(self, index: int, result) -> bool:
        return checks.cli_failed(self.specs[index], result)

    def problems(self, results: list) -> list[str]:
        out = []
        for spec, result in zip(self.specs, results):
            out += checks.cli_problems(spec, result)
        if not any(code == 3 for code, _, _ in results):
            out.append("no report touched the documented discrepancy (exit 3)")
        return out


WORKLOADS = {"sweep": Sweep, "point-queries": PointQueries, "cli-mix": CliMix}
