"""Batch command line interface with machine readable reports.

Every subcommand prints a self-describing report (JSON by default, plain
text with --format text).  Exit codes: 0 success, 1 usage error, 2 invalid
input (violation codes listed in the report), 3 a computation touched the
documented internal discrepancy between the two printed character recipes,
141 the reader closed stdout before the report was written (128 + SIGPIPE).

Besides the parameter codes of ``params.validate`` and ``UNKNOWN_FIELD:*``,
an exit 2 names one of: ``PARAM_UNREADABLE`` (a ``--param`` file that cannot
be read, or longer than ``MAX_PARAM_BYTES``, 1 MiB: only that many bytes and
one more are read), ``PARAM_JSON`` (a ``--param`` that is not JSON, or nested
deeper than the decoder's stack), ``RANK_BOUND`` (a rank above the
enumeration cap or ``MAX_REPORT_RANK``), ``NOT_MEMBER`` (a character asked of
a packet without the module), ``WEIGHT_SHAPE`` (a ``--weight`` that is not a
list of integers) and ``RANGE`` (any other argument outside the domain of the
computation, such as m > n).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import Any

from . import characters, cohomology, langlands, membership, quadforms, tableaux
from .params import (
    ArthurParameter,
    DiscreteBlock,
    RankBoundError,
    UnipotentBlock,
    _trusted_param,
    char_from_name,
    char_name,
    inf_char_of_param,
    validate,
)
from .weights import HighestWeight, module_of

SCHEMA_VERSION = 1

# Largest rank accepted by ``standard``, ``howe``, ``tableau`` and ``cohind``,
# and of a ``--param``: their reports and the infinitesimal characters of
# ``decide`` and ``rho`` grow with n (cohomology.rho_vectors quadratically),
# and no computation here uses a rank anywhere near it.
MAX_REPORT_RANK = 64

# Largest ``--param`` file read, in bytes.  A rank-64 parameter of 129
# one-dimensional blocks, indented, takes under 10 kB; only the file's first
# MAX_PARAM_BYTES + 1 bytes are read, so ``/dev/zero`` is refused at once.
MAX_PARAM_BYTES = 1 << 20


class UsageError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, message: str, violations: list[str]):
        super().__init__(message)
        self.violations = violations


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


# --- parameter wire format ---------------------------------------------------


def _block_to_json(b: UnipotentBlock | DiscreteBlock) -> dict[str, Any]:
    if isinstance(b, UnipotentBlock):
        return {"char": char_name(b.char), "dim": b.dim}
    return {"t": b.t, "a": b.a}


def param_to_json(psi: ArthurParameter) -> dict[str, Any]:
    return {
        "n": psi.n,
        "unipotent": [_block_to_json(b) for b in psi.unipotent],
        "discrete": [_block_to_json(b) for b in psi.discrete],
    }


def _strict_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(
            f"unknown fields in {where}: {sorted(unknown)}",
            [f"UNKNOWN_FIELD:{k}" for k in sorted(unknown)],
        )


def _wire_int(obj: dict, key: str) -> int:
    """A JSON integer field, taken as it is: no bool, float or string."""
    value = obj[key]
    if type(value) is not int:
        raise ValidationError(
            f"malformed parameter: {key} must be an integer, got {value!r}",
            ["BLOCK_SHAPE"],
        )
    return value


def param_from_json(obj: Any) -> ArthurParameter:
    """The parameter of a wire object, refused (``ValidationError``) unless
    it is well formed, valid and of rank at most ``MAX_REPORT_RANK``.

    It is validated here, once: the parameter returned records its
    infinitesimal character (``params._trusted_param``), so the deciders
    and characters it is handed to do not validate it again.
    """
    if not isinstance(obj, dict):
        raise ValidationError("parameter must be a JSON object", ["BLOCK_SHAPE"])
    _strict_keys(obj, {"n", "unipotent", "discrete"}, "parameter")
    try:
        unip = tuple(
            UnipotentBlock(char_from_name(b["char"]), _wire_int(b, "dim"))
            for b in obj.get("unipotent", ())
        )
        disc = tuple(
            DiscreteBlock(_wire_int(b, "t"), _wire_int(b, "a"))
            for b in obj.get("discrete", ())
        )
        for b in obj.get("unipotent", ()):
            _strict_keys(b, {"char", "dim"}, "unipotent block")
        for b in obj.get("discrete", ()):
            _strict_keys(b, {"t", "a"}, "discrete block")
        psi = ArthurParameter(_wire_int(obj, "n"), unip, disc)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed parameter: {exc}", ["BLOCK_SHAPE"]) from exc
    violations = validate(psi)
    if violations:
        raise ValidationError(f"invalid parameter: {violations}", violations)
    _check_report_rank(psi.n)
    entries = inf_char_of_param(psi).entries
    return _trusted_param(psi.n, psi.unipotent, psi.discrete, entries)


def _read_param_file(path: str) -> str:
    """The text of a ``--param`` file of at most ``MAX_PARAM_BYTES`` bytes,
    decoded as a text-mode read decodes it (UTF-8, universal newlines)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_PARAM_BYTES + 1)
    except OSError as exc:
        raise ValidationError(
            f"cannot read parameter file: {exc}", ["PARAM_UNREADABLE"]
        ) from exc
    if len(data) > MAX_PARAM_BYTES:
        raise ValidationError(
            f"parameter file is longer than {MAX_PARAM_BYTES} bytes",
            ["PARAM_UNREADABLE"],
        )
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _load_param(spec: str) -> ArthurParameter:
    text = spec
    if not spec.lstrip().startswith(("{", "[")):
        text = _read_param_file(spec)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"parameter is not valid JSON: {exc}", ["PARAM_JSON"]
        ) from exc
    except RecursionError as exc:  # nesting deeper than the decoder's stack
        raise ValidationError(
            f"parameter is nested too deeply: {exc}", ["PARAM_JSON"]
        ) from exc
    return param_from_json(obj)


def _character_to_json(char: characters.PacketCharacter) -> dict[str, Any]:
    return {
        "whittaker": char.whittaker,
        "blocks": [_block_to_json(b) for b in char.blocks],
        "signs": list(char.signs),
        "flags": list(char.flags),
    }


def _halfvec_to_json(vec: cohomology.HalfIntVector) -> dict[str, Any]:
    return {"doubled": list(vec.doubled), "half": True}


# --- subcommand handlers ------------------------------------------------------

# the name of the value of each module family: pi_n(m), sigma_{n,k}
_LABELS = {"pi": "m", "sigma": "k"}


def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    n, value = args.n, args.value
    label = _LABELS[args.family]
    module = module_of(args.family, n, value)
    count, packets = membership._enumerate_counted(module)
    results = {
        "inf_char": list(module.inf_char()),
        "parameters_with_inf_char": count,
        "packets": [
            {
                "parameter": param_to_json(psi),
                "route": verdict.route,
                "multiplicity": verdict.multiplicity,
            }
            for psi, verdict in packets
        ],
    }
    return _report(f"enumerate-{args.family}", {"n": n, label: value}, results), 0


def _cmd_decide(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    psi = _load_param(args.param)
    inputs: dict[str, Any] = {"parameter": param_to_json(psi)}
    if args.pi is not None:
        inputs["pi_m"] = args.pi
        verdict = membership.decide_pi(psi, psi.n, args.pi)
        results = {
            "member": verdict.member,
            "route": verdict.route,
            "multiplicity": verdict.multiplicity,
            "oracle_agrees": membership.decide_pi_recursive(psi, psi.n, args.pi)
            == verdict.member,
        }
    elif args.sigma is not None:
        inputs["sigma_k"] = args.sigma
        verdict = membership.decide_sigma(psi, psi.n, args.sigma)
        results = {
            "member": verdict.member,
            "route": verdict.route,
            "multiplicity": verdict.multiplicity,
        }
    else:
        inputs["regular_a"] = args.regular
        results = {"member": membership.decide_regular(psi, args.regular)}
    return _report("decide", inputs, results), 0


def _cmd_rho(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    psi = _load_param(args.param)
    delta = args.whittaker
    inputs = {
        "parameter": param_to_json(psi),
        "module": args.module,
        "whittaker": delta,
    }
    label = _LABELS[args.module]
    value = getattr(args, label)
    if value is None:
        raise UsageError(f"--{label} is required with --module {args.module}")
    for other in _LABELS.values():
        if other != label and getattr(args, other) is not None:
            raise UsageError(f"--{other} is not allowed with --module {args.module}")
    inputs[label] = value
    module = module_of(args.module, psi.n, value)
    route = membership._decide_route(psi, module)
    try:
        char = characters._rho_core(psi, delta, module, route)
    except ValueError as exc:  # the recipe refuses only non-members
        raise ValidationError(str(exc), ["NOT_MEMBER"]) from exc
    results: dict[str, Any] = {"character": _character_to_json(char)}
    code = 0
    if not psi.discrete and len(psi.unipotent) == 3:
        # the printed column: THM71_II_A1 members house the pi_star lift, the
        # others sigma_star; the big block R[2(n - m_table) + 1] gives the rank
        which = "pi_star" if route.verdict.route == membership.ROUTE_II_A1 else "sigma_star"
        m_table = (2 * psi.n + 1 - route.top) // 2
        found = characters.table_row(psi, which, m_table, delta)
        if found is not None and not found[1].flags and not char.flags:
            row = found[1]
            agrees = characters.char_equivalent(char, row)
            results["table_row"] = _character_to_json(row)
            results["table_row_which"] = which
            results["table_agrees"] = agrees
            if not agrees:
                results["discrepancy"] = (
                    "the two printed character recipes disagree on this row; "
                    "reported as-is"
                )
                code = 3
    return _report("rho", inputs, results), code


def _cmd_invariants(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    p, q = args.p, args.q
    deltas = [args.delta] if args.delta else [1, -1]
    results: dict[str, Any] = {
        "det_class": quadforms.det_class(p, q),
        "discriminant": quadforms.discriminant(p, q),
        "hasse": {str(d): quadforms.hasse_normalized(p, q, d) for d in deltas},
    }
    if (p + q) % 2 == 0:
        chars = []
        for d in deltas:
            for c in quadforms.o_characters(p, q, d):
                chars.append(
                    {
                        "eta": char_name(c.eta),
                        "tau": c.tau,
                        "delta": c.delta,
                        "restriction": list(c.restriction),
                        "first_occurrence": quadforms.first_occurrence(c, p, q),
                    }
                )
        results["characters"] = chars
    return _report("invariants", {"p": p, "q": q}, results), 0


_HOWE_CHAR = {"triv": (0, 0), "det": (0, 1), "sgn": (1, 0), "sgn-det": (1, 1)}


def _cmd_howe(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    p, q, n, delta = args.p, args.q, args.rank, args.delta or 1
    _check_report_rank(n)
    if (p + q) % 2 != 0:
        raise ValidationError("p + q must be even", ["RANGE"])
    if args.char is not None:
        eta, tau = _HOWE_CHAR[args.char]
    else:
        if args.eta is None or args.tau is None:
            raise UsageError("give either --char or both --eta and --tau")
        eta, tau = char_from_name(args.eta), args.tau
    match = [
        c
        for c in quadforms.o_characters(p, q, delta)
        if c.eta == eta and c.tau == tau
    ]
    if not match:
        raise ValidationError("no such character on this group", ["RANGE"])
    c = match[0]
    ktype = quadforms.howe_ktype(c, p, q, n)
    results: dict[str, Any] = {
        "first_occurrence": quadforms.first_occurrence(c, p, q),
        "restriction": list(c.restriction),
        "ktype": list(ktype) if ktype is not None else None,
    }
    if ktype is not None:
        results["degree"] = quadforms.howe_degree(ktype, p, q)
    inputs = {
        "p": p,
        "q": q,
        "eta": char_name(eta),
        "tau": tau,
        "rank": n,
        "delta": delta,
    }
    return _report("howe", inputs, results), 0


def _cmd_standard(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    _check_report_rank(args.n)
    if args.family == "pi":
        sm = langlands.standard_pi(args.n, args.value)
    else:
        sm = langlands.standard_sigma(args.n, args.value)
    results = {
        "exponents": [{"sgn_power": s, "exponent": e} for s, e in sm.exponents],
        "base": sm.base_label,
        "max_exponent": langlands.max_exponent(sm),
    }
    inputs = {"family": args.family, "n": args.n, "value": args.value}
    return _report("standard", inputs, results), 0


def _check_report_rank(n: int) -> None:
    if n > MAX_REPORT_RANK:
        raise ValidationError(
            f"rank {n} exceeds the bound {MAX_REPORT_RANK}", ["RANK_BOUND"]
        )


def _cmd_tableau(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    _check_report_rank(args.n)
    tab = tableaux.av_scalar(args.n, args.m)
    results = {
        "rows": tableaux.render_tableau(tab),
        "chain_index": tableaux.chain_index(tab, args.n),
        "boxes": tab.boxes,
        "violations": tableaux.validate_tableau(tab, args.n),
    }
    return _report("tableau", {"n": args.n, "m": args.m}, results), 0


def _cmd_cohind(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    n, p, q = args.n, args.p, args.q
    _check_report_rank(n)
    data = cohomology.rho_vectors(n, p, q)
    results: dict[str, Any] = {
        "delta_l": _halfvec_to_json(data.delta_l),
        "delta_up": _halfvec_to_json(data.delta_up),
        "delta_uk": _halfvec_to_json(data.delta_uk),
        "delta_u": _halfvec_to_json(data.delta_u),
        "delta_pq": _halfvec_to_json(data.delta_pq),
        "S": data.S,
    }
    inputs: dict[str, Any] = {"n": n, "p": p, "q": q}
    if args.t is not None:
        inputs["t"] = args.t
        results["lambda"] = _halfvec_to_json(cohomology.lambda_of(n, p, q, args.t))
        results["weakly_fair"] = cohomology.weakly_fair(args.t)
        if args.scalar_m is not None:
            inputs["scalar_m"] = args.scalar_m
            results["scalar_ktype_inequality"] = cohomology.ktype_inequality_scalar(
                args.scalar_m, p, q, args.t
            )
        if args.weight:
            try:
                mu = HighestWeight(tuple(int(x) for x in args.weight.split(",")))
            except ValueError as exc:
                raise ValidationError(str(exc), ["WEIGHT_SHAPE"]) from exc
            inputs["weight"] = list(mu.entries)
            results["ktype_inequality"] = cohomology.ktype_inequality_general(
                mu, n, p, q, args.t
            )
    return _report("cohind", inputs, results), 0


# --- plumbing -----------------------------------------------------------------


def _report(command: str, inputs: dict[str, Any], results: dict[str, Any]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"# {report['command']}")
    for section in ("inputs", "results"):
        print(f"[{section}]")
        for key, value in report[section].items():
            print(f"  {key} = {_render_value(value)}")


def _render_value(value: Any) -> str:
    if isinstance(value, dict) and {"n", "unipotent", "discrete"} <= set(value):
        unip = [
            f"{b['char']}⊠R[{b['dim']}]" for b in value["unipotent"]
        ]
        disc = [f"δ_{b['t']}⊠R[{b['a']}]" for b in value["discrete"]]
        return " ⊕ ".join(disc + unip) + f"  (n={value['n']})"
    return json.dumps(value, sort_keys=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="sympacket", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="cmd", required=True)

    for family, label in _LABELS.items():
        sp = sub.add_parser(f"enumerate-{family}")
        sp.add_argument("n", type=int)
        sp.add_argument("value", metavar=label, type=int)
        sp.set_defaults(func=_cmd_enumerate, family=family)

    sp = sub.add_parser("decide")
    sp.add_argument("--param", required=True, help="parameter file or inline JSON")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--pi", type=int, metavar="M")
    group.add_argument("--sigma", type=int, metavar="K")
    group.add_argument("--regular", type=int, metavar="A")
    sp.set_defaults(func=_cmd_decide)

    sp = sub.add_parser("rho")
    sp.add_argument("--param", required=True)
    sp.add_argument("--module", choices=("pi", "sigma"), required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--whittaker", type=int, choices=(1, -1), default=1)
    sp.set_defaults(func=_cmd_rho)

    sp = sub.add_parser("invariants")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--delta", type=int, choices=(1, -1))
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("howe")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--char", choices=tuple(_HOWE_CHAR))
    sp.add_argument("--eta", choices=("triv", "sgn"))
    sp.add_argument("--tau", type=int, choices=(0, 1))
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--delta", type=int, choices=(1, -1))
    sp.set_defaults(func=_cmd_howe)

    sp = sub.add_parser("standard")
    sp.add_argument("family", choices=("pi", "sigma"))
    sp.add_argument("n", type=int)
    sp.add_argument("value", type=int)
    sp.set_defaults(func=_cmd_standard)

    sp = sub.add_parser("tableau")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    sp.set_defaults(func=_cmd_tableau)

    sp = sub.add_parser("cohind")
    sp.add_argument("n", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--scalar-m", type=int)
    sp.add_argument("--weight", help="comma separated highest weight entries")
    sp.set_defaults(func=_cmd_cohind)

    return parser


# The parser holds no state between parses, so each process builds it once.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        report, code = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "error": str(exc),
            "violations": exc.violations,
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
        return 2
    except ValueError as exc:  # the library refused an argument
        violation = "RANK_BOUND" if isinstance(exc, RankBoundError) else "RANGE"
        payload = {
            "schema_version": SCHEMA_VERSION,
            "error": str(exc),
            "violations": [violation],
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
        return 2
    try:
        _print_report(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); point stdout at
        # devnull so that the interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports it
    return code


if __name__ == "__main__":
    raise SystemExit(main())
