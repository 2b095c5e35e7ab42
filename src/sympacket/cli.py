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
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable, NamedTuple

from . import characters, membership
from .params import (
    ArthurParameter,
    DiscreteBlock,
    RankBoundError,
    UnipotentBlock,
    _trusted_params,
    char_from_name,
    char_name,
    validate,
)
from .weights import _ECHO_LIMIT, HighestWeight, _echo, module_of

SCHEMA_VERSION = 1

# Largest rank accepted by ``standard``, ``howe``, ``tableau`` and ``cohind``,
# and of a ``--param``: their reports and the infinitesimal characters of
# ``decide`` and ``rho`` grow with n, and no computation here uses a rank
# anywhere near it.
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


# The most unknown fields a refusal names.
MAX_UNKNOWN_NAMED = 16


def _strict_keys(obj: dict, allowed: set[str], where: str) -> None:
    """Refuse fields outside ``allowed``.  The first ``MAX_UNKNOWN_NAMED``
    in sorted order are each echoed in the message (``weights._echo``) and
    named in an ``UNKNOWN_FIELD:`` code: whole if its ``repr`` fits
    ``_ECHO_LIMIT``, else as its first ``_ECHO_LIMIT`` characters and
    ``...``, which no name given whole can spell.  The message ends
    ``and K more`` when K more are unknown, so a refusal stays short however
    many fields a parameter has."""
    unknown = sorted(set(obj) - allowed)
    if unknown:
        named = unknown[:MAX_UNKNOWN_NAMED]
        message = f"unknown fields in {where}: [{', '.join(map(_echo, named))}]"
        if len(unknown) > len(named):
            message += f" and {len(unknown) - len(named)} more"
        codes = [k if len(repr(k)) <= _ECHO_LIMIT else f"{k[:_ECHO_LIMIT]}..." for k in named]
        raise ValidationError(message, [f"UNKNOWN_FIELD:{k}" for k in codes])


def _wire_int(obj: dict, key: str) -> int:
    """A JSON integer field, taken as it is: no bool, float or string; a
    refused value is echoed cut short (``weights._echo``)."""
    value = obj[key]
    if type(value) is not int:
        raise ValidationError(
            f"malformed parameter: {key} must be an integer, got {_echo(value)}",
            ["BLOCK_SHAPE"],
        )
    return value


def _block_list(obj: dict, kind: str) -> list:
    """A wire parameter's list of ``kind`` blocks, empty when it is absent."""
    blocks = obj.get(kind, [])
    if not isinstance(blocks, list):
        raise ValidationError(
            f"malformed parameter: {kind} must be a list of blocks", ["BLOCK_SHAPE"]
        )
    return blocks


def _int(text: str) -> int:
    """An integer argument, taken only as JSON writes one: digits, with a
    minus sign if negative.  ``int()`` also takes a ``+`` sign, surrounding
    space, leading zeros, ``_`` separators and other Unicode digits."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return value


# argparse names the type in its usage error: "invalid int value: 'x'"
_int.__name__ = "int"


def param_from_json(obj: Any) -> ArthurParameter:
    """The parameter of a wire object, refused (``ValidationError``) unless
    it is well formed, valid and of rank at most ``MAX_REPORT_RANK``.

    It is built once, marked valid (``params._trusted_params``), and then
    validated here, so the deciders and characters it is handed to do not
    validate it again; an invalid one is refused before it is returned.
    """
    if not isinstance(obj, dict):
        raise ValidationError("parameter must be a JSON object", ["BLOCK_SHAPE"])
    _strict_keys(obj, {"n", "unipotent", "discrete"}, "parameter")
    # every block's fields are read before any block's unknown fields are
    # named; a block whose fields were read and that has two keys has no other
    unip, disc, other = [], [], []
    where = "unipotent block"  # what a missing field is missing from
    try:
        for b in _block_list(obj, "unipotent"):
            if not isinstance(b, dict):
                raise ValidationError(
                    f"malformed parameter: {where} must be a JSON object", ["BLOCK_SHAPE"]
                )
            unip.append(UnipotentBlock(char_from_name(b["char"]), _wire_int(b, "dim")))
            if len(b) != 2:
                other.append((b, {"char", "dim"}, where))
        where = "discrete block"
        for b in _block_list(obj, "discrete"):
            if not isinstance(b, dict):
                raise ValidationError(
                    f"malformed parameter: {where} must be a JSON object", ["BLOCK_SHAPE"]
                )
            disc.append(DiscreteBlock(_wire_int(b, "t"), _wire_int(b, "a")))
            if len(b) != 2:
                other.append((b, {"t", "a"}, where))
        for b, fields, kind in other:
            _strict_keys(b, fields, kind)
        where = "parameter"
        psi = _trusted_params(_wire_int(obj, "n"), tuple(unip), (tuple(disc),))[0]
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(
            f"malformed parameter: missing field {exc.args[0]} in {where}", ["BLOCK_SHAPE"]
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed parameter: {exc}", ["BLOCK_SHAPE"]) from exc
    violations = validate(psi)
    if violations:
        raise ValidationError(f"invalid parameter: {violations}", violations)
    _check_report_rank(psi.n)
    return psi


def _read_param_file(path: str) -> str:
    """The text of a ``--param`` file of at most ``MAX_PARAM_BYTES`` bytes,
    decoded as a text-mode read decodes it (UTF-8, universal newlines); a
    file that is not UTF-8 is unreadable."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_PARAM_BYTES + 1)
        if len(data) <= MAX_PARAM_BYTES:
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(
            f"cannot read parameter file: {exc}", ["PARAM_UNREADABLE"]
        ) from exc
    raise ValidationError(
        f"parameter file is longer than {MAX_PARAM_BYTES} bytes",
        ["PARAM_UNREADABLE"],
    )


def _load_param(spec: str) -> ArthurParameter:
    text = spec
    if not spec.lstrip().startswith(("{", "[")):
        text = _read_param_file(spec)
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
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


def _halfvec_to_json(vec) -> dict[str, Any]:
    """A ``cohomology.HalfIntVector`` on the wire."""
    return {"doubled": list(vec.doubled), "half": True}


# --- subcommand handlers ------------------------------------------------------
#
# A side module (quadforms, langlands, tableaux, cohomology) is imported by the
# handlers that use it, so the packet commands do not load it.  Its functions
# are reached through the module at each call.

# the name of the value of each module family: pi_n(m), sigma_{n,k}
_LABELS = {"pi": "m", "sigma": "k"}


def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    n, value = args.n, args.value
    label = _LABELS[args.family]
    module = module_of(args.family, n, value)
    packets = membership._enumerate_packets(module)  # refuses a rank past the cap
    results = {
        "inf_char": list(module.inf_char()),
        "parameters_with_inf_char": membership._parameter_count(module),
        "packets": [
            {
                "parameter": psi,
                "route": verdict.route,
                "multiplicity": verdict.multiplicity,
            }
            for psi, verdict in packets
        ],
    }
    return _report(f"enumerate-{args.family}", {"n": n, label: value}, results), 0


def _cmd_decide(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    psi = _load_param(args.param)
    inputs: dict[str, Any] = {"parameter": psi}
    if args.pi is not None:
        inputs["pi_m"] = args.pi
        verdict = membership.decide_pi(psi, psi.n, args.pi)
    elif args.sigma is not None:
        inputs["sigma_k"] = args.sigma
        verdict = membership.decide_sigma(psi, psi.n, args.sigma)
    else:
        inputs["regular_a"] = args.regular
        return _report("decide", inputs, {"member": membership.decide_regular(psi, args.regular)}), 0
    results = {"member": verdict.member, "route": verdict.route, "multiplicity": verdict.multiplicity}
    if args.pi is not None:
        results["oracle_agrees"] = membership.decide_pi_recursive(psi, psi.n, args.pi) == verdict.member
    return _report("decide", inputs, results), 0


def _cmd_rho(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    # the flags are checked before --param is read, so a usage mistake is
    # reported whatever the file holds
    label = _LABELS[args.module]
    value = getattr(args, label)
    if value is None:
        raise UsageError(f"--{label} is required with --module {args.module}")
    for other in _LABELS.values():
        if other != label and getattr(args, other) is not None:
            raise UsageError(f"--{other} is not allowed with --module {args.module}")
    psi = _load_param(args.param)
    delta = args.whittaker
    inputs = {
        "parameter": psi,
        "module": args.module,
        "whittaker": delta,
        label: value,
    }
    route = membership._decide_route(psi, args.module, psi.n, value)[0]
    if route is None:
        raise ValidationError(characters._not_member(args.module, psi.n, value), ["NOT_MEMBER"])
    char = characters._rho_core(psi, delta, route)
    results: dict[str, Any] = {"character": char}
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
            results["table_row"] = row
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
    from . import quadforms

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
    from . import quadforms

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
    from . import langlands

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
    from . import tableaux

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
    from . import cohomology

    n, p, q = args.n, args.p, args.q
    if args.t is None and (args.scalar_m is not None or args.weight is not None):
        flag = "--scalar-m" if args.scalar_m is not None else "--weight"
        raise UsageError(f"{flag} needs --t")  # before any work, as rho's flags
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
        if args.weight is not None:
            try:
                mu = HighestWeight(tuple(_int(x) for x in args.weight.split(",")))
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


# what ``_indented_json`` writes a value of another class as: the first of
# these it is an instance of
_WRITTEN_AS = (str, dict, list, tuple, ArthurParameter, characters.PacketCharacter)
# the classes it dispatches on as they are
_WRITTEN = frozenset((int, *_WRITTEN_AS))
_int_repr = int.__repr__


def _indented_json(value: Any) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` gives, with
    each ``ArthurParameter`` in it as its ``param_to_json`` object and each
    ``PacketCharacter`` as its ``_character_to_json`` object, built in one
    list and joined once.

    CPython's C encoder does not take ``indent``, so ``json.dumps`` falls
    back to its generator-based Python encoder there; this walk
    (``_write``) takes less than half of its time on a large report.  A
    value is dispatched on its exact class; strings go through json's
    ``encode_basestring_ascii``, exact ints through ``int.__repr__``.  Any
    other value takes json's own tests: ``True``, ``False`` and ``None`` by
    identity (``1.0 == True``), then ``isinstance``, so a subclass of dict
    or list is walked as one, and any other scalar is written, or refused
    with ``TypeError``, as ``json.dumps`` writes or refuses it.  A report is
    a tree, so no circular reference is looked for: one would end in
    ``RecursionError``.  The text of a record's block tuple is written once
    per call and indentation (``_blocks``).
    """
    parts: list[str] = []
    _write(value, "\n", parts, {})
    return "".join(parts)


def _write(value: Any, nl: str, parts: list[str], memo: dict) -> None:
    """Append the text of ``value`` at indentation ``nl`` to ``parts``, for
    ``_indented_json``, with ``memo`` its call's block texts (``_blocks``).

    The writer is module-level and is handed its list and memo: nested
    closures that call each other refer to each other through their cells,
    so each call would leave them and its memo behind as cyclic garbage.
    The scalars of a container are written in its loop, with no call.
    """
    kind = type(value)
    if kind not in _WRITTEN:
        if value is None or value is True or value is False:
            parts.append("null" if value is None else "true" if value else "false")
            return
        for kind in _WRITTEN_AS:
            if isinstance(value, kind):
                break
        else:
            parts.append(json.dumps(value))
            return
    if kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                key = _json_key(key)
            kind = type(item)
            if kind is str:
                parts.append(f"{sep}{_encode_str(key)}: {_encode_str(item)}")
            elif kind is int:
                parts.append(f"{sep}{_encode_str(key)}: {_int_repr(item)}")
            else:
                parts.append(f"{sep}{_encode_str(key)}: ")
                _write(item, inner, parts, memo)
            sep = "," + inner
        parts.append(nl + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                parts.append(sep + _encode_str(item))
            elif kind is int:
                parts.append(sep + _int_repr(item))
            else:
                parts.append(sep)
                _write(item, inner, parts, memo)
            sep = "," + inner
        parts.append(nl + "]")
    elif kind is ArthurParameter:  # keys as param_to_json sorts them
        inner = nl + "  "
        parts.append(f'{{{inner}"discrete": {_blocks(value.discrete, inner, memo)},{inner}"n": ')
        _write(value.n, inner, parts, memo)
        parts.append(f',{inner}"unipotent": {_blocks(value.unipotent, inner, memo)}{nl}}}')
    elif kind is str:
        parts.append(_encode_str(value))
    elif kind is int:  # a parameter's rank, a character's token
        parts.append(_int_repr(value))
    else:  # a character, keys as _character_to_json sorts them
        inner = nl + "  "
        parts.append(f'{{{inner}"blocks": {_blocks(value.blocks, inner, memo)},{inner}"flags": ')
        _write(value.flags, inner, parts, memo)
        parts.append(f',{inner}"signs": ')
        _write(value.signs, inner, parts, memo)
        parts.append(f',{inner}"whittaker": ')
        _write(value.whittaker, inner, parts, memo)
        parts.append(nl + "}")


def _blocks(items: tuple, nl: str, memo: dict) -> str:
    """The text of a record's block tuple at indentation ``nl``, written once
    per ``_indented_json`` call: ``memo`` keeps it by the tuple's ``id``,
    and keeps each block's text by indentation.

    The enumerators share block tuples among parameters (a cover's discrete
    blocks, a character choice's unipotent blocks), and a member's two
    characters share theirs.  The tuple is keyed by identity, not by value:
    ``(UnipotentBlock(True, 3),) == (UnipotentBlock(1, 3),)``, and both hash
    alike.  The memo holds each tuple beside its text, so no id is reused
    within the call.  A block of exactly ``UnipotentBlock`` or
    ``DiscreteBlock`` whose fields are exact ints is written from them once,
    keyed with its class (``UnipotentBlock(1, 3) == DiscreteBlock(1, 3)``);
    any other goes through ``_block_to_json``.
    """
    key = (id(items), nl)
    found = memo.get(key)
    if found is not None:
        return found[1]
    if not items:
        text = "[]"
    else:
        inner = nl + "  "
        field = inner + "  "
        texts = memo.get(inner)  # the block texts at this indentation
        if texts is None:
            texts = memo[inner] = {}
        out = []
        for b in items:
            kind = type(b)
            first, second = b
            if (type(first) is int and type(second) is int
                    and (kind is UnipotentBlock or kind is DiscreteBlock)):
                block = (kind, b)
                found = texts.get(block)
                if found is None:
                    found = texts[block] = (
                        f'{{{field}"char": "{char_name(first)}",{field}"dim": {second}{inner}}}'
                        if kind is UnipotentBlock
                        else f'{{{field}"a": {second},{field}"t": {first}{inner}}}'
                    )
                out += (found,)
            else:
                parts: list[str] = []
                _write(_block_to_json(b), inner, parts, memo)
                out += ("".join(parts),)
        text = f"[{inner}" + f",{inner}".join(out) + f"{nl}]"
    memo[key] = items, text
    return text


def _json_key(key: Any) -> str:
    """A dict key that is not a string, as ``json.dumps`` names it."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _wire_object(value: Any) -> dict[str, Any]:
    """The wire object of a report's parameter or character."""
    if isinstance(value, characters.PacketCharacter):
        return _character_to_json(value)
    return param_to_json(value)


# ``json.dumps(value, sort_keys=True)`` builds a new encoder on every call; a
# report's characters, and its parameters inside containers, are written as
# their wire objects
_compact_json = json.JSONEncoder(sort_keys=True, default=_wire_object).encode


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_indented_json(report))
        return
    lines = [f"# {report['command']}"]
    for section in ("inputs", "results"):
        lines.append(f"[{section}]")
        lines += [f"  {key} = {_render_value(value)}" for key, value in report[section].items()]
    print("\n".join(lines))


def _render_value(value: Any) -> str:
    if type(value) is str:
        return _encode_str(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, ArthurParameter):
        return f"{value}  (n={value.n})"
    return _compact_json(value)


def build_parser() -> _Parser:
    parser = _CommandLineParser(prog="sympacket", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    for family, label in _LABELS.items():
        sp = sub.add_parser(f"enumerate-{family}")
        sp.add_argument("n", type=_int)
        sp.add_argument("value", metavar=label, type=_int)
        sp.set_defaults(func=_cmd_enumerate, family=family)

    sp = sub.add_parser("decide")
    sp.add_argument("--param", required=True, help="parameter file or inline JSON")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--pi", type=_int, metavar="M")
    group.add_argument("--sigma", type=_int, metavar="K")
    group.add_argument("--regular", type=_int, metavar="A")
    sp.set_defaults(func=_cmd_decide)

    sp = sub.add_parser("rho")
    sp.add_argument("--param", required=True)
    sp.add_argument("--module", choices=("pi", "sigma"), required=True)
    sp.add_argument("--m", type=_int)
    sp.add_argument("--k", type=_int)
    sp.add_argument("--whittaker", type=_int, choices=(1, -1), default=1)
    sp.set_defaults(func=_cmd_rho)

    sp = sub.add_parser("invariants")
    sp.add_argument("p", type=_int)
    sp.add_argument("q", type=_int)
    sp.add_argument("--delta", type=_int, choices=(1, -1))
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("howe")
    sp.add_argument("--p", type=_int, required=True)
    sp.add_argument("--q", type=_int, required=True)
    sp.add_argument("--char", choices=tuple(_HOWE_CHAR))
    sp.add_argument("--eta", choices=("triv", "sgn"))
    sp.add_argument("--tau", type=_int, choices=(0, 1))
    sp.add_argument("--rank", type=_int, required=True)
    sp.add_argument("--delta", type=_int, choices=(1, -1))
    sp.set_defaults(func=_cmd_howe)

    sp = sub.add_parser("standard")
    sp.add_argument("family", choices=("pi", "sigma"))
    sp.add_argument("n", type=_int)
    sp.add_argument("value", type=_int)
    sp.set_defaults(func=_cmd_standard)

    sp = sub.add_parser("tableau")
    sp.add_argument("n", type=_int)
    sp.add_argument("m", type=_int)
    sp.set_defaults(func=_cmd_tableau)

    sp = sub.add_parser("cohind")
    # a weight led by a negative entry, such as -1,-1, is a value as -1 is,
    # not an option
    sp._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")
    sp.add_argument("n", type=_int)
    sp.add_argument("p", type=_int)
    sp.add_argument("q", type=_int)
    sp.add_argument("--t", type=_int)
    sp.add_argument("--scalar-m", type=_int)
    sp.add_argument("--weight", help="comma separated highest weight entries")
    sp.set_defaults(func=_cmd_cohind)

    return parser


# --- the table of well-formed argvs -------------------------------------------
#
# build_parser is the one declaration of the command line.  The top-level
# parser compiles a table from its own actions on its first parse, and parses
# a well-formed argv with it: top-level options, the subcommand, its
# positionals in order, then its options, each given once as ``--opt value``.
# The table declines every other argv (abbreviations, ``=`` forms, ``--``,
# ``-h``, repeats, any token argparse would refuse or read differently), and
# argparse parses it, so its errors and help keep argparse's bytes.

# what reading argparse's private layout may raise on another Python
_LAYOUT_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


class _Decline(Exception):
    """The table does not fully recognise an argv."""


class _Entry(NamedTuple):
    """What the table knows of one parser."""

    start: dict[str, Any]  # the namespace before any token, as argparse begins it
    positionals: tuple[tuple, ...]  # (dest, convert, choices), in order
    options: dict[str, tuple]  # exact option string -> (dest, convert, choices)
    required: frozenset[str]  # the dests of the required options
    groups: tuple[tuple[tuple[str, ...], bool], ...]  # mutually exclusive: dests, required
    is_value: Callable[[str], bool]


def _entry(parser: argparse.ArgumentParser, skip: argparse.Action | None = None) -> _Entry:
    """The entry of a subcommand's parser, or of the top-level one, whose
    subcommand action is ``skip``.  Raises ``_Decline`` unless every other
    action but help stores one value."""
    if parser.fromfile_prefix_chars is not None:
        raise _Decline
    start: dict[str, Any] = {}
    positionals, options, required = [], {}, []
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            start.setdefault(action.dest, action.default)
        if action is skip or isinstance(action, argparse._HelpAction):
            continue
        convert = parser._registry_get("type", action.type, action.type)
        if (type(action) is not argparse._StoreAction or action.nargs is not None
                or not callable(convert)
                # argparse converts an unused default given as a string
                or isinstance(action.default, str) and action.type is not None):
            raise _Decline
        field = (action.dest, convert, action.choices)
        if not action.option_strings:
            positionals.append(field)
        for option in action.option_strings:
            options[option] = field
        if action.required and action.option_strings:
            required.append(action.dest)
    for dest, value in parser._defaults.items():
        start.setdefault(dest, value)
    groups = []
    for group in parser._mutually_exclusive_groups:
        # argparse counts a member as given when its value is not its default
        if any(action.default is not None for action in group._group_actions):
            raise _Decline
        groups.append((tuple(a.dest for a in group._group_actions), group.required))

    chars = parser.prefix_chars
    negative = (None if parser._has_negative_number_optionals
                else parser._negative_number_matcher.match)

    def is_value(token: str) -> bool:
        """argparse reads the token as a value: it does not start with a
        prefix character, or it looks like a negative number in a parser
        with no option that does."""
        if not token or token[0] not in chars:
            return True
        return negative is not None and negative(token) is not None

    return _Entry(start, tuple(positionals), options, frozenset(required), tuple(groups), is_value)


_Table = tuple[_Entry, str, dict[str, _Entry]]  # top level, its subcommand's dest, subcommands


def _compile(parser: argparse.ArgumentParser) -> _Table | None:
    """The table of the top-level ``parser``: an entry for each subcommand
    the table can read, or None where it can read no argv."""
    try:
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        top = _entry(parser, subparsers)
        if top.positionals or subparsers.dest is argparse.SUPPRESS:
            return None
        commands = {}
        for name, sub in subparsers.choices.items():
            try:
                commands[name] = _entry(sub)
            except (_Decline, *_LAYOUT_ERRORS):
                pass
    except (_Decline, *_LAYOUT_ERRORS):
        return None
    return top, subparsers.dest, commands


def _value(entry: _Entry, field: tuple, token: str) -> Any:
    """The value of one token, converted and checked as argparse does."""
    _, convert, choices = field
    if not entry.is_value(token):
        raise _Decline
    try:
        value = convert(token)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise _Decline from None
    if choices is not None and value not in choices:
        raise _Decline
    return value


def _read(entry: _Entry, argv: list[str], i: int) -> tuple[dict[str, Any], int]:
    """The values of the positionals and options of ``entry`` from
    ``argv[i]`` on, and the index of the first token after them."""
    values: dict[str, Any] = {}
    n, stop = len(argv), i + len(entry.positionals)
    if stop > n:
        raise _Decline
    for field, token in zip(entry.positionals, argv[i:stop]):
        values[field[0]] = _value(entry, field, token)
    i, options = stop, entry.options
    while i < n and argv[i] in options:
        field = options[argv[i]]
        if field[0] in values or i + 1 == n:
            raise _Decline
        values[field[0]] = _value(entry, field, argv[i + 1])
        i += 2
    if not entry.required <= values.keys():
        raise _Decline
    for dests, required in entry.groups:
        given = sum(values.get(dest) is not None for dest in dests)
        if given > 1 or required and not given:
            raise _Decline
    return values, i


def _table_parse(table: _Table, argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse returns for a well-formed ``argv``, or None
    where the table does not fully recognise it."""
    top, dest, commands = table
    try:
        top_values, i = _read(top, argv, 0)
        name = argv[i] if i < len(argv) else None
        command = commands.get(name)
        if command is None:
            return None
        values, end = _read(command, argv, i + 1)
    except _Decline:
        return None
    if end != len(argv):
        return None
    # argparse's order: the top level's defaults and options, the subcommand,
    # then the subcommand's defaults and values
    namespace = argparse.Namespace()
    namespace.__dict__.update({**top.start, **top_values, dest: name, **command.start, **values})
    return namespace


class _CommandLineParser(_Parser):
    """The top-level parser: a well-formed argv is parsed with the table, any
    other (or one given a namespace) by argparse."""

    @functools.cached_property
    def _table(self) -> _Table | None:
        return _compile(self)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if namespace is None and self._table is not None:
            parsed = _table_parse(self._table, args)
            if parsed is not None:
                return parsed, []
        return super().parse_known_args(args, namespace)


# The parser holds no state between parses, so each process builds it once.
_parser = functools.cache(build_parser)


def _refuse(exc: Exception, violations: list[str]) -> int:
    """Print the exit-2 payload of a refused input to stderr; return 2."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "error": str(exc),
        "violations": violations,
    }
    print(_indented_json(payload), file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        report, code = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        return _refuse(exc, exc.violations)
    except ValueError as exc:  # the library refused an argument
        violation = "RANK_BOUND" if isinstance(exc, RankBoundError) else "RANGE"
        return _refuse(exc, [violation])
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
