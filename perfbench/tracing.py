"""Span tracing installed from outside the library.

``Tracer.install`` replaces module-level functions of ``sympacket`` (every
binding of each, including names imported into other modules) with wrappers
that record a span -- name, start, end, parent span, operation id -- or just
count the call.  ``uninstall`` puts the originals back, so untraced rounds
run the unmodified program.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, function names); every function becomes a span
SPAN_LAYERS = {
    "params.enumerate": ("params", ["enumerate_params"]),
    "params.covers": ("params", ["_all_segment_covers"]),
    "membership.decide": ("membership", ["decide_pi", "decide_sigma"]),
    "membership.oracle": ("membership", ["decide_pi_recursive"]),
    "characters.rho": ("characters", ["rho_pi_general", "rho_sigma_general"]),
    "cli.parse": ("cli", ["build_parser"]),
    "cli.wire": ("cli", ["_load_param", "param_from_json", "param_to_json"]),
    "cli.render": ("cli", ["_print_report"]),
}
# whole modules whose public functions are spans of one layer each
MODULE_LAYERS = ("quadforms", "cohomology", "langlands", "tableaux")
# counted, not timed: (layer, module, function)
COUNTED = [
    ("params.validate", "params", "validate"),
    ("weights.inf_char", "weights", "inf_char_of_weight"),
    ("weights.inf_char", "params", "inf_char_of_param"),
]


class Tracer:
    def __init__(self, lib: dict) -> None:
        self.lib = lib  # short module name -> module
        self.patches: list[tuple[object, str, object, object]] = []
        self.reset()
        self._build()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [index, layer, child seconds]
        self.op_id = -1

    # --- wrappers -----------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (
                    name, start, end, parent[0] if parent else -1, tracer.op_id)
                tracer.self_s[layer] += end - start - frame[2]
                if parent:
                    parent[2] += end - start
            tracer._observe(layer, parent, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter(self, layer: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.counts[layer] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _observe(self, layer: str, parent, result) -> None:
        counts = self.counts
        counts[layer + ".calls"] += 1
        if layer == "membership.decide":
            if parent and parent[1] == "characters.rho":
                counts["characters.decide_calls"] += 1
            elif not parent or parent[1] != "membership.decide":
                counts["membership.questions"] += 1
                counts["membership.members"] += bool(result.member)
        elif layer == "params.enumerate":
            counts["params.materialized"] += len(result)

    # --- installation ---------------------------------------------------------

    def _bindings(self, fn):
        """Every (module, name) of the package bound to this function."""
        for modname, module in list(sys.modules.items()):
            if modname == "sympacket" or modname.startswith("sympacket."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        yield module, attr

    def _plan(self, fn, wrapper) -> None:
        for module, attr in self._bindings(fn):
            self.patches.append((module, attr, fn, wrapper))

    def _build(self) -> None:
        for layer, (mod, names) in SPAN_LAYERS.items():
            for name in names:
                fn = getattr(self.lib[mod], name)
                self._plan(fn, self._span(layer, f"{mod}.{name}", fn))
        for mod in MODULE_LAYERS:
            module = self.lib[mod]
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type):
                    self._plan(fn, self._span(f"{mod}", f"{mod}.{name}", fn))
        for layer, mod, name in COUNTED:
            fn = getattr(self.lib[mod], name)
            self._plan(fn, self._counter(layer, fn))
        # the parser is built and run on every command; parse_args is
        # inherited, so uninstalling deletes the override again
        parse = self.lib["cli"]._Parser.parse_args
        self.parse_span = self._span("cli.parse", "cli.parse_args", parse)
        self.op_span = self._span("op", "op", lambda run, op: run(op))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        self.lib["cli"]._Parser.parse_args = self.parse_span

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)
        del self.lib["cli"]._Parser.parse_args


def write_spans(spans: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps(
                {"name": name, "start": start, "end": end, "parent": parent, "op": op}))
            fh.write("\n")
