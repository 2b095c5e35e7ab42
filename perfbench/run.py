"""Layered benchmark of sympacket: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The inputs are generated from the seed by
``gen.py`` in a child process before anything is timed.  The run then sets
the library up several times (import plus loading the inputs), repeats whole
rounds of the workload's operations for ``--seconds``, checks the outputs
and prints one JSON object as its last line.  With ``--trace 0`` it reports
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
rounds, alternated with untraced ones to give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("params", "membership", "characters", "weights", "cli",
           "quadforms", "cohomology", "langlands", "tableaux")
SETUPS = 15

PER_LAYER = [  # name, unit, source
    ("params.enumerate_ms", "ms", "params.enumerate"),
    ("params.covers_ms", "ms", "params.covers"),
    ("params.materialized", "count", "params.materialized"),
    ("params.validate_calls", "count", "params.validate"),
    ("weights.inf_char_calls", "count", "weights.inf_char"),
    ("membership.decide_ms", "ms", "membership.decide"),
    ("membership.decide_calls", "count", "membership.decide.calls"),
    ("membership.member_ratio", "ratio", None),
    ("membership.oracle_ms", "ms", "membership.oracle"),
    ("characters.rho_ms", "ms", "characters.rho"),
    ("characters.rho_calls", "count", "characters.rho.calls"),
    ("characters.decide_calls", "count", "characters.decide_calls"),
    ("cli.parse_ms", "ms", "cli.parse"),
    ("cli.wire_ms", "ms", "cli.wire"),
    ("cli.render_ms", "ms", "cli.render"),
    ("cli.enumerate_calls", "count", None),
    ("quadforms.ms", "ms", "quadforms"),
    ("cohomology.ms", "ms", "cohomology"),
    ("langlands.ms", "ms", "langlands"),
    ("tableaux.ms", "ms", "tableaux"),
]


def import_library() -> dict:
    """A fresh import of every module of the package from ./src."""
    for name in [m for m in sys.modules if m == "sympacket" or m.startswith("sympacket.")]:
        del sys.modules[name]
    lib = {m: importlib.import_module(f"sympacket.{m}") for m in MODULES}
    if not os.path.abspath(lib["params"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"sympacket was not imported from {SRC}")
    return lib


class Clock:
    """Times scaled to a nominal host speed.

    The host's speed drifts by up to 1.6x over tens of seconds, for whole
    runs at a time.  A fixed reference computation (the benchmark's own
    parameter enumerator, garbage collection off) is timed at least every
    REF_EVERY_S seconds, and each measured time is multiplied by
    REF_NOMINAL_S / (the latest reference time).  The reference never
    changes with the program, so a change to the program moves the scaled
    time as it moves the raw one.  Raw round times and the reference samples
    are kept in the result file.
    """

    REF_NOMINAL_S = 0.003  # about the reference's median time on a 2-core VM
    REF_EVERY_S = 0.2
    REF_CHI = gen.target_inf_char("pi", 8, 5)

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.factor = 1.0
        self._last = float("-inf")

    def reference(self) -> float:
        times = []
        gc.disable()
        try:
            for _ in range(3):
                gen.covers.cache_clear()
                start = perf_counter()
                gen.enumerate_params(self.REF_CHI, 8)
                times.append(perf_counter() - start)
        finally:
            gc.enable()
        return statistics.median(times)

    def tick(self, force: bool = False) -> None:
        """Take a reference sample if the last one is old."""
        if force or perf_counter() - self._last >= self.REF_EVERY_S:
            ref = self.reference()
            self.refs.append(ref)
            self.factor = self.REF_NOMINAL_S / ref
            self._last = perf_counter()


def set_up(workload: str, path: str, clock: Clock):
    gc.collect()
    clock.tick(force=True)
    start = perf_counter()
    lib = import_library()
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    wl = workloads.WORKLOADS[workload](data, lib)
    return (perf_counter() - start) * clock.factor, lib, wl


class Round:
    """One pass over the workload's operations."""

    def __init__(self, wl, clock: Clock, each=None) -> None:
        gc.collect()
        self.results: list = []
        self.times: list[float] = []  # scaled seconds per operation
        first_ref = len(clock.refs)
        start = perf_counter()
        for i, op in enumerate(wl.ops):
            clock.tick()
            t0 = perf_counter()
            self.results.append(each(i, op) if each else wl.run(op))
            self.times.append((perf_counter() - t0) * clock.factor)
        self.raw_s = perf_counter() - start
        self.wall_s = sum(self.times)
        refs = clock.refs[first_ref:] or clock.refs[-1:]
        self.factor = clock.REF_NOMINAL_S / statistics.median(refs)


class Rounds:
    """Whole rounds until the time is spent; outputs of every round must
    equal the first round's, which are kept for the checks."""

    def __init__(self, wl, seconds: float) -> None:
        self.wl = wl
        self.deadline = perf_counter() + seconds
        self.first: list | None = None
        self.attempted = self.failed = 0
        self.changed = False
        self.raw: list[float] = []

    def more(self, done: int, min_rounds: int) -> bool:
        if done < min_rounds:
            return True
        return perf_counter() + statistics.median(self.raw) <= self.deadline

    def record(self, r: Round) -> None:
        if self.first is None:
            self.first = r.results
        elif r.results != self.first:
            self.changed = True
        self.raw.append(r.raw_s)
        self.attempted += len(r.results)
        self.failed += sum(self.wl.failed(i, x) for i, x in enumerate(r.results))


def count_calls(wl) -> int:
    """Python and C function-call events over one round."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    gc.collect()
    sys.setprofile(profile)
    for op in wl.ops:
        wl.run(op)
    sys.setprofile(None)
    return calls


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(wl, seconds: float, clock: Clock, setup_times: list):
    rounds = Rounds(wl, seconds)
    times: list = []
    walls: list = []
    while rounds.more(len(walls), wl.min_rounds):
        r = Round(wl, clock)
        rounds.record(r)
        times += r.times
        walls.append(r.wall_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (percentile(times, wl.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"rounds": len(walls), "ops_timed": len(times), "tail_pct": wl.tail_pct,
            "raw_round_s": rounds.raw, "setup_s": setup_times, "refs": clock.refs,
            "walls": walls}
    return rounds, metrics, info


def per_layer(wl, lib: dict, seconds: float, clock: Clock, spans_path: str):
    tracer = tracing.Tracer(lib)
    rounds = Rounds(wl, seconds)
    plain: list = []
    traced: list = []
    layers: list[dict] = []
    kept_spans = None

    def traced_op(i, op):
        tracer.op_id = len(traced) * len(wl.ops) + i
        before = tracer.counts["params.enumerate.calls"]
        result = tracer.op_span(wl.run, op)
        if i in wl.enumerate_ops:
            tracer.counts["cli.enumerate_calls"] += (
                tracer.counts["params.enumerate.calls"] - before)
        return result

    while rounds.more(len(traced), max(2, wl.min_rounds)):
        r = Round(wl, clock)
        rounds.record(r)
        plain.append(r.wall_s)
        tracer.reset()
        tracer.install()
        try:
            r = Round(wl, clock, each=traced_op)
        finally:
            tracer.uninstall()
        rounds.record(r)
        traced.append(r.wall_s)
        layers.append(layer_values(tracer, wl, r.factor))
        if kept_spans is None:
            kept_spans = tracer.spans
    tracing.write_spans(kept_spans, spans_path)
    metrics = {
        name: (statistics.median(r[name] for r in layers), unit)
        for name, unit, _ in PER_LAYER
    }
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    info = {"rounds": len(plain) + len(traced), "traced_rounds": len(traced),
            "traced_wall_s": statistics.median(traced), "wall_s": statistics.median(plain),
            "self_s": {k: v / len(traced) for k, v in sorted(totals(layers).items())}}
    return rounds, metrics, info


def layer_values(tracer, wl, factor: float) -> dict:
    out = {}
    for name, unit, source in PER_LAYER:
        if unit == "ms":
            out[name] = tracer.self_s.get(source, 0.0) * factor * 1e3
        elif source is not None:
            out[name] = tracer.counts.get(source, 0)
    questions = tracer.counts.get("membership.questions", 0)
    out["membership.member_ratio"] = (
        tracer.counts.get("membership.members", 0) / questions if questions else 0.0)
    out["cli.enumerate_calls"] = (
        tracer.counts.get("cli.enumerate_calls", 0) / len(wl.enumerate_ops)
        if wl.enumerate_ops else 0.0)
    out["_self_s"] = {k: v * factor for k, v in tracer.self_s.items()}
    return out


def totals(layers: list[dict]) -> dict:
    out: dict = {}
    for r in layers:
        for k, v in r["_self_s"].items():
            out[k] = out.get(k, 0.0) + v
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "sympacket", "__init__.py")):
        print(f"no sympacket sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    path = gen.inputs_path(args.workload, args.seed)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"),
         "--workload", args.workload, "--seed", str(args.seed)],
        check=True, stdout=subprocess.DEVNULL)
    sys.path.insert(0, SRC)
    clock = Clock()
    setup_times = []
    for _ in range(SETUPS):
        elapsed, lib, wl = set_up(args.workload, path, clock)
        setup_times.append(elapsed)

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = os.path.join(gen.OUT_DIR, f"spans-{tag}.jsonl")
        rounds, metrics, info = per_layer(wl, lib, args.seconds, clock, spans_path)
    else:
        rounds, metrics, info = end_to_end(wl, args.seconds, clock, setup_times)
        metrics["py_calls"] = (count_calls(wl), "calls")

    problems = wl.problems(rounds.first)
    if rounds.changed:
        problems.append("outputs differ between rounds")
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(gen.OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, info=info, problems=problems[:100]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
