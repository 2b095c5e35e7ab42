"""The benchmark's tracer wraps library functions by name
(``perfbench/tracing.py``).  A renamed or deleted function would make its
traced run fail, or leave a layer silently unmeasured; so every name it
binds must resolve in the library.  And the benchmark's correctness checks
must still accept the library's outputs and reject corrupted ones
(``perfbench/selftest.py``).  The enumerators must reach the cover search
through the name the tracer wraps, and the command line's table of
well-formed argvs must stay in use while ``parse_args`` is traced."""

import argparse
import importlib
import importlib.util
import os
import subprocess
import sys

from sympacket import cli, membership, params
from sympacket.weights import module_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lib(name):
    return importlib.import_module(f"sympacket.{name}")


def test_traced_names_resolve_in_the_library():
    tracing = _tracing()
    bound = [(mod, name) for mod, names in tracing.SPAN_LAYERS.values() for name in names]
    bound += [(mod, name) for _, mod, name in tracing.COUNTED]
    assert bound
    for mod, name in bound:
        assert callable(getattr(_lib(mod), name, None)), f"{mod}.{name}"
    for mod in tracing.MODULE_LAYERS:
        module = _lib(mod)
        assert module.__all__, mod
        for name in module.__all__:
            assert hasattr(module, name), f"{mod}.{name}"
    assert callable(cli._Parser.parse_args)


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout


def test_each_topped_route_calls_the_traced_cover_search_once(monkeypatch):
    # the tracer times params.covers by wrapping params._all_segment_covers;
    # an enumerator that reached the search some other way would leave that
    # layer reading 0, as it read before
    assert _tracing().SPAN_LAYERS["params.covers"] == ("params", ["_all_segment_covers"])
    calls = []
    search = params._all_segment_covers

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(params, "_all_segment_covers", counted)
    for family, n, value in (("pi", 9, 5), ("sigma", 9, 2), ("pi", 9, 8)):
        calls.clear()
        if family == "pi":
            packets = membership.enumerate_packets_pi(n, value)
        else:
            packets = membership.enumerate_packets_sigma(n, value)
        assert packets
        routes = membership._routes(module_of(family, n, value))
        topped = [route for route in routes if route.char is not None]
        assert len(calls) == len(topped), (family, n, value, calls)


def test_the_parse_table_stays_in_use_under_the_tracer(capsys, monkeypatch):
    # the tracer times cli.parse by setting _Parser.parse_args, which calls
    # the top-level parser's parse_known_args, where the table is read
    modules = ("params", "membership", "characters", "weights", "cli",
               "quadforms", "cohomology", "langlands", "tableaux")
    tracer = _tracing().Tracer({name: _lib(name) for name in modules})

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    tracer.install()
    try:
        assert cli.main(["tableau", "3", "1"]) == 0
    finally:
        tracer.uninstall()
    assert "cli.parse_args" in [span[0] for span in tracer.spans]
    assert "parse_args" not in vars(cli._Parser)
    assert cli.main(["--format", "text", "tableau", "3", "1"]) == 0
    capsys.readouterr()
