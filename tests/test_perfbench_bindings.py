"""The benchmark's tracer wraps library functions by name
(``perfbench/tracing.py``).  A renamed or deleted function would make its
traced run fail, or leave a layer silently unmeasured; so every name it
binds must resolve in the library.  And the benchmark's correctness checks
must still accept the library's outputs and reject corrupted ones
(``perfbench/selftest.py``).  The packet enumerators build each route's
covers directly (``membership._route_covers``) and call no cover search, so
the layer the tracer times on ``params._all_segment_covers`` reads 0 on
them by design.  The command line's table of well-formed argvs must stay in
use while ``parse_args`` is traced."""

import argparse
import importlib
import importlib.util
import os
import subprocess
import sys

from sympacket import cli, membership, params
from sympacket.weights import InfinitesimalCharacter, module_of

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


def test_the_packet_enumerators_call_no_cover_search(capsys, monkeypatch):
    # the tracer times params.covers by wrapping params._all_segment_covers;
    # the walk under it (_walk, _first_steps) serves enumerate_params alone:
    # no packet enumerator, nor the command line's enumerate-*, reaches it
    assert _tracing().SPAN_LAYERS["params.covers"] == ("params", ["_all_segment_covers"])
    calls = []

    def counted(name):
        search = getattr(params, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return search(*args, **kwargs)

        return wrapper

    for name in ("_all_segment_covers", "_walk", "_first_steps"):
        monkeypatch.setattr(params, name, counted(name))
    modules = (("pi", 9, 0), ("pi", 9, 5), ("sigma", 9, 2), ("pi", 9, 8), ("pi", 9, 9))
    for family, n, value in modules:
        routes = membership._routes(module_of(family, n, value))
        if family == "pi":
            packets = membership.enumerate_packets_pi(n, value)
        else:
            packets = membership.enumerate_packets_sigma(n, value)
        assert {psi._route for psi, _ in packets} == set(routes)
        assert cli.main([f"enumerate-{family}", str(n), str(value)]) == 0
        capsys.readouterr()
        assert calls == [], (family, n, value)
    # the counters see a search
    params.enumerate_params(InfinitesimalCharacter(module_of("pi", 3, 1).inf_char()), 3)
    assert set(calls) == {"_all_segment_covers", "_walk", "_first_steps"}


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
