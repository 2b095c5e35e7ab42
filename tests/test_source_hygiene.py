"""Source hygiene of the library, checked with the standard library's ``ast``
since no linter is a dependency.

In every module of ``src/sympacket`` except ``__init__.py``:

* each module-level private function or class is referenced somewhere in
  ``src/`` outside its own definition, so dead helpers do not linger;
* each imported name is used in the module that imports it.

And in every module, ``__init__.py`` included:

* no ``json`` call is given an ``indent``: ``cli._indented_json`` is the
  one writer of indented JSON;
* no call of the builtins ``exec``, ``eval`` or ``compile`` (``re.compile``
  builds a regular expression, not code), and ``@dataclass`` on exactly the
  two records that ``dataclasses.replace`` is used on; the others are
  ``weights._record`` records, which write no source at import;
* the core modules import no side module at module level, so the packet
  commands do not load them;
* the route record of a packet member (the attribute ``_route``) is read
  only in ``membership.py`` and set only in ``params.py``, so the one lookup
  (``membership._decide_route``) stays the only reader of it;
* the character a member keeps for its second token (the slot
  ``_kept_char``) is read and stored only in ``characters.py``: stored only
  by ``_rho_core``, through the slot's setter, and read by the two functions
  that return it.  ``params.py`` declares the slot and sets it only to None,
  when ``__post_init__`` or ``_trusted_params`` builds a parameter;
* the validity mark of a parameter (the slot ``_valid``) is read only by
  ``params._require_valid``, the one trust check, and set only through its
  slot's setter: to False in ``__post_init__``, to True in
  ``_trusted_params``.

And in every module and in ``README.md``, each dotted name
``<module>.<attr>`` or ``<module>.<attr>.<attr>`` of one of the nine package
modules resolves by ``getattr``, so that prose does not name deleted code
(a file name such as ``params.py`` is not such a name).  ``ROADMAP.md``,
``CHANGES.md`` and the tests name deleted code on purpose, and are left out.
"""

import ast
import importlib
import os
import re
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sympacket")


def _trees():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    return trees


TREES = _trees()
CHECKED = [name for name in TREES if name != "__init__.py"]


def _references(node):
    """How often each name is read under ``node``: a bare name, or the
    attribute of an attribute access."""
    found = Counter()
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            found[current.id] += 1
        elif isinstance(current, ast.Attribute):
            found[current.attr] += 1
    return found


ALL_REFERENCES = sum((_references(tree) for tree in TREES.values()), Counter())


@pytest.mark.parametrize("module", CHECKED)
def test_private_definitions_are_referenced(module):
    unreferenced = [
        node.name
        for node in TREES[module].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        # a recursive call inside its own definition does not count
        and ALL_REFERENCES[node.name] == _references(node)[node.name]
    ]
    assert unreferenced == [], f"{module}: never referenced: {unreferenced}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", CHECKED)
def test_imported_names_are_used(module):
    tree = TREES[module]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in read]
    assert unused == [], f"{module}: imported and never used: {unused}"


# the json calls that take ``indent``, by the name they are called through
INDENTING = {"dump", "dumps", "JSONEncoder"}


@pytest.mark.parametrize("module", list(TREES))
def test_indented_json_has_one_writer(module):
    calls = [
        node.lineno
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute)
             else getattr(node.func, "id", None)) in INDENTING
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert calls == [], f"{module}: json called with indent on lines {calls}"


@pytest.mark.parametrize("module", list(TREES))
def test_no_code_is_compiled_at_run_time(module):
    calls = [
        node.lineno
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"exec", "eval", "compile"}
    ]
    assert calls == [], f"{module}: exec, eval or compile called on lines {calls}"


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_only_two_records_are_dataclasses():
    decorated = sorted(
        node.name
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
    )
    assert decorated == ["ArthurParameter", "MembershipVerdict"]


SIDE_MODULES = {"quadforms", "cohomology", "langlands", "tableaux"}
CORE_MODULES = ["weights.py", "params.py", "membership.py", "characters.py", "cli.py"]


def _module_level(body):
    """The statements run on import: the body and its ``if``/``try``
    blocks, not function or class bodies."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level(getattr(node, field, []))


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[-1] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.module in (None, "sympacket"):
            return [alias.name for alias in node.names]
        return [node.module.split(".")[-1]]
    return []


@pytest.mark.parametrize("module", CORE_MODULES)
def test_core_modules_import_no_side_module_at_module_level(module):
    found = [
        (node.lineno, name)
        for node in _module_level(TREES[module].body)
        for name in _imported_modules(node)
        if name in SIDE_MODULES
    ]
    assert found == [], f"{module}: side modules imported at module level: {found}"


def _record_uses(tree, name):
    """(line, "read") for each ``x.<name>`` read; (line, "set") for each
    ``x.<name>`` assigned or deleted, and each string ``"<name>"`` (as
    ``setattr``, ``getattr`` or a ``vars`` lookup would name it); (line,
    "default") for each ``<name>`` assigned in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == name:
            yield node.lineno, "read" if isinstance(node.ctx, ast.Load) else "set"
        elif isinstance(node, ast.Constant) and node.value == name:
            yield node.lineno, "set"
        elif isinstance(node, ast.ClassDef):
            for statement in node.body:
                targets = getattr(statement, "targets", [getattr(statement, "target", None)])
                if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                    yield statement.lineno, "default"


def _functions_using(tree, name):
    """The module-level functions of ``tree`` that use the record ``name``."""
    return {
        (node.name, use)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for _, use in _record_uses(node, name)
    }


def test_route_record_is_read_by_membership_and_set_by_params():
    found = {
        module: sorted(
            (line, "set" if use == "default" else use)
            for line, use in _record_uses(tree, "_route")
        )
        for module, tree in TREES.items()
    }
    strays = {
        module: [
            (line, use)
            for line, use in uses
            if (module, use) not in {("membership.py", "read"), ("params.py", "set")}
        ]
        for module, uses in found.items()
    }
    assert {module: uses for module, uses in strays.items() if uses} == {}
    # both ends are seen: the check reads the code it is meant to
    assert {use for _, use in found["membership.py"]} == {"read"}
    assert {use for _, use in found["params.py"]} == {"set"}


def _calls_naming(tree, part):
    """(function, line, last argument node) of each call, in a function or
    method of ``tree``, of a bare name that contains ``part``, in order."""
    return sorted(
        (node.name, call.args[-1].lineno, call.args[-1])
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and part in call.func.id
    )


def test_kept_character_is_read_and_set_by_characters():
    found = {
        module: sorted(_record_uses(tree, "_kept_char"))
        for module, tree in TREES.items()
    }
    strays = {
        module: [
            (line, use)
            for line, use in uses
            if (module, use) not in {
                ("characters.py", "read"),
                ("characters.py", "set"),
                ("params.py", "default"),
            }
        ]
        for module, uses in found.items()
    }
    assert {module: uses for module, uses in strays.items() if uses} == {}
    # params.py declares the slot; only its two constructors call the
    # slot's setter, with None, as they build a parameter
    assert [use for _, use in found["params.py"]] == ["default"]
    assert [
        (function, ast.literal_eval(value))
        for function, _, value in _calls_naming(TREES["params.py"], "kept_char")
    ] == [("__post_init__", None), ("_trusted_params", None)]
    # characters.py binds the setter once, at module level, and stores a
    # character through it only in _rho_core; two functions return it
    assert [use for _, use in found["characters.py"]].count("set") == 1
    assert [
        function for function, _, _ in _calls_naming(TREES["characters.py"], "kept_char")
    ] == ["_rho_core"]
    assert _functions_using(TREES["characters.py"], "_kept_char") == {
        ("rho_pi_general", "read"),
        ("rho_sigma_general", "read"),
    }


def test_validity_mark_is_read_by_require_valid_and_set_by_constructors():
    found = {module: sorted(_record_uses(tree, "_valid")) for module, tree in TREES.items()}
    assert {module: uses for module, uses in found.items() if module != "params.py" and uses} == {}
    # params.py declares the slot and reads it once, in _require_valid
    assert [use for _, use in found["params.py"]] == ["default", "read"]
    assert _functions_using(TREES["params.py"], "_valid") == {("_require_valid", "read")}
    # only the two constructors call the slot's setter: False, then True
    assert [
        (function, ast.literal_eval(value))
        for function, _, value in _calls_naming(TREES["params.py"], "set_valid")
    ] == [("__post_init__", False), ("_trusted_params", True)]


# the nine package modules, those not named like __init__ or __main__
PACKAGE_MODULES = [name[:-3] for name in TREES if not name.startswith("__")]
DOTTED = re.compile(r"\b(%s)((?:\.[A-Za-z_]\w*){1,2})" % "|".join(PACKAGE_MODULES))


@pytest.mark.parametrize("document", [*TREES, "README.md"])
def test_dotted_names_resolve(document):
    path = os.path.join(ROOT, document) if document == "README.md" else os.path.join(SRC, document)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stale = []
    for match in DOTTED.finditer(text):
        attrs = match.group(2)[1:].split(".")
        if attrs[0] == "py":  # a file name
            continue
        target = importlib.import_module(f"sympacket.{match.group(1)}")
        for attr in attrs:
            if not hasattr(target, attr):
                stale.append(match.group(0))
                break
            target = getattr(target, attr)
    assert stale == [], f"{document}: names that do not resolve: {stale}"
