"""Source hygiene of the library, checked with the standard library's ``ast``
since no linter is a dependency.

In every module of ``src/sympacket`` except ``__init__.py``:

* each module-level private function or class is referenced somewhere in
  ``src/`` outside its own definition, so dead helpers do not linger;
* each imported name is used in the module that imports it.

And in every module, ``__init__.py`` included, no ``json`` call is given an
``indent``: ``cli._indented_json`` is the one writer of indented JSON.
"""

import ast
import os
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
