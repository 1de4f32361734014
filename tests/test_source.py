"""Checks on the package's source text."""

from __future__ import annotations

import ast
import sys
import textwrap
import types
from pathlib import Path

import pytest

import popcrit

from conftest import run_python

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "popcrit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_has_no_assert_statements(path):
    # `python -O` strips assert statements, so an invariant kept in one would
    # silently stop being checked; the package raises InvariantError instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_all_lists_exactly_the_public_names_of_the_package():
    # The package binds a name on its first use, so each is resolved first:
    # an entry no submodule defines raises here and leaves no stale entry.
    resolved = {name: getattr(popcrit, name) for name in popcrit.__all__}
    # Each resolved name is the object its home submodule defines.
    for name, value in resolved.items():
        home = sys.modules[f"popcrit.{popcrit._HOMES[name]}"]
        assert getattr(home, name) is value
        assert getattr(value, "__module__", home.__name__) == home.__name__
    # Each public name the package binds, bar its submodules, is exported
    # once and in sorted order.
    public = {
        name
        for name, value in vars(popcrit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert popcrit.__all__ == sorted(set(popcrit.__all__))
    assert set(popcrit.__all__) == public
    # dir() lists the public names, loaded or not.
    assert dir(popcrit) == popcrit.__all__


def test_import_loads_each_submodule_on_first_use():
    # -S keeps site's own imports out of the interpreter.
    code = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import popcrit
        print(sorted(set(sys.modules) - before))
        popcrit.solve
        print(sorted(m for m in sys.modules if m.startswith("popcrit.")))
        names = {}
        exec("from popcrit import *", names)
        print(sorted(set(names) - {"__builtins__"}) == popcrit.__all__, len(names) - 1)
        try:
            popcrit.nope
        except AttributeError as error:
            print(error)
    """)
    assert run_python(code, "-S").splitlines() == [
        "['popcrit']",
        "['popcrit.matchings', 'popcrit.model', 'popcrit.solver']",
        "True 49",
        "module 'popcrit' has no attribute 'nope'",
    ]


def _imported_roots(path):
    """The top-level names of the absolute imports in one source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


# The standard-library modules the package's submodules import.  `import
# popcrit` loads none of them: each is paid on the first use of a name whose
# submodule imports it, and by `import popcrit.cli`, which the command line
# and the benchmark's worker run.  So a module joins this set only once its
# import cost is known: either it is measured, or another module of the set
# loads it anyway, as LOADED_BY records.
STANDARD_IMPORTS = {
    "__future__", "argparse", "bisect", "collections", "csv", "dataclasses",
    "enum", "functools", "io", "itertools", "math", "pathlib", "random",
    "struct", "sys", "types", "typing", "weakref",
}
LOADED_BY = {"bisect": "random"}


def test_package_imports_only_the_pinned_standard_modules():
    assert set().union(*map(_imported_roots, SOURCES)) == STANDARD_IMPORTS
    # -S keeps site's own imports out of the interpreter.
    for module, carrier in LOADED_BY.items():
        code = f"import sys, {carrier}; print({module!r} in sys.modules)"
        assert run_python(code, "-S") == "True"
