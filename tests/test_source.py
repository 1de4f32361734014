"""Checks on the package's source text."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import popcrit

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "popcrit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_has_no_assert_statements(path):
    # `python -O` strips assert statements, so an invariant kept in one would
    # silently stop being checked; the package raises InvariantError instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_all_lists_exactly_the_public_names_of_the_package():
    # Each public name the package binds, bar its submodules, is exported
    # once and in sorted order, so a removed name leaves no stale entry.
    public = {
        name
        for name, value in vars(popcrit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert popcrit.__all__ == sorted(set(popcrit.__all__))
    assert set(popcrit.__all__) == public
