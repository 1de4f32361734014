"""The README's command-line example and its Library snippet, run as
written from the root of the repository."""

from __future__ import annotations

import re
from pathlib import Path

from popcrit.cli import main

ROOT = Path(__file__).resolve().parents[1]
# The body of each fenced code block of the README.
BLOCKS = re.findall(r"^```\w*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_solve_example_and_library_snippet_hold(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    example = next(b for b in BLOCKS if b.startswith("$ popcrit solve "))
    command, *expected = example.splitlines()
    assert command == "$ popcrit solve tests/data/short_supply.inst"
    assert len(expected) == 6
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == expected

    snippet = next(b for b in BLOCKS if "from popcrit import" in b)
    namespace: dict = {}
    exec(snippet, namespace)
    assert namespace["report"].ok
