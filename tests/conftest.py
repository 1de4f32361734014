from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from popcrit import Correspondence, Instance, parse_instance

DATA = Path(__file__).parent / "data"


def run_python(code: str, *flags: str) -> str:
    """Run code in a fresh interpreter that imports popcrit from this
    checkout, and return its stripped standard output."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def load_instance(name: str) -> Instance:
    return parse_instance((DATA / name).read_text())


def all_correspondences(inst, first, second):
    """Every correspondence usable in delta(first, second, corr)."""
    per_vertex = []
    for v in inst.all_vertices():
        xs = sorted(first.partners(v) - second.partners(v))
        ys = sorted(second.partners(v) - first.partners(v))
        size = max(len(xs), len(ys))
        if size == 0:
            continue
        rows = list(xs) + [None] * (size - len(xs))
        cols = list(ys) + [None] * (size - len(ys))
        options = list(
            dict.fromkeys(
                tuple(zip(rows, perm)) for perm in itertools.permutations(cols)
            )
        )
        per_vertex.append((v, options))
    vertices = [v for v, _ in per_vertex]
    for combo in itertools.product(*(opts for _, opts in per_vertex)):
        yield Correspondence(dict(zip(vertices, combo)))


@pytest.fixture(scope="session")
def short_supply() -> Instance:
    return load_instance("short_supply.inst")


@pytest.fixture(scope="session")
def capacity_switch() -> Instance:
    return load_instance("capacity_switch.inst")


@pytest.fixture(scope="session")
def one_post() -> Instance:
    return load_instance("one_post.inst")
