"""The oracle's search as it was written before it became an iterative
walk: one recursive generator per edge, scoring each subset at the leaf.
Tests compare the oracle's search with it, subset by subset."""

from __future__ import annotations

from typing import Iterator

from popcrit import Instance, Side
from popcrit.matchings import shortfall
from popcrit.model import Edge
from popcrit.oracle import EDGE_CEILING


def reference_scored_matchings(
    inst: Instance, max_edges: int
) -> Iterator[tuple[tuple[Edge, ...], int, int]]:
    """Every subset of the edge set respecting all upper quotas, as its
    pairs with its A-side and B-side deficiency: edges in sorted order,
    skip before take, the empty matching first."""
    edges = sorted(inst.edges)
    if len(edges) > max_edges:
        raise ValueError(
            f"instance has {len(edges)} edges, oracle budget is {max_edges}"
        )
    if len(edges) > EDGE_CEILING:
        raise ValueError(
            f"instance has {len(edges)} edges, and the oracle refuses more "
            f"than {EDGE_CEILING} at any budget"
        )
    vertices = list(inst.all_vertices())
    pos = {v: k for k, v in enumerate(vertices)}
    upper = [inst.upper(v) for v in vertices]
    held = [0] * len(vertices)
    ends = [(pos[a], pos[b]) for a, b in edges]
    lower_a, lower_b = (
        [(pos[v], inst.lower(v)) for v in inst.vertices(side) if inst.lower(v)]
        for side in (Side.A, Side.B)
    )
    chosen: list[Edge] = []

    def rec(i: int) -> Iterator[tuple[tuple[Edge, ...], int, int]]:
        if i == len(edges):
            yield (
                tuple(chosen),
                sum(shortfall(lo, held[k]) for k, lo in lower_a),
                sum(shortfall(lo, held[k]) for k, lo in lower_b),
            )
            return
        yield from rec(i + 1)
        a, b = ends[i]
        if held[a] < upper[a] and held[b] < upper[b]:
            held[a] += 1
            held[b] += 1
            chosen.append(edges[i])
            yield from rec(i + 1)
            held[a] -= 1
            held[b] -= 1
            chosen.pop()

    yield from rec(0)
