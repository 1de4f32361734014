"""Exhaustive reference oracle for small instances.

Enumerates every matching of an instance within an edge-count budget,
computes the minimum total deficiency and the set of matchings attaining
it, and filters that set down to the matchings popular within it.  The
oracle is deliberately independent of the solver so the two can be played
against each other in tests; it shares only the per-vertex vote kernel
with ``matchings.max_delta`` and the per-vertex ``matchings.shortfall``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .matchings import Matching, max_delta, shortfall, vertex_gain
from .model import Instance, Side, VertexId

DEFAULT_EDGE_BUDGET = 14


def enumerate_matchings(
    inst: Instance, max_edges: int = DEFAULT_EDGE_BUDGET
) -> Iterator[Matching]:
    """Yield every subset of the edge set respecting all upper quotas.

    Edges are considered in sorted order and subsets are emitted
    depth-first with the empty matching first, so the stream order is
    deterministic.  Raises ValueError when the instance has more than
    max_edges edges.
    """
    edges = sorted(inst.edges)
    if len(edges) > max_edges:
        raise ValueError(
            f"instance has {len(edges)} edges, oracle budget is {max_edges}"
        )
    residual = {v: inst.upper(v) for v in inst.all_vertices()}
    chosen: list[tuple[VertexId, VertexId]] = []

    def rec(i: int) -> Iterator[frozenset]:
        if i == len(edges):
            yield frozenset(chosen)
            return
        yield from rec(i + 1)
        a, b = edges[i]
        if residual[a] > 0 and residual[b] > 0:
            residual[a] -= 1
            residual[b] -= 1
            chosen.append(edges[i])
            yield from rec(i + 1)
            residual[a] += 1
            residual[b] += 1
            chosen.pop()

    for pairs in rec(0):
        yield Matching(pairs)


def _with_deficiencies(
    inst: Instance, max_edges: int
) -> Iterator[tuple[Matching, tuple[int, int]]]:
    """Every matching with its A-side and B-side deficiencies.

    Vertices whose lower quota is 0 never fall short, so they are skipped.
    """
    sides = [
        [v for v in inst.vertices(side) if inst.lower(v)]
        for side in (Side.A, Side.B)
    ]
    for m in enumerate_matchings(inst, max_edges):
        da, db = (sum(shortfall(inst, m, v) for v in vs) for vs in sides)
        yield m, (da, db)


def critical_set(
    inst: Instance, max_edges: int = DEFAULT_EDGE_BUDGET
) -> tuple[int, list[Matching]]:
    """The minimum total deficiency and every matching attaining it."""
    # The enumeration yields the empty matching first, so scored is never
    # empty.
    scored = [(da + db, m) for m, (da, db) in _with_deficiencies(inst, max_edges)]
    best = min(d for d, _ in scored)
    return best, [m for d, m in scored if d == best]


def is_popular_among(
    inst: Instance, m: Matching, rivals: Iterable[Matching]
) -> bool:
    """True when no rival gets a positive best-case vote total against m."""
    return all(max_delta(inst, m, n) <= 0 for n in rivals)


@dataclass(frozen=True)
class OracleResult:
    matching_count: int
    min_deficiency: int
    min_def_a: int
    min_def_b: int
    critical_count: int
    popular_critical: tuple[Matching, ...]
    max_popular_size: int


def oracle_solve(
    inst: Instance, max_edges: int = DEFAULT_EDGE_BUDGET
) -> OracleResult:
    """Full exhaustive analysis of a small instance.

    Reports the per-side deficiency minima over all matchings (every
    minimum-deficiency matching attains both minima simultaneously, which
    tests assert), the critical matchings and, among the critical ones,
    those popular against every other critical matching together with the
    largest size such a matching reaches.
    """
    scored = list(_with_deficiencies(inst, max_edges))
    defs = [d for _, d in scored]
    min_def_a = min(da for da, _ in defs)
    min_def_b = min(db for _, db in defs)
    min_total = min(da + db for da, db in defs)
    critical = [(m, d) for m, d in scored if d[0] + d[1] == min_total]

    vertices = list(inst.all_vertices())
    partner_sets = [
        {v: m.partners(v) for v in vertices} for m, _ in critical
    ]
    gain_cache: dict[tuple, int] = {}

    def best_gain(v: VertexId, new_i: int, old_i: int) -> int:
        new_side = partner_sets[new_i][v]
        old_side = partner_sets[old_i][v]
        key = (v, new_side, old_side)
        got = gain_cache.get(key)
        if got is None:
            got = vertex_gain(inst, v, new_side, old_side)
            gain_cache[key] = got
        return got

    def beats(challenger: int, incumbent: int) -> bool:
        return (
            sum(best_gain(v, challenger, incumbent) for v in vertices) > 0
        )

    # Rivals that already knocked out a candidate are tried first; they
    # knock out most other candidates quickly too.
    knockers: list[int] = []
    knocker_set: set[int] = set()
    popular: list[Matching] = []
    for i in range(len(critical)):
        beaten = False
        for j in knockers:
            if j != i and beats(j, i):
                beaten = True
                break
        if not beaten:
            for j in range(len(critical)):
                if j == i or j in knocker_set:
                    continue
                if beats(j, i):
                    beaten = True
                    knockers.append(j)
                    knocker_set.add(j)
                    break
        if not beaten:
            popular.append(critical[i][0])

    return OracleResult(
        matching_count=len(scored),
        min_deficiency=min_total,
        min_def_a=min_def_a,
        min_def_b=min_def_b,
        critical_count=len(critical),
        popular_critical=tuple(popular),
        max_popular_size=max((m.size for m in popular), default=0),
    )
