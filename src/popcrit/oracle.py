"""Exhaustive reference oracle for small instances.

One depth-first search walks every matching of an instance within an
edge-count budget and scores each as it goes, with its A-side and B-side
deficiency.  From that search come the enumeration, the minimum total
deficiency with the matchings attaining it, and the subset of those
matchings popular within it.  The oracle is deliberately independent of
the solver so the two can be played against each other in tests; it
shares only the per-vertex vote kernel with ``matchings.max_delta`` and the
per-vertex ``matchings.shortfall``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .matchings import Edge, Matching, max_delta, shortfall, vertex_gain
from .model import Instance, Side

DEFAULT_EDGE_BUDGET = 14
# The search recurses once per edge, and a search over 2**64 subsets never
# finishes, so no budget takes the oracle past this many edges.
EDGE_CEILING = 64


def _scored_matchings(
    inst: Instance, max_edges: int
) -> Iterator[tuple[tuple[Edge, ...], int, int]]:
    """Every subset of the edge set respecting all upper quotas, as its
    pairs with its A-side and B-side deficiency.

    Edges are considered in sorted order and subsets are emitted
    depth-first with the empty matching first.  Each vertex's held count
    is kept in a list indexed by its position; vertices whose lower quota
    is 0 never fall short, so they are not scored.  Raises ValueError, on
    the first step, when the instance has more than max_edges edges or
    more than EDGE_CEILING.
    """
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


def enumerate_matchings(
    inst: Instance, max_edges: int = DEFAULT_EDGE_BUDGET
) -> Iterator[Matching]:
    """Yield every subset of the edge set respecting all upper quotas.

    The stream follows the oracle's search: edges in sorted order,
    depth-first, the empty matching first, so its order is deterministic.
    Raises ValueError when the instance has more than max_edges edges.
    """
    for pairs, _, _ in _scored_matchings(inst, max_edges):
        yield Matching(frozenset(pairs))


def critical_set(
    inst: Instance, max_edges: int = DEFAULT_EDGE_BUDGET
) -> tuple[int, list[Matching]]:
    """The minimum total deficiency and every matching attaining it."""
    # The search yields the empty matching first, so scored is never empty.
    scored = [(da + db, pairs) for pairs, da, db in _scored_matchings(inst, max_edges)]
    best = min(d for d, _ in scored)
    return best, [Matching(frozenset(p)) for d, p in scored if d == best]


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
    scored = list(_scored_matchings(inst, max_edges))
    min_def_a = min(da for _, da, _ in scored)
    min_def_b = min(db for _, _, db in scored)
    min_total = min(da + db for _, da, db in scored)
    critical = [
        Matching(frozenset(p)) for p, da, db in scored if da + db == min_total
    ]

    vertices = list(inst.all_vertices())
    partner_sets = [[m.partners(v) for v in vertices] for m in critical]
    gain_cache: dict[tuple, int] = {}

    def beats(challenger: int, incumbent: int) -> bool:
        total = 0
        for key in zip(vertices, partner_sets[challenger], partner_sets[incumbent]):
            got = gain_cache.get(key)
            if got is None:
                got = gain_cache[key] = vertex_gain(inst, *key)
            total += got
        return total > 0

    # Rivals that already knocked out a candidate are tried first; they
    # knock out most other candidates quickly too.  An insertion-ordered
    # set keeps them in the order they were found.
    knockers: dict[int, None] = {}
    popular: list[Matching] = []
    for i, m in enumerate(critical):
        rest = (j for j in range(len(critical)) if j not in knockers)
        rivals = (j for j in chain(knockers, rest) if j != i)
        knocker = next((j for j in rivals if beats(j, i)), None)
        if knocker is None:
            popular.append(m)
        else:
            knockers[knocker] = None

    return OracleResult(
        matching_count=len(scored),
        min_deficiency=min_total,
        min_def_a=min_def_a,
        min_def_b=min_def_b,
        critical_count=len(critical),
        popular_critical=tuple(popular),
        max_popular_size=max((m.size for m in popular), default=0),
    )
