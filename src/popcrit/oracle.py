"""Exhaustive reference oracle for small instances.

One iterative depth-first walk visits every matching of an instance
within an edge-count budget and scores each as it goes, with its A-side
and B-side deficiency kept as running shortfalls.  From that walk come
the enumeration, in one pass the per-side and total minimum deficiency
with the matchings attaining the total, and the subset of those matchings
popular within it.  The oracle is deliberately independent of the
solver so the two can be played against each other in tests; it shares
only the per-vertex vote kernel with ``matchings.max_delta`` and the
per-vertex ``matchings.shortfall``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .matchings import Matching, shortfall, vertex_gain
from .model import Edge, Instance, Side

DEFAULT_EDGE_BUDGET = 14
# A search over 2**64 subsets never finishes, so no budget takes the
# oracle past this many edges.
EDGE_CEILING = 64


def _scored_matchings(
    inst: Instance, max_edges: int
) -> Iterator[tuple[tuple[Edge, ...], int, int]]:
    """Every subset of the edge set respecting all upper quotas, as its
    pairs with its A-side and B-side deficiency.

    One iterative depth-first walk over the sorted edges, skipping an edge
    before taking it, so the empty matching comes first.  After each
    subset the walk steps back from the last edge: it undoes every taken
    edge it meets and takes the first untaken one that fits both upper
    quotas; it ends when it steps back past the first edge.  Each side's
    deficiency is a running count, moved on every take and undo by how
    much the vertex's ``shortfall`` changes.  Raises ValueError, on the
    first step, when the instance has more than max_edges edges or more
    than EDGE_CEILING, or lists an edge at its A end only.
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
    # An edge its B end does not list would outgrow that end's degree.
    for a, b in edges:
        inst.rank(b, a)
    vertices = list(inst.all_vertices())
    pos = {v: k for k, v in enumerate(vertices)}
    lower = [inst.lower(v) for v in vertices]
    upper = [inst.upper(v) for v in vertices]
    ends = [(pos[a], pos[b]) for a, b in edges]
    # drop[k][h]: how much vertex k's shortfall falls when it goes from
    # holding h partners to h + 1.  A vertex never holds more partners
    # than its degree, however large its upper quota.
    drop = [
        [shortfall(lo, h) - shortfall(lo, h + 1) for h in range(min(up, deg))]
        for lo, up, deg in zip(lower, upper, map(inst.degree, vertices))
    ]
    held = [0] * len(vertices)
    taken = [False] * len(edges)
    chosen: list[Edge] = []
    # With no partner, each vertex falls short by its whole lower quota.
    da, db = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    while True:
        yield tuple(chosen), da, db
        for i in range(len(edges) - 1, -1, -1):
            a, b = ends[i]
            if taken[i]:
                taken[i] = False
                chosen.pop()
                held[a] -= 1
                held[b] -= 1
                da += drop[a][held[a]]
                db += drop[b][held[b]]
            elif held[a] < upper[a] and held[b] < upper[b]:
                taken[i] = True
                chosen.append(edges[i])
                da -= drop[a][held[a]]
                db -= drop[b][held[b]]
                held[a] += 1
                held[b] += 1
                break
        else:
            return


def _minima(
    inst: Instance, max_edges: int
) -> tuple[int, int, int, int, list[tuple[Edge, ...]]]:
    """One pass over the search: the matching count, the A-side and B-side
    minimum deficiency, the minimum total and, in search order, the pairs
    of every matching attaining that total."""
    scored = _scored_matchings(inst, max_edges)
    # The search yields the empty matching first, so there is always one.
    pairs, min_a, min_b = next(scored)
    best, critical, count = min_a + min_b, [pairs], 1
    for pairs, da, db in scored:
        count += 1
        if da < min_a:
            min_a = da
        if db < min_b:
            min_b = db
        if da + db < best:
            best, critical = da + db, [pairs]
        elif da + db == best:
            critical.append(pairs)
    return count, min_a, min_b, best, critical


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
    _, _, _, best, critical = _minima(inst, max_edges)
    return best, [Matching(frozenset(p)) for p in critical]


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
    count, min_def_a, min_def_b, min_total, pairs = _minima(inst, max_edges)
    critical = [Matching(frozenset(p)) for p in pairs]

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
        matching_count=count,
        min_deficiency=min_total,
        min_def_a=min_def_a,
        min_def_b=min_def_b,
        critical_count=len(critical),
        popular_critical=tuple(popular),
        max_popular_size=max((m.size for m in popular), default=0),
    )
