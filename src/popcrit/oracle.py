"""Exhaustive reference oracle for small instances.

One iterative depth-first walk visits every matching of an instance
within an edge-count budget and scores each as it goes, with its A-side
and B-side deficiency kept as running shortfalls.  It carries each
matching as one int edge mask: bit i stands for the i-th edge of
``sorted(inst.edges)``, and ``_select`` decodes a mask.  The ceiling of
64 edges is the width of a mask.  From that walk come the enumeration,
in one pass the per-side and total minimum deficiency with the masks of
the matchings attaining the total, and the subset of those matchings
popular within it.  The popularity tournament runs on the masks as well:
a vertex's partners in a matching are the far ends of the edges its own
mask shares with the matching's, only a vertex whose partners differ is
asked, and its vote is cached by the masks of the partners gained and
lost, the two differences its vote reads.  A ``Matching`` is built only
for each popular matching returned.  The oracle is deliberately
independent of the solver so the two can be played against each other in
tests; it shares only the per-vertex vote kernel with
``matchings.max_delta`` and the per-vertex ``matchings.shortfall``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterator

from .matchings import Matching, shortfall, vertex_gain
from .model import Instance, Side

DEFAULT_EDGE_BUDGET = 14
# A search over 2**64 subsets never finishes, so no budget takes the
# oracle past this many edges, the width of an edge mask.
EDGE_CEILING = 64
# Turns the binary digits "0" and "1" into the bytes 0 and 1.
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _scored_matchings(
    inst: Instance, max_edges: int
) -> Iterator[tuple[int, int, int]]:
    """Every subset of the edge set respecting all upper quotas, as its
    edge mask with its A-side and B-side deficiency.  Bit i of a mask
    stands for the i-th edge of ``sorted(inst.edges)``; ``_select`` decodes
    it.

    One iterative depth-first walk over the sorted edges, skipping an edge
    before taking it, so the empty matching comes first.  After each
    subset the walk steps back from the last edge: it undoes every taken
    edge it meets and takes the first untaken one that fits both upper
    quotas; it ends when it steps back past the first edge.  A take sets
    the edge's bit and an undo clears it.  Each side's deficiency is a
    running count, moved on every take and undo by how much the vertex's
    ``shortfall`` changes.  Raises ValueError, on the first step, when the
    instance has more than max_edges edges or more than EDGE_CEILING, the
    width of a mask, or lists an edge at its A end only.
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
    # The edges from last to first, each as its bit and its two ends.
    steps = [(1 << i, pos[a], pos[b]) for i, (a, b) in enumerate(edges)][::-1]
    # drop[k][h]: how much vertex k's shortfall falls when it goes from
    # holding h partners to h + 1.  A vertex never holds more partners
    # than its degree, however large its upper quota.
    drop = [
        [shortfall(lo, h) - shortfall(lo, h + 1) for h in range(min(up, deg))]
        for lo, up, deg in zip(lower, upper, map(inst.degree, vertices))
    ]
    held, mask = [0] * len(vertices), 0
    # With no partner, each vertex falls short by its whole lower quota.
    da, db = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    while True:
        yield mask, da, db
        for bit, a, b in steps:
            if mask & bit:
                mask ^= bit
                held[a] -= 1
                held[b] -= 1
                da += drop[a][held[a]]
                db += drop[b][held[b]]
            elif held[a] < upper[a] and held[b] < upper[b]:
                mask |= bit
                da -= drop[a][held[a]]
                db -= drop[b][held[b]]
                held[a] += 1
                held[b] += 1
                break
        else:
            return


def _select(items: list, mask: int) -> tuple:
    """The items a mask sets, in their order: bit i stands for items[i].
    The mask's binary digits, lowest first and read as the bytes 0 and 1,
    select them."""
    return tuple(compress(items, bin(mask)[:1:-1].encode().translate(_DIGITS)))


def _minima(
    inst: Instance, max_edges: int
) -> tuple[int, int, int, int, list[int]]:
    """One pass over the search: the matching count, the A-side and B-side
    minimum deficiency, the minimum total and, in search order, the edge
    masks of every matching attaining that total."""
    scored = _scored_matchings(inst, max_edges)
    # The search yields the empty matching first, so there is always one.
    mask, min_a, min_b = next(scored)
    best, critical, count = min_a + min_b, [mask], 1
    for mask, da, db in scored:
        count += 1
        if da < min_a:
            min_a = da
        if db < min_b:
            min_b = db
        if da + db < best:
            best, critical = da + db, [mask]
        elif da + db == best:
            critical.append(mask)
    return count, min_a, min_b, best, critical


def enumerate_matchings(
    inst: Instance, max_edges: int = DEFAULT_EDGE_BUDGET
) -> Iterator[Matching]:
    """Yield every subset of the edge set respecting all upper quotas.

    The stream follows the oracle's search: edges in sorted order,
    depth-first, the empty matching first, so its order is deterministic.
    Raises ValueError when the instance has more than max_edges edges.
    """
    edges = sorted(inst.edges)
    for mask, _, _ in _scored_matchings(inst, max_edges):
        yield Matching(_select(edges, mask))


def critical_set(
    inst: Instance, max_edges: int = DEFAULT_EDGE_BUDGET
) -> tuple[int, list[Matching]]:
    """The minimum total deficiency and every matching attaining it."""
    _, _, _, best, critical = _minima(inst, max_edges)
    edges = sorted(inst.edges)
    return best, [Matching(_select(edges, mask)) for mask in critical]


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
    count, min_def_a, min_def_b, min_total, critical = _minima(inst, max_edges)
    edges = sorted(inst.edges)
    # Each vertex with the mask of its edges, its partner along each of them
    # with the edge's bit (e[e[0] == v] is the end of e other than v), and
    # its vote totals for the partners one matching gains over another,
    # cached by the masks of the partners gained and lost.
    incident = []
    for v in inst.all_vertices():
        ends = [(1 << i, e[e[0] == v]) for i, e in enumerate(edges) if v in e]
        incident.append((v, sum(bit for bit, _ in ends), ends, {}))

    def beats(challenger: int, incumbent: int) -> bool:
        # Only a vertex whose partners differ in the two can cast a vote.
        differ, total = challenger ^ incumbent, 0
        for v, own, ends, votes in incident:
            moved = own & differ
            if moved:
                # vertex_gain reads only the two partner-set differences.
                key = (challenger & moved, incumbent & moved)
                got = votes.get(key)
                if got is None:
                    sets = (frozenset(u for bit, u in ends if bit & m) for m in key)
                    got = votes[key] = vertex_gain(inst, v, *sets)
                total += got
        return total > 0

    # Rivals that already knocked out a candidate are tried first; they
    # knock out most other candidates quickly too.  An insertion-ordered
    # set keeps them in the order they were found.  A knock-out ends the
    # loop over rivals before the set grows, so it is safe to iterate.
    knockers: dict[int, None] = {}
    popular: list[Matching] = []
    for mask in critical:
        rest = (c for c in critical if c not in knockers)
        for rival in chain(knockers, rest):
            if rival != mask and beats(rival, mask):
                knockers[rival] = None
                break
        else:
            popular.append(Matching(_select(edges, mask)))

    return OracleResult(
        matching_count=count,
        min_deficiency=min_total,
        min_def_a=min_def_a,
        min_def_b=min_def_b,
        critical_count=len(critical),
        popular_critical=tuple(popular),
        max_popular_size=max((m.size for m in popular), default=0),
    )
