"""Optimality of the lift by cycle cancelling, kept as a reference for tests.

``has_positive_cycle`` reads only ``g.vertices``, ``g.edges`` and
``g.mstar``.  The lift M* is a heaviest matching among those covering every
clone and dummy exactly when its residual digraph has no positive cycle
(Klein 1967).  Unmatched edges run left to right at +w and lifted pairs
right to left at -w.  Last-resorts, the only vertices that may be left
free, join one extra node Z, so that a cycle through Z is an alternating
path that frees or fills a last-resort: a free one gets an arc from Z on
the left and to Z on the right, a matched one the reverse.  Longest paths
run by SPFA from all-zero labels, and a path of V arcs or more closes a
positive cycle.  O(V·E) time in the worst case, near-linear in practice.
"""

from __future__ import annotations

from collections import deque

from popcrit import CloneKind

Z = None


def residual_arcs(g) -> dict:
    """Each tail's list of (head, weight) arcs in the residual digraph."""
    arcs: dict = {}
    for (x, y), w in g.edges.items():
        tail, head, w = (y, x, -w) if g.mstar.get(x) == y else (x, y, w)
        arcs.setdefault(tail, []).append((head, w))
    left = {x for x, _ in g.edges}
    for u in g.vertices:
        if u.kind is CloneKind.LAST_RESORT:
            free = u not in g.mstar
            tail, head = (Z, u) if (u in left) == free else (u, Z)
            arcs.setdefault(tail, []).append((head, 0))
    return arcs


def has_positive_cycle(g) -> bool:
    """True when some alternating cycle or last-resort path gains weight
    over the lift, that is, when M* is not a heaviest covering matching."""
    arcs = residual_arcs(g)
    nodes = [*g.vertices, Z]
    label = dict.fromkeys(nodes, 0)
    length = dict.fromkeys(nodes, 0)  # arcs on the path that set label
    queue, queued = deque(nodes), set(nodes)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        for w, c in arcs.get(u, ()):
            if label[u] + c > label[w]:
                label[w], length[w] = label[u] + c, length[u] + 1
                if length[w] >= len(nodes):
                    return True
                if w not in queued:
                    queue.append(w)
                    queued.add(w)
    return False
