"""Minimum total deficiency by min-cost flow, kept as a reference for tests.

It checks the solver's deficiency at sizes the oracle cannot enumerate.
The network has these arcs:

- S → a: lower(a) units at cost −1, and upper(a) − lower(a) units at cost 0;
- a → b: one unit at cost 0 for each edge;
- b → T: the same pair of arcs as S → a.

An integral flow is a matching within the upper quotas, and its cost is
minus the units of lower quota it fills, so the minimum deficiency is
s + t + (minimum cost), with s and t the summed lower quotas of sides A
and B.  The flow grows along shortest paths while a path costs less than
0.  Each round labels the residual network with its distances from S by
Bellman–Ford (SPFA; a residual network of a min-cost flow has no negative
cycle), then pushes a blocking flow, as Dinic does, over the arcs that
lie on shortest paths and lead one BFS layer on.  Every path it pushes
along costs the distance to T, and the labels stay exact potentials.
"""

from __future__ import annotations

from collections import deque

from popcrit import Side

S, T = 0, 1


def min_deficiency(inst) -> int:
    """The least total deficiency of any matching of inst."""
    node = {v: k for k, v in enumerate(inst.all_vertices(), start=2)}
    out: list[list[int]] = [[] for _ in range(len(node) + 2)]
    head: list[int] = []
    cap: list[int] = []
    cost: list[int] = []

    def arc(u: int, v: int, units: int, c: int) -> None:
        # Arc i runs u → v; arc i ^ 1 is its residual reverse.
        for x, y, k, d in ((u, v, units, c), (v, u, 0, -c)):
            out[x].append(len(head))
            head.append(y)
            cap.append(k)
            cost.append(d)

    for v, k in node.items():
        ends = (S, k) if v.side is Side.A else (k, T)
        lower, upper = inst.quotas(v)
        arc(*ends, lower, -1)
        arc(*ends, upper - lower, 0)
    for a, b in inst.edges:
        arc(node[a], node[b], 1, 0)

    while True:
        dist = _distances(out, head, cap, cost)
        if dist[T] is None or dist[T] >= 0:
            break
        # Arcs on shortest paths that lead one BFS layer on.
        layer = {S: 0}
        queue = deque([S])
        while queue:
            u = queue.popleft()
            for i in out[u]:
                v = head[i]
                if cap[i] and v not in layer and dist[u] + cost[i] == dist[v]:
                    layer[v] = layer[u] + 1
                    queue.append(v)

        def admissible(i: int, u: int) -> bool:
            v = head[i]
            return bool(cap[i]) and layer.get(v) == layer[u] + 1 and (
                dist[u] + cost[i] == dist[v]
            )

        _push_blocking_flow(out, head, cap, admissible)
    flow_cost = sum(cost[i] * cap[i ^ 1] for i in range(0, len(head), 2))
    return inst.sum_lower(Side.A) + inst.sum_lower(Side.B) + flow_cost


def _distances(out, head, cap, cost) -> list:
    """Each node's residual distance from S, None where S cannot reach."""
    dist: list = [None] * len(out)
    dist[S] = 0
    queue, queued = deque([S]), {S}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        for i in out[u]:
            v = head[i]
            if cap[i] and (dist[v] is None or dist[u] + cost[i] < dist[v]):
                dist[v] = dist[u] + cost[i]
                if v not in queued:
                    queued.add(v)
                    queue.append(v)
    return dist


def _push_blocking_flow(out, head, cap, admissible) -> None:
    """Push flow S → T along admissible arcs until none is left, by a
    depth-first walk that keeps each node's next arc to try."""
    nxt = [0] * len(out)
    path: list[int] = []
    u = S
    while True:
        if u == T:
            units = min(cap[i] for i in path)
            for i in path:
                cap[i] -= units
                cap[i ^ 1] += units
            path.clear()
            u = S
            continue
        arcs = out[u]
        while nxt[u] < len(arcs) and not admissible(arcs[nxt[u]], u):
            nxt[u] += 1
        if nxt[u] < len(arcs):
            path.append(arcs[nxt[u]])
            u = head[arcs[nxt[u]]]
        elif u == S:
            return
        else:
            # A dead end: retreat, and skip the arc that led here.
            u = head[path.pop() ^ 1]
            nxt[u] += 1
