"""A maximum-weight matching on the cloned graph, kept as a reference for
tests.

``max_covering_weight`` reads only ``g.vertices`` and ``g.edges``.  It
finds the heaviest matching that covers every clone and every dummy and
leaves last-resorts optional, by the Hungarian method on a square
assignment problem: rows are the left vertices and a copy of each right
vertex, columns the right vertices and a copy of each left vertex.  A left
vertex takes a right vertex along an edge, or its own copy when it may
stay unmatched; a copied right vertex takes its original when that may stay
unmatched, or any left copy at weight 0.  Runs in O(V³) pure Python.
"""

from __future__ import annotations

from popcrit import CloneKind


def max_assignment(weight: list[list[int]]) -> list[int]:
    """The column of each row in a maximum-weight perfect assignment of the
    square matrix ``weight`` (the shortest augmenting path form of the
    Hungarian method, over potentials u and v)."""
    n = len(weight)
    inf = float("inf")
    u, v = [0] * (n + 1), [0] * (n + 1)
    row_of, way = [0] * (n + 1), [0] * (n + 1)  # column 0 is a sentinel
    for i in range(1, n + 1):
        row_of[0], j0 = i, 0
        slack, used = [inf] * (n + 1), [False] * (n + 1)
        while row_of[j0]:
            used[j0] = True
            i0, step, j1 = row_of[j0], inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = -weight[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < step:
                        step, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += step
                    v[j] -= step
                else:
                    slack[j] -= step
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    col_of = [0] * n
    for j in range(1, n + 1):
        col_of[row_of[j] - 1] = j - 1
    return col_of


def max_covering_weight(g) -> int:
    """The weight of a heaviest matching of g's edges that covers every
    vertex but the last-resorts; raises ValueError when there is none."""
    left = sorted({u for u, _ in g.edges})
    right = sorted({w for _, w in g.edges})
    optional = {u for u in g.vertices if u.kind is CloneKind.LAST_RESORT}
    required = set(g.vertices) - optional
    if not required <= set(left) | set(right):
        raise ValueError("a vertex that must be covered has no edge")
    n = len(left) + len(right)
    # Heavier than any assignment is light: weights lie in [-2, 2].
    forbidden = -4 * n - 1
    weight = [[forbidden] * n for _ in range(n)]
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            weight[i][j] = g.edges.get((x, y), forbidden)
        if x in optional:
            weight[i][len(right) + i] = 0
    for j, y in enumerate(right):
        row = weight[len(left) + j]
        if y in optional:
            row[j] = 0
        row[len(right):] = [0] * len(left)
    col_of = max_assignment(weight)
    total = [weight[i][j] for i, j in enumerate(col_of)]
    if forbidden in total:
        raise ValueError("no matching covers every clone and dummy")
    return sum(total)
