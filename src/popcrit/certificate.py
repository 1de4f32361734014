"""Popularity certificate built on a cloned one-to-one graph.

The solver's output matching, together with the level at which each edge
was formed, induces a cloned graph: every vertex v is split into upper
quota many clones, each vertex additionally owns upper-minus-lower many
last-resorts, and one dummy per unit of deficiency is shared per side.
The matching lifts to a one-to-one matching over the clones that also
covers every dummy.  Edge weights on the cloned graph encode the votes a
pair of vertices would cast for using that edge instead of keeping their
current partners, so any rival matching mapped onto the clones has total
weight equal to its vote advantage.  The weights depend only on the lift,
so ``build_cloned_graph`` stores each edge with its weight.

Popularity then reduces to a linear-programming fact: the closed-form
dual assignment below is feasible for the maximum-weight perfect-matching
LP of the cloned graph and sums to zero, which caps every rival's vote
advantage at zero.  ``verify_certificate`` checks feasibility and the cap
numerically, and ``map_matching_to_clones`` realizes the vote advantage
of a concrete rival matching as a clone matching, tying the two views
together edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Optional

from .matchings import (
    Correspondence,
    Matching,
    deficiency,
    validate_correspondence,
    vote,
)
from .model import Instance, Side, VertexId
from .solver import InvariantError, LeveledMatching

Edge = tuple[VertexId, VertexId]


class CloneKind(str, Enum):
    CLONE = "clone"
    DUMMY = "dummy"
    LAST_RESORT = "last_resort"


class CloneId(NamedTuple):
    kind: CloneKind
    side: Side
    owner: int
    ordinal: int


# Dummies have no owning vertex.
_NO_OWNER = -1


# Module-level aliases of the members _left_of_bipartition compares with:
# looking up an enum member through its class costs about 165 ns on
# Python 3.11, and the test runs once per vertex and for many edges.
_CLONE = CloneKind.CLONE
_SIDE_A, _SIDE_B = Side.A, Side.B


def _left_of_bipartition(u: CloneId) -> bool:
    """True for vertices on the same side of the cloned graph as the
    A-clones: A-clones, B-side last-resorts and B-side dummies."""
    if u.kind is _CLONE:
        return u.side is _SIDE_A
    return u.side is _SIDE_B


CloneEdge = tuple[CloneId, CloneId]


def _canonical(u: CloneId, w: CloneId) -> CloneEdge:
    return (u, w) if _left_of_bipartition(u) else (w, u)


@dataclass(frozen=True)
class ClonedGraph:
    """The cloned graph of one leveled matching, with its lift ``mstar``.

    ``edges`` maps each canonical edge (A-side partition first) to its
    weight, computed once by ``build_cloned_graph``.
    """

    inst: Instance
    leveled: LeveledMatching
    s: int
    t: int
    vertices: tuple[CloneId, ...]
    edges: Mapping[CloneEdge, int]
    mstar: Mapping[CloneId, CloneId]
    mstar_by_edge: Mapping[Edge, CloneEdge]
    # A vertex's partition side is its side of the bipartition, so only
    # the level is stored.
    level: Mapping[CloneId, int]
    lr_adjacent: frozenset[CloneId]
    dummies: Mapping[Side, tuple[CloneId, ...]]
    # Clones and last-resorts of each vertex, in ordinal order.
    clones_of: Mapping[VertexId, tuple[CloneId, ...]]
    resorts_of: Mapping[VertexId, tuple[CloneId, ...]]

    def clone_name(self, u: CloneId) -> str:
        if u.kind is CloneKind.CLONE:
            owner = self.inst.name(VertexId(u.side, u.owner))
            return f"{owner}.{u.ordinal}"
        if u.kind is CloneKind.LAST_RESORT:
            owner = self.inst.name(VertexId(u.side, u.owner))
            return f"lr.{owner}.{u.ordinal}"
        return f"dummy.{u.side.value}.{u.ordinal}"

    def canonical(self, u: CloneId, v: CloneId) -> CloneEdge:
        return _canonical(u, v)


def build_cloned_graph(inst: Instance, leveled: LeveledMatching) -> ClonedGraph:
    """Construct the cloned graph and its one-to-one lift of the matching.

    Matched edges consume clones in sorted edge order, deficient vertices
    send their next clones to the shared per-side dummies, and whatever
    clones remain pair with the vertex's own last-resorts, everything in
    ascending ordinal order so the construction is deterministic.  Clones
    of a vertex matched at or below its lower quota are connected to its
    last-resorts only when they are themselves matched to one; vertices
    holding more than their lower quota connect every clone to every one
    of their last-resorts.  Raises ValueError when the matching breaks an
    upper quota or uses a non-edge.
    """
    m = leveled.matching
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    top = s + t + 1

    clones_of = {
        v: tuple(
            CloneId(CloneKind.CLONE, v.side, v.index, k + 1)
            for k in range(inst.upper(v))
        )
        for v in inst.all_vertices()
    }
    resorts_of = {
        v: tuple(
            CloneId(CloneKind.LAST_RESORT, v.side, v.index, k + 1)
            for k in range(inst.upper(v) - inst.lower(v))
        )
        for v in inst.all_vertices()
    }

    short = deficiency(inst, m)
    dummies = {
        side: tuple(
            CloneId(CloneKind.DUMMY, side, _NO_OWNER, k + 1)
            for k in range(total)
        )
        for side, total in ((Side.A, short.total_a), (Side.B, short.total_b))
    }

    mstar: dict[CloneId, CloneId] = {}
    level: dict[CloneId, int] = {}
    mstar_by_edge: dict[Edge, CloneEdge] = {}
    free_clones = {v: iter(clones_of[v]) for v in inst.all_vertices()}

    def bond(u: CloneId, w: CloneId, x: int) -> None:
        mstar[u] = w
        mstar[w] = u
        level[u] = level[w] = x

    for a, b in sorted(m.pairs):
        ai, bj = next(free_clones[a]), next(free_clones[b])
        mstar_by_edge[(a, b)] = (ai, bj)
        bond(ai, bj, leveled.levels[(a, b)])

    for side, dummy_level in ((Side.A, top), (Side.B, 0)):
        pool = iter(dummies[side])
        for v in inst.vertices(side):
            for _ in range(short.per_vertex[v]):
                bond(next(free_clones[v]), next(pool), dummy_level)
        if next(pool, None) is not None:
            raise InvariantError("every dummy must be consumed")

    # Spare clones never outnumber last-resorts: a vertex with matched
    # count c keeps upper - max(c, lower) spare clones.
    lr_clone_level = {Side.A: t + 1, Side.B: t}
    for v in inst.all_vertices():
        x = lr_clone_level[v.side]
        for resort in resorts_of[v]:
            level[resort] = x
        for clone, resort in zip(free_clones[v], resorts_of[v]):
            bond(clone, resort, x)

    # Weights depend only on the lift.  Lifted pairs weigh 0; a clone's
    # edge to a last-resort or dummy weighs -1 when it gives up a real
    # lifted partner, else 0; a clone-clone edge sums each owner's vote
    # against its clone's lifted partner, computed once per clone.
    def real_partner(u: CloneId) -> Optional[VertexId]:
        w = mstar[u]
        return VertexId(w.side, w.owner) if w.kind is CloneKind.CLONE else None

    def artificial_weight(clone: CloneId) -> int:
        return -1 if mstar[clone].kind is CloneKind.CLONE else 0

    edges: dict[CloneEdge, int] = {_canonical(u, w): 0 for u, w in mstar.items()}
    for a, b in sorted(inst.edges - m.pairs):
        votes_b = [(bj, vote(inst, b, a, real_partner(bj))) for bj in clones_of[b]]
        for ai in clones_of[a]:
            va = vote(inst, a, b, real_partner(ai))
            for bj, vb in votes_b:
                edges[(ai, bj)] = va + vb
    for side in (Side.A, Side.B):
        for v in inst.vertices(side):
            for clone in clones_of[v]:
                wt = artificial_weight(clone)
                for dummy in dummies[side]:
                    edges[_canonical(clone, dummy)] = wt

    lr_adjacent: set[CloneId] = set()
    for v in inst.all_vertices():
        if not resorts_of[v]:
            continue
        if len(m.partners(v)) > inst.lower(v):
            connected = clones_of[v]
        else:
            connected = tuple(
                c for c in clones_of[v] if mstar[c].kind is CloneKind.LAST_RESORT
            )
        lr_adjacent.update(connected)
        for clone in connected:
            wt = artificial_weight(clone)
            for resort in resorts_of[v]:
                edges[_canonical(clone, resort)] = wt

    vertices = (
        [c for v in inst.all_vertices() for c in clones_of[v]]
        + [r for v in inst.all_vertices() for r in resorts_of[v]]
        + list(dummies[Side.A])
        + list(dummies[Side.B])
    )
    return ClonedGraph(
        inst=inst,
        leveled=leveled,
        s=s,
        t=t,
        vertices=tuple(vertices),
        edges=edges,
        mstar=mstar,
        mstar_by_edge=mstar_by_edge,
        level=level,
        lr_adjacent=frozenset(lr_adjacent),
        dummies=dummies,
        clones_of=clones_of,
        resorts_of=resorts_of,
    )


def edge_weight(g: ClonedGraph, inst: Instance, e: CloneEdge) -> int:
    """Combined vote of the edge's endpoints for each other, against their
    lifted partners, as stored in ``g.edges`` when g was built.

    ``inst`` is not read: the weights come from g.  Raises ValueError for
    edges outside the graph.
    """
    try:
        return g.edges[g.canonical(*e)]
    except KeyError:
        raise ValueError("edge not present in the cloned graph") from None


@dataclass(frozen=True)
class DualCertificate:
    alpha: Mapping[CloneId, int]


def dual_assignment(g: ClonedGraph) -> DualCertificate:
    """The closed-form dual solution for the cloned graph.

    A vertex in the A-side partition at level x gets 2(t - x) + 1 and its
    B-side mirror the negation, so lifted pairs cancel; last-resorts and
    clones parked on a last-resort get 0.  Raises ValueError when a vertex
    sits outside the level range, which cannot happen for graphs built by
    build_cloned_graph.
    """
    alpha: dict[CloneId, int] = {}
    for u in g.vertices:
        if u.kind is CloneKind.LAST_RESORT or (
            u.kind is CloneKind.CLONE
            and g.mstar[u].kind is CloneKind.LAST_RESORT
        ):
            alpha[u] = 0
            continue
        level = g.level[u]
        if not 0 <= level <= g.s + g.t + 1:
            raise ValueError(f"{g.clone_name(u)} sits outside the level range")
        value = 2 * (g.t - level) + 1
        alpha[u] = value if _left_of_bipartition(u) else -value
    return DualCertificate(alpha)


@dataclass(frozen=True)
class CertificateReport:
    checks: tuple[tuple[str, bool], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    @property
    def failed_checks(self) -> tuple[str, ...]:
        return tuple(name for name, passed in self.checks if not passed)


def verify_certificate(g: ClonedGraph, cert: DualCertificate) -> CertificateReport:
    """Numerically verify that the dual certificate proves popularity.

    Checks, each reported separately: every edge inequality alpha_u +
    alpha_w >= wt holds; last-resorts carry nonnegative values; the values
    sum to zero; no edge drops more than one level from the A-side
    partition to the B-side; lifted matching edges are tight at weight 0;
    all weights lie in [-2, 2]; true edges within one level weigh <= 0 on
    the same level and exactly -2 one level down.  The weights are the ones
    stored in ``g.edges`` at build time.
    """
    alpha = cert.alpha
    failures: list[str] = []
    results: dict[str, bool] = {
        "edge_inequalities": True,
        "last_resorts_nonnegative": True,
        "zero_sum": True,
        "no_steep_downward": True,
        "matched_edges_tight": True,
        "weights_in_range": True,
        "level_weight_bounds": True,
    }

    def fail(check: str, message: str) -> None:
        results[check] = False
        failures.append(f"{check}: {message}")

    def label(u: CloneId, w: CloneId) -> str:
        return f"({g.clone_name(u)}, {g.clone_name(w)})"

    # Failures on edges are reported in edge order.  Only they are sorted,
    # and stably, so each edge keeps its checks in the order they ran.
    edge_failures: list[tuple[CloneEdge, str, str]] = []

    def fail_edge(u: CloneId, w: CloneId, check: str, message: str) -> None:
        edge_failures.append(((u, w), check, message))

    for (u, w), wt in g.edges.items():
        if alpha[u] + alpha[w] < wt:
            fail_edge(
                u, w, "edge_inequalities",
                f"{label(u, w)} has alpha sum {alpha[u] + alpha[w]} < weight {wt}",
            )
        if not -2 <= wt <= 2:
            fail_edge(u, w, "weights_in_range", f"{label(u, w)} weighs {wt}")
        x, y = g.level[u], g.level[w]
        if x > y + 1:
            fail_edge(
                u, w, "no_steep_downward", f"{label(u, w)} drops from level {x} to {y}"
            )
        if x == y + 1 and wt != -2:
            fail_edge(
                u, w, "level_weight_bounds",
                f"one-level-down edge {label(u, w)} weighs {wt}, expected -2",
            )
        if (
            x == y
            and u.kind is CloneKind.CLONE
            and w.kind is CloneKind.CLONE
            and wt > 0
        ):
            fail_edge(
                u, w, "level_weight_bounds",
                f"same-level true edge {label(u, w)} weighs {wt} > 0",
            )
        if g.mstar.get(u) == w and alpha[u] + alpha[w] != wt:
            fail_edge(
                u, w, "matched_edges_tight",
                f"lifted edge {label(u, w)} is not tight: "
                f"{alpha[u] + alpha[w]} != {wt}",
            )
    edge_failures.sort(key=lambda failure: failure[0])
    for _, check, message in edge_failures:
        fail(check, message)

    for u in g.vertices:
        if u.kind is CloneKind.LAST_RESORT and alpha[u] < 0:
            fail(
                "last_resorts_nonnegative",
                f"{g.clone_name(u)} carries {alpha[u]}",
            )

    total = sum(alpha.values())
    if total != 0:
        fail("zero_sum", f"alpha values sum to {total}")

    return CertificateReport(
        checks=tuple(results.items()), failures=tuple(failures)
    )


def render_certificate_report(
    g: ClonedGraph, cert: DualCertificate, report: CertificateReport
) -> str:
    """One line per vertex of the cloned graph (id, partition side, level,
    dual value), then the value sum, then the verdict."""
    lines = []
    for u in sorted(g.vertices):
        side = Side.A if _left_of_bipartition(u) else Side.B
        lines.append(
            f"{g.clone_name(u)} {side.value} {g.level[u]} {cert.alpha[u]}"
        )
    lines.append(f"SUM {sum(cert.alpha.values())}")
    if report.ok:
        lines.append("VERDICT PASS")
    else:
        lines.append("VERDICT FAIL " + ",".join(report.failed_checks))
    return "\n".join(lines) + "\n"


def map_matching_to_clones(
    g: ClonedGraph, inst: Instance, n: Matching, corr: Correspondence
) -> frozenset[CloneEdge]:
    """Lift a rival matching onto the cloned graph along a correspondence.

    The result is one-to-one, covers every clone and every dummy, and its
    total edge weight equals delta(n, m, corr) for the graph's underlying
    matching m: each clone's vote against its lifted partner realizes
    exactly one correspondence pair.  The rival must be critical, meaning
    its per-side deficiencies match the graph's dummy counts; anything
    else is rejected.
    """
    m = g.leveled.matching
    short = deficiency(inst, n)
    validate_correspondence(inst, n, m, corr)
    for side, total in ((Side.A, short.total_a), (Side.B, short.total_b)):
        if total != len(g.dummies[side]):
            raise ValueError(
                f"rival is not critical: side {side.value} deficiency "
                f"{total} != {len(g.dummies[side])} dummies"
            )

    corr_of: dict[tuple[VertexId, VertexId], Optional[VertexId]] = {}
    for v, listed in corr.pairs.items():
        for x, y in listed:
            if x is not None:
                corr_of[(v, x)] = y

    nstar: dict[CloneId, CloneId] = {}

    def bond(u: CloneId, w: CloneId) -> None:
        if u in nstar or w in nstar:
            raise InvariantError("a clone is lifted twice")
        nstar[u] = w
        nstar[w] = u

    def rival_clone(v: VertexId, partner: VertexId) -> CloneId:
        """v's clone for the rival edge to partner: the lifted clone of the
        edge it corresponds to, else a free clone backed by a dummy, else
        one backed by a last-resort."""
        image = corr_of[(v, partner)]
        if image is not None:
            ai, bj = g.mstar_by_edge[(v, image) if v.side is Side.A else (image, v)]
            return ai if v.side is Side.A else bj
        for kind in (CloneKind.DUMMY, CloneKind.LAST_RESORT):
            for u in g.clones_of[v]:
                if u not in nstar and g.mstar[u].kind is kind:
                    return u
        raise InvariantError("ran out of clones")

    for a, b in sorted(n.pairs & m.pairs):
        bond(*g.mstar_by_edge[(a, b)])

    for a, b in sorted(n.pairs - m.pairs):
        bond(rival_clone(a, b), rival_clone(b, a))

    # Only the two loops below bond dummies, each to the first free one of
    # its side, so a cursor per side finds it.
    free_dummies = {side: iter(g.dummies[side]) for side in (Side.A, Side.B)}

    for v in inst.all_vertices():
        if not short.per_vertex[v]:
            continue
        for u in g.clones_of[v]:
            if u in nstar or u in g.lr_adjacent:
                continue
            dummy = next(free_dummies[v.side], None)
            if dummy is None:
                raise InvariantError("dummies exhausted for a deficient vertex")
            bond(u, dummy)

    for v in inst.all_vertices():
        for u in g.clones_of[v]:
            if u in nstar:
                continue
            dummy = next(free_dummies[v.side], None)
            if dummy is not None:
                bond(u, dummy)
                continue
            resort = next(
                (
                    r
                    for r in g.resorts_of[v]
                    if r not in nstar and _canonical(u, r) in g.edges
                ),
                None,
            )
            if resort is None:
                raise InvariantError("no slot left for an unmatched clone")
            bond(u, resort)

    for side in (Side.A, Side.B):
        if not all(d in nstar for d in g.dummies[side]):
            raise InvariantError("unmatched dummy")

    out = set()
    for u, w in nstar.items():
        e = _canonical(u, w)
        if e not in g.edges:
            raise InvariantError("lifted matching uses a non-edge")
        out.add(e)
    return frozenset(out)


def clone_matching_weight(
    g: ClonedGraph, inst: Instance, nstar: frozenset[CloneEdge]
) -> int:
    """Total weight of a clone matching, for comparing against delta.

    The weights come from g; ``inst`` is not read.
    """
    return sum(edge_weight(g, inst, e) for e in nstar)
