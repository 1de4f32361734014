"""Popularity certificate built on a cloned one-to-one graph.

The solver's output matching, together with the level at which each edge
was formed, induces a cloned graph: every vertex v is split into upper
quota many clones, each vertex additionally owns upper-minus-lower many
last-resorts, and one dummy per unit of deficiency is shared per side.
The matching lifts to a one-to-one matching over the clones that also
covers every dummy.  Edge weights on the cloned graph encode the votes a
pair of vertices would cast for using that edge instead of keeping their
current partners, so any rival matching mapped onto the clones has total
weight equal to its vote advantage.

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
from .solver import LeveledMatching

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


def _left_of_bipartition(u: CloneId) -> bool:
    """True for vertices on the same side of the cloned graph as the
    A-clones: A-clones, B-side last-resorts and B-side dummies."""
    if u.kind is CloneKind.CLONE:
        return u.side is Side.A
    return u.side is Side.B


CloneEdge = tuple[CloneId, CloneId]


@dataclass(frozen=True)
class ClonedGraph:
    inst: Instance
    leveled: LeveledMatching
    s: int
    t: int
    vertices: tuple[CloneId, ...]
    edges: frozenset[CloneEdge]
    mstar: Mapping[CloneId, CloneId]
    mstar_by_edge: Mapping[Edge, CloneEdge]
    # (partition side, level); partition side equals bipartition side.
    partition: Mapping[CloneId, tuple[Side, int]]
    lr_adjacent: frozenset[CloneId]
    dummies: Mapping[Side, tuple[CloneId, ...]]

    def clone_name(self, u: CloneId) -> str:
        if u.kind is CloneKind.CLONE:
            owner = self.inst.name(VertexId(u.side, u.owner))
            return f"{owner}.{u.ordinal}"
        if u.kind is CloneKind.LAST_RESORT:
            owner = self.inst.name(VertexId(u.side, u.owner))
            return f"lr.{owner}.{u.ordinal}"
        return f"dummy.{u.side.value}.{u.ordinal}"

    def canonical(self, u: CloneId, v: CloneId) -> CloneEdge:
        return (u, v) if _left_of_bipartition(u) else (v, u)


def build_cloned_graph(inst: Instance, leveled: LeveledMatching) -> ClonedGraph:
    """Construct the cloned graph and its one-to-one lift of the matching.

    Matched edges consume clones in sorted edge order, deficient vertices
    send their next clones to the shared per-side dummies, and whatever
    clones remain pair with the vertex's own last-resorts, everything in
    ascending ordinal order so the construction is deterministic.  Clones
    of a vertex matched at or below its lower quota are connected to its
    last-resorts only when they are themselves matched to one; vertices
    holding more than their lower quota connect every clone to every one
    of their last-resorts.  Raises ValueError when a matched edge has no
    recorded level or the matching breaks an upper quota or uses a
    non-edge.
    """
    m = leveled.matching
    for pair in m.pairs:
        if pair not in leveled.levels:
            a, b = pair
            raise ValueError(
                f"no level recorded for matched edge "
                f"({inst.name(a)}, {inst.name(b)})"
            )
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    top = s + t + 1

    clones_of: dict[VertexId, list[CloneId]] = {}
    lr_of: dict[VertexId, list[CloneId]] = {}
    for v in inst.all_vertices():
        q = inst.quotas(v)
        clones_of[v] = [
            CloneId(CloneKind.CLONE, v.side, v.index, k + 1)
            for k in range(q.upper)
        ]
        lr_of[v] = [
            CloneId(CloneKind.LAST_RESORT, v.side, v.index, k + 1)
            for k in range(q.upper - q.lower)
        ]

    short = deficiency(inst, m)
    dummies = {
        side: tuple(
            CloneId(CloneKind.DUMMY, side, _NO_OWNER, k + 1)
            for k in range(total)
        )
        for side, total in ((Side.A, short.total_a), (Side.B, short.total_b))
    }

    mstar: dict[CloneId, CloneId] = {}
    partition: dict[CloneId, tuple[Side, int]] = {}
    mstar_by_edge: dict[Edge, CloneEdge] = {}
    next_clone = {v: 0 for v in inst.all_vertices()}

    def take_clone(v: VertexId) -> CloneId:
        i = next_clone[v]
        next_clone[v] = i + 1
        return clones_of[v][i]

    for a, b in sorted(m.pairs):
        ai, bj = take_clone(a), take_clone(b)
        mstar[ai] = bj
        mstar[bj] = ai
        mstar_by_edge[(a, b)] = (ai, bj)
        level = leveled.levels[(a, b)]
        partition[ai] = (Side.A, level)
        partition[bj] = (Side.B, level)

    for side, dummy_level in ((Side.A, top), (Side.B, 0)):
        pool = iter(dummies[side])
        for v in inst.vertices(side):
            for _ in range(short.per_vertex[v]):
                clone = take_clone(v)
                dummy = next(pool)
                mstar[clone] = dummy
                mstar[dummy] = clone
                partition[clone] = (side, dummy_level)
                partition[dummy] = (side.other(), dummy_level)
        leftover = next(pool, None)
        assert leftover is None, "every dummy must be consumed"

    lr_clone_level = {Side.A: t + 1, Side.B: t}
    for v in inst.all_vertices():
        used = 0
        while next_clone[v] < len(clones_of[v]):
            clone = take_clone(v)
            resort = lr_of[v][used]
            used += 1
            mstar[clone] = resort
            mstar[resort] = clone
            partition[clone] = (v.side, lr_clone_level[v.side])
            partition[resort] = (v.side.other(), lr_clone_level[v.side])
        for resort in lr_of[v][used:]:
            partition[resort] = (v.side.other(), lr_clone_level[v.side])

    edges: set[CloneEdge] = set()
    for u, w in mstar.items():
        if _left_of_bipartition(u):
            edges.add((u, w))
    for a, b in sorted(inst.edges - m.pairs):
        for ai in clones_of[a]:
            for bj in clones_of[b]:
                edges.add((ai, bj))
    for side in (Side.A, Side.B):
        for v in inst.vertices(side):
            for clone in clones_of[v]:
                for dummy in dummies[side]:
                    edges.add((clone, dummy) if side is Side.A else (dummy, clone))

    lr_adjacent: set[CloneId] = set()
    for v in inst.all_vertices():
        if not lr_of[v]:
            continue
        if len(m.partners(v)) > inst.lower(v):
            connected = clones_of[v]
        else:
            connected = [c for c in clones_of[v] if mstar[c].kind is CloneKind.LAST_RESORT]
        for clone in connected:
            lr_adjacent.add(clone)
            for resort in lr_of[v]:
                if v.side is Side.A:
                    edges.add((clone, resort))
                else:
                    edges.add((resort, clone))

    vertices = (
        [c for v in inst.all_vertices() for c in clones_of[v]]
        + [r for v in inst.all_vertices() for r in lr_of[v]]
        + list(dummies[Side.A])
        + list(dummies[Side.B])
    )
    return ClonedGraph(
        inst=inst,
        leveled=leveled,
        s=s,
        t=t,
        vertices=tuple(vertices),
        edges=frozenset(edges),
        mstar=mstar,
        mstar_by_edge=mstar_by_edge,
        partition=partition,
        lr_adjacent=frozenset(lr_adjacent),
        dummies=dummies,
    )


def _owner(u: CloneId) -> VertexId:
    return VertexId(u.side, u.owner)


def _mstar_true_partner(g: ClonedGraph, u: CloneId) -> Optional[VertexId]:
    """The real vertex u's lifted partner stands for, None for a
    last-resort or dummy partner."""
    w = g.mstar[u]
    return _owner(w) if w.kind is CloneKind.CLONE else None


def edge_weight(g: ClonedGraph, inst: Instance, e: CloneEdge) -> int:
    """Combined vote of the edge's endpoints for each other, against their
    lifted partners.

    Edges of the lifted matching weigh 0.  On any other edge between two
    real clones both owners compare the new partner with their lifted one
    (a last-resort or dummy partner counts as unmatched).  An edge from a
    clone to a last-resort or dummy weighs 0 when the clone's lifted
    partner is artificial as well, and -1 when it gives up a real partner.
    Raises ValueError for edges outside the graph.
    """
    u, w = g.canonical(*e)
    if (u, w) not in g.edges:
        raise ValueError("edge not present in the cloned graph")
    if u.kind is CloneKind.CLONE and w.kind is CloneKind.CLONE:
        if g.mstar[u] == w:
            return 0
        a, b = _owner(u), _owner(w)
        return vote(inst, a, b, _mstar_true_partner(g, u)) + vote(
            inst, b, a, _mstar_true_partner(g, w)
        )
    clone = u if u.kind is CloneKind.CLONE else w
    return 0 if g.mstar[clone].kind is not CloneKind.CLONE else -1


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
        side, level = g.partition[u]
        if not 0 <= level <= g.s + g.t + 1:
            raise ValueError(f"{g.clone_name(u)} sits outside the level range")
        value = 2 * (g.t - level) + 1
        alpha[u] = value if side is Side.A else -value
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
    the same level and exactly -2 one level down.
    """
    inst = g.inst
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

    for u, w in sorted(g.edges):
        wt = edge_weight(g, inst, (u, w))
        label = f"({g.clone_name(u)}, {g.clone_name(w)})"
        if alpha[u] + alpha[w] < wt:
            fail(
                "edge_inequalities",
                f"{label} has alpha sum {alpha[u] + alpha[w]} < weight {wt}",
            )
        if not -2 <= wt <= 2:
            fail("weights_in_range", f"{label} weighs {wt}")
        x, y = g.partition[u][1], g.partition[w][1]
        if x > y + 1:
            fail("no_steep_downward", f"{label} drops from level {x} to {y}")
        if x == y + 1 and wt != -2:
            fail(
                "level_weight_bounds",
                f"one-level-down edge {label} weighs {wt}, expected -2",
            )
        if (
            x == y
            and u.kind is CloneKind.CLONE
            and w.kind is CloneKind.CLONE
            and wt > 0
        ):
            fail(
                "level_weight_bounds",
                f"same-level true edge {label} weighs {wt} > 0",
            )
        if g.mstar.get(u) == w and alpha[u] + alpha[w] != wt:
            fail(
                "matched_edges_tight",
                f"lifted edge {label} is not tight: "
                f"{alpha[u] + alpha[w]} != {wt}",
            )

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
        side, level = g.partition[u]
        lines.append(
            f"{g.clone_name(u)} {side.value} {level} {cert.alpha[u]}"
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

    # Clones and last-resorts of each owner, in ordinal order.
    clones_of: dict[VertexId, list[CloneId]] = {}
    resorts_of: dict[VertexId, list[CloneId]] = {}
    for u in g.vertices:
        if u.kind is not CloneKind.DUMMY:
            kept = clones_of if u.kind is CloneKind.CLONE else resorts_of
            kept.setdefault(_owner(u), []).append(u)

    nstar: dict[CloneId, CloneId] = {}

    def bond(u: CloneId, w: CloneId) -> None:
        assert u not in nstar and w not in nstar
        nstar[u] = w
        nstar[w] = u

    def artificial_backed_clone(v: VertexId, kind: CloneKind) -> Optional[CloneId]:
        for u in clones_of[v]:
            if u not in nstar and g.mstar[u].kind is kind:
                return u
        return None

    for a, b in sorted(n.pairs & m.pairs):
        bond(*g.mstar_by_edge[(a, b)])

    for a, b in sorted(n.pairs - m.pairs):
        image = corr_of[(a, b)]
        if image is not None:
            ai = g.mstar_by_edge[(a, image)][0]
        else:
            ai = artificial_backed_clone(a, CloneKind.DUMMY)
            if ai is None:
                ai = artificial_backed_clone(a, CloneKind.LAST_RESORT)
        image_b = corr_of[(b, a)]
        if image_b is not None:
            bj = g.mstar_by_edge[(image_b, b)][1]
        else:
            bj = artificial_backed_clone(b, CloneKind.DUMMY)
            if bj is None:
                bj = artificial_backed_clone(b, CloneKind.LAST_RESORT)
        assert ai is not None and bj is not None, "ran out of clones"
        bond(ai, bj)

    # Only the two loops below bond dummies, each to the first free one of
    # its side, so a cursor per side finds it.
    free_dummies = {side: iter(g.dummies[side]) for side in (Side.A, Side.B)}

    for v in inst.all_vertices():
        if not short.per_vertex[v]:
            continue
        for u in clones_of[v]:
            if u in nstar or u in g.lr_adjacent:
                continue
            dummy = next(free_dummies[v.side], None)
            assert dummy is not None, "dummies exhausted for a deficient vertex"
            bond(u, dummy)

    for v in inst.all_vertices():
        for u in clones_of[v]:
            if u in nstar:
                continue
            dummy = next(free_dummies[v.side], None)
            if dummy is not None:
                bond(u, dummy)
                continue
            resort = next(
                (
                    r
                    for r in resorts_of.get(v, ())
                    if r not in nstar and g.canonical(u, r) in g.edges
                ),
                None,
            )
            assert resort is not None, "no slot left for an unmatched clone"
            bond(u, resort)

    for side in (Side.A, Side.B):
        assert all(d in nstar for d in g.dummies[side]), "unmatched dummy"

    out = set()
    for u, w in nstar.items():
        e = g.canonical(u, w)
        assert e in g.edges, "lifted matching uses a non-edge"
        out.add(e)
    return frozenset(out)


def clone_matching_weight(
    g: ClonedGraph, inst: Instance, nstar: frozenset[CloneEdge]
) -> int:
    """Total weight of a clone matching, for comparing against delta."""
    return sum(edge_weight(g, inst, e) for e in nstar)
