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
so the graph stores only the lifted pairs: every other edge, and its
weight, follows from a rank per clone and the unmatched real edges (see
``CloneEdges``).  Each real edge (a, b) stands for upper(a)·upper(b) clone
pairs, and all of them are checked at once.

Popularity then reduces to a linear-programming fact: the closed-form
dual assignment below is feasible for the maximum-weight perfect-matching
LP of the cloned graph and sums to zero, which caps every rival's vote
advantage at zero.  ``verify_certificate`` checks feasibility and the cap
numerically, and ``map_matching_to_clones`` realizes the vote advantage
of a concrete rival matching as a clone matching, tying the two views
together edge by edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import sub
from typing import Iterator, Mapping, NamedTuple, Optional

from .matchings import (
    Correspondence,
    Matching,
    deficiency,
    validate_correspondence,
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


# Module-level aliases of the enum members that _left_of_bipartition and
# the edge rule compare with: looking up an enum member through its class
# costs about 165 ns on Python 3.11, and both run for many edges.
_CLONE, _LAST_RESORT = CloneKind.CLONE, CloneKind.LAST_RESORT
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


# The rank of an artificial lifted partner: every real partner beats it.
_UNRANKED = math.inf


class Block(NamedTuple):
    """The edges left × right, each of canonical orientation.  The pair
    (left[i], right[j]) weighs left_terms[i] + right_terms[j]."""

    left: tuple[CloneId, ...]
    left_terms: list[int]
    right: tuple[CloneId, ...]
    right_terms: list[int]
    # Set on clone–clone blocks, whose pairs are true edges.
    true_edges: bool


class CloneEdges(Mapping[CloneEdge, int]):
    """The edges of a cloned graph, each canonical edge (A-side partition
    first) mapped to its weight.

    Only the lifted pairs are stored, each at weight 0.  Every other edge
    follows from the lift, and its weight is the sum of two terms:

    - Clone–clone: (ai, bj) is an edge when (a, b) is an unmatched real
      edge.  Its weight is vote(a, b, p(ai)) + vote(b, a, p(bj)), where
      p(x) is the owner of x's lifted partner.  Each vote is one rank
      comparison against ``partner_rank``.
    - Clone–dummy: every clone is joined to every dummy of its side.
    - Clone–last-resort: a clone in ``lr_adjacent`` is joined to every
      last-resort of its owner.
    - An artificial edge weighs -1 when the clone gives up a real lifted
      partner, else 0.

    Iteration yields the lifted pairs, then the other edges block by block
    (see ``blocks``).  ``len`` is counted when the mapping is built.
    """

    __slots__ = (
        "lifted", "partner_rank", "unmatched", "lr_adjacent",
        "_clones_of", "_clones_by_index", "_resorts_of", "_dummies", "_artificial",
        "_size",
    )

    def __init__(
        self,
        lifted: dict[CloneEdge, int],
        partner_rank: dict[CloneId, float],
        unmatched: dict[tuple[int, int], tuple[int, int]],
        lr_adjacent: frozenset[CloneId],
        clones_of: Mapping[VertexId, tuple[CloneId, ...]],
        resorts_of: Mapping[VertexId, tuple[CloneId, ...]],
        dummies: Mapping[Side, tuple[CloneId, ...]],
    ) -> None:
        # The lifted pairs, each at weight 0.
        self.lifted = lifted
        # Each clone's rank of its lifted real partner, or _UNRANKED.
        self.partner_rank = partner_rank
        # (a.index, b.index) of each unmatched real edge (a, b), in sorted
        # order, mapped to (a's rank of b, b's rank of a).
        self.unmatched = unmatched
        self.lr_adjacent = lr_adjacent
        self._clones_of = clones_of
        # Each side's clones by owner index.
        self._clones_by_index = tuple(
            {v.index: cs for v, cs in clones_of.items() if v.side is side}
            for side in (_SIDE_A, _SIDE_B)
        )
        self._resorts_of = resorts_of
        self._dummies = dummies
        self._artificial = frozenset(
            [r for rs in resorts_of.values() for r in rs]
            + [d for ds in dummies.values() for d in ds]
        )
        lifted_clone_pairs = sum(
            1 for u, w in lifted if u.kind is _CLONE and w.kind is _CLONE
        )
        self._size = lifted_clone_pairs + sum(
            len(left) * len(right) for left, right, _ in self._products()
        )

    def _products(
        self,
    ) -> Iterator[tuple[tuple[CloneId, ...], tuple[CloneId, ...], Optional[tuple[int, int]]]]:
        """The edges outside the lifted clone–clone pairs as products
        left × right of canonical edges, each with the ranks of its real
        edge, or None for an artificial block.  The artificial blocks
        include their lifted pairs."""
        clones_of, resorts_of = self._clones_of, self._resorts_of
        a_clones, b_clones = self._clones_by_index
        for (i, j), ranks in self.unmatched.items():
            # A vertex of upper quota 0 has no clones.
            if a_clones[i] and b_clones[j]:
                yield a_clones[i], b_clones[j], ranks
        for side in (_SIDE_A, _SIDE_B):
            dummies = self._dummies[side]
            if dummies:
                clones = tuple(
                    c for v, cs in clones_of.items() if v.side is side for c in cs
                )
                yield (clones, dummies, None) if side is _SIDE_A else (dummies, clones, None)
        for v, resorts in resorts_of.items():
            adjacent = tuple(c for c in clones_of[v] if c in self.lr_adjacent)
            if adjacent and resorts:
                yield (adjacent, resorts, None) if v.side is _SIDE_A else (resorts, adjacent, None)

    def blocks(self) -> Iterator[Block]:
        """Every edge outside the lifted pairs, once, as blocks.

        There is one block per unmatched real edge, one clone–dummy block
        per side and one clone–last-resort block per vertex.  The
        artificial blocks also contain their lifted pairs, which callers
        skip.
        """
        rank = self.partner_rank
        for left, right, ranks in self._products():
            if ranks is None:
                # A clone's term is its cost of leaving its lifted partner;
                # dummies and last-resorts have no rank and add nothing.
                yield Block(
                    left,
                    [-1 if rank.get(u, _UNRANKED) < _UNRANKED else 0 for u in left],
                    right,
                    [-1 if rank.get(w, _UNRANKED) < _UNRANKED else 0 for w in right],
                    False,
                )
            else:
                ra, rb = ranks
                yield Block(
                    left,
                    [1 if ra < p else -1 for p in map(rank.__getitem__, left)],
                    right,
                    [1 if rb < p else -1 for p in map(rank.__getitem__, right)],
                    True,
                )

    def _implicit_weight(self, e: CloneEdge) -> Optional[int]:
        """The weight of e by the rule, or None when e is not an edge;
        lifted clone–clone pairs are left to ``lifted``."""
        u, w = e
        rank = self.partner_rank
        if u.kind is _CLONE and w.kind is _CLONE:
            if u.side is not _SIDE_A or w.side is not _SIDE_B:
                return None
            ranks = self.unmatched.get((u.owner, w.owner))
            ru, rw = rank.get(u), rank.get(w)
            if ranks is None or ru is None or rw is None:
                return None
            return (1 if ranks[0] < ru else -1) + (1 if ranks[1] < rw else -1)
        if u.kind is _CLONE:
            clone, other, side = u, w, _SIDE_A
        elif w.kind is _CLONE:
            clone, other, side = w, u, _SIDE_B
        else:
            return None
        r = rank.get(clone)
        if (
            r is None
            or clone.side is not side
            or other.side is not side
            or other not in self._artificial
        ):
            return None
        if other.kind is _LAST_RESORT and (
            other.owner != clone.owner or clone not in self.lr_adjacent
        ):
            return None
        return -1 if r < _UNRANKED else 0

    def __getitem__(self, e: CloneEdge) -> int:
        wt = self.lifted.get(e)
        if wt is None:
            wt = self._implicit_weight(e)
            if wt is None:
                raise KeyError(e)
        return wt

    def __contains__(self, e: object) -> bool:
        return e in self.lifted or self._implicit_weight(e) is not None

    def __iter__(self) -> Iterator[CloneEdge]:
        yield from self.lifted
        for left, right, _ in self._products():
            for u in left:
                for w in right:
                    if (u, w) not in self.lifted:
                        yield u, w

    def __len__(self) -> int:
        return self._size


@dataclass(frozen=True)
class ClonedGraph:
    """The cloned graph of one leveled matching, with its lift ``mstar``.

    ``edges`` maps each canonical edge (A-side partition first) to its
    weight.  It stores only the lifted pairs and answers every other edge
    from per-clone tables (see ``CloneEdges``).
    """

    inst: Instance
    leveled: LeveledMatching
    s: int
    t: int
    vertices: tuple[CloneId, ...]
    edges: CloneEdges
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
    partner_rank = {c: _UNRANKED for cs in clones_of.values() for c in cs}
    free_clones = {v: iter(clones_of[v]) for v in inst.all_vertices()}

    def bond(u: CloneId, w: CloneId, x: int) -> None:
        mstar[u] = w
        mstar[w] = u
        level[u] = level[w] = x

    for a, b in sorted(m.pairs):
        ai, bj = next(free_clones[a]), next(free_clones[b])
        mstar_by_edge[(a, b)] = (ai, bj)
        bond(ai, bj, leveled.levels[(a, b)])
        partner_rank[ai] = inst.rank(a, b)
        partner_rank[bj] = inst.rank(b, a)

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

    lr_adjacent: set[CloneId] = set()
    for v in inst.all_vertices():
        if not resorts_of[v]:
            continue
        if len(m.partners(v)) > inst.lower(v):
            lr_adjacent.update(clones_of[v])
        else:
            lr_adjacent.update(
                c for c in clones_of[v] if mstar[c].kind is CloneKind.LAST_RESORT
            )

    edges = CloneEdges(
        lifted={_canonical(u, w): 0 for u, w in mstar.items()},
        partner_rank=partner_rank,
        unmatched={
            (a.index, b.index): (inst.rank(a, b), inst.rank(b, a))
            for a, b in sorted(inst.edges - m.pairs)
        },
        lr_adjacent=frozenset(lr_adjacent),
        clones_of=clones_of,
        resorts_of=resorts_of,
        dummies=dummies,
    )

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
        lr_adjacent=edges.lr_adjacent,
        dummies=dummies,
        clones_of=clones_of,
        resorts_of=resorts_of,
    )


def edge_weight(g: ClonedGraph, inst: Instance, e: CloneEdge) -> int:
    """Combined vote of the edge's endpoints for each other, against their
    lifted partners, as ``g.edges`` gives it.

    ``inst`` is not read: the weights come from g.  Raises ValueError for
    edges outside the graph.
    """
    try:
        return g.edges[_canonical(*e)]
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


def _block_holds(
    block: Block, alpha: Mapping[CloneId, int], level: Mapping[CloneId, int]
) -> bool:
    """Whether every pair of the block passes the edge checks of
    ``verify_certificate``, decided from per-side minima and maxima in time
    linear in the block's vertices.  Lifted pairs in the block count too,
    so a block holding one of them can fail spuriously but never pass
    wrongly."""
    left, fs, right, hs, true_edges = block
    if (
        min(map(sub, map(alpha.__getitem__, left), fs))
        + min(map(sub, map(alpha.__getitem__, right), hs))
        < 0
    ):
        return False
    if min(fs) + min(hs) < -2 or max(fs) + max(hs) > 2:
        return False
    xs = list(map(level.__getitem__, left))
    ys = list(map(level.__getitem__, right))
    if max(xs) > min(ys) + 1:
        return False
    # Every weight is at least -2 by now, so a pair of levels meets the
    # level-weight bounds exactly when its heaviest pair does.  Sorting
    # leaves the largest term of each level last, which is the one dict()
    # keeps.
    top_right = dict(sorted(zip(ys, hs)))
    for x, f in dict(sorted(zip(xs, fs))).items():
        below, same = top_right.get(x - 1), top_right.get(x)
        if below is not None and f + below != -2:
            return False
        if true_edges and same is not None and f + same > 0:
            return False
    return True


def verify_certificate(g: ClonedGraph, cert: DualCertificate) -> CertificateReport:
    """Numerically verify that the dual certificate proves popularity.

    Checks, each reported separately: every edge inequality alpha_u +
    alpha_w >= wt holds; last-resorts carry nonnegative values; the values
    sum to zero; no edge drops more than one level from the A-side
    partition to the B-side; lifted matching edges are tight at weight 0;
    all weights lie in [-2, 2]; true edges within one level weigh <= 0 on
    the same level and exactly -2 one level down.  The weights are the ones
    ``g.edges`` gives.

    The lifted pairs are checked one by one and every other edge block by
    block (``CloneEdges.blocks``).  A pair weighs the sum of two terms, so
    each edge check on a block reduces to minima and maxima over its two
    sides: the edge inequalities hold for all pairs exactly when
    min(alpha_u - term_u) + min(alpha_w - term_w) >= 0, and the level
    checks compare per-level extremes.  Only a block that fails is checked
    again pair by pair, so the failures name the same edges, in the same
    order, as a check of every pair would.
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

    def check_edge(u: CloneId, w: CloneId, wt: int) -> None:
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

    lifted = g.edges.lifted
    for (u, w), wt in lifted.items():
        check_edge(u, w, wt)
    for block in g.edges.blocks():
        if not _block_holds(block, alpha, g.level):
            for u, f in zip(block.left, block.left_terms):
                for w, h in zip(block.right, block.right_terms):
                    if (u, w) not in lifted:
                        check_edge(u, w, f + h)
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

    # Only the loop below bonds last-resorts, so a cursor per vertex finds
    # the first free one; a clone reaches its owner's last-resorts exactly
    # when it is in lr_adjacent.
    for v in inst.all_vertices():
        free_resorts = iter(g.resorts_of[v])
        for u in g.clones_of[v]:
            if u in nstar:
                continue
            dummy = next(free_dummies[v.side], None)
            if dummy is not None:
                bond(u, dummy)
                continue
            resort = next(free_resorts, None) if u in g.lr_adjacent else None
            if resort is None:
                raise InvariantError("no slot left for an unmatched clone")
            bond(u, resort)

    for side in (Side.A, Side.B):
        if not all(d in nstar for d in g.dummies[side]):
            raise InvariantError("unmatched dummy")

    out = frozenset(_canonical(u, w) for u, w in nstar.items())
    if not all(e in g.edges for e in out):
        raise InvariantError("lifted matching uses a non-edge")
    return out


def clone_matching_weight(
    g: ClonedGraph, inst: Instance, nstar: frozenset[CloneEdge]
) -> int:
    """Total weight of a clone matching, for comparing against delta.

    The weights come from g; ``inst`` is not read.
    """
    return sum(edge_weight(g, inst, e) for e in nstar)
