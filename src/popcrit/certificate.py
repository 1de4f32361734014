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
so the graph keeps no pair: every edge, lifted or not, lies in one block
of a table, a product of two groups of vertices each offered one rank,
and its weight is the two ends' votes for those ranks against the ranks
they hold (see ``CloneEdges``).  Each real edge (a, b) stands for
upper(a)·upper(b) clone pairs.  The verifier reads each block as stored,
its two sides and their two offers, and checks its pairs by classes of
equal values, working out each member's vote as it forms the classes.

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
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, NamedTuple

from .matchings import (
    _UNRANKED,
    Correspondence,
    Matching,
    _rank_vote,
    deficiency,
    validate_correspondence,
)
from .model import Edge, Instance, Side, VertexId
from .solver import InvariantError, LeveledMatching


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


# Module-level aliases of the enum members that the per-edge and
# per-vertex loops compare with: looking up an enum member through its
# class costs about 165 ns on Python 3.11.
_CLONE, _DUMMY, _LAST_RESORT = CloneKind.CLONE, CloneKind.DUMMY, CloneKind.LAST_RESORT
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


def _block_key(u: CloneId, w: CloneId) -> tuple:
    """The table key of the block that would hold the edge (u, w): the
    kind, side and owner of each end.  A side has one clone–dummy block, so
    next to a dummy no owner is kept."""
    if u.kind is _DUMMY or w.kind is _DUMMY:
        return u.kind, u.side, w.kind, w.side
    return u.kind, u.side, u.owner, w.kind, w.side, w.owner


# One block of the table, (left, left_offer, right, right_offer): the edges
# left × right.  Each side maps its members to the rank they hold in the
# lift, and offers all of them one rank: the real partner's, or _UNRANKED.
# A plain tuple: a NamedTuple costs about 0.6 µs more to make on Python 3.11.
_Entry = tuple[dict[CloneId, float], float, dict[CloneId, float], float]


class CloneEdges(Mapping[CloneEdge, int]):
    """The edges of a cloned graph, each canonical edge (A-side partition
    first) mapped to its weight.

    Every edge lies in one block of a table built with the graph, in this
    order:

    - one per matched real edge (a, b), in sorted order: the lifted pair,
      each end offered the rank it holds, so that the pair weighs 0;
    - one per vertex, A side first: its last-resort-adjacent clones × its
      last-resorts;
    - one per unmatched real edge (a, b), in a's declaration order and
      then a's preference order: a's clones × b's clones, a offering b's
      rank and b offering a's;
    - one per side, A first: its clones × its dummies.

    The artificial blocks offer _UNRANKED on both sides, and include their
    lifted pairs.  A pair weighs the sum of its two ends' votes for what
    the block offers against what they hold (``matchings._rank_vote``): a
    clone gives up a real partner at -1, and a dummy or last-resort votes 0.

    Iteration yields the edges block by block in the order above, and
    ``blocks`` hands out the table's entries themselves, offers and all.
    No caller depends on that order: ``verify_certificate`` sorts its
    failures by edge.  ``len`` sums the blocks' sizes on each call; no
    step of the pipeline asks for it.
    """

    __slots__ = ("_table",)

    def __init__(self, table: dict[tuple, _Entry]) -> None:
        self._table = table

    def blocks(self) -> Iterator[_Entry]:
        """Every edge, lifted pairs included, once, as the table's entries
        (left, left_offer, right, right_offer), as they were stored: the
        edges left × right, each of canonical orientation.  The pair (u, w)
        weighs ``_rank_vote(left[u], left_offer) + _rank_vote(right[w],
        right_offer)``, and only a real edge's block offers real ranks."""
        return iter(self._table.values())

    def __getitem__(self, e: CloneEdge) -> int:
        try:
            u, w = e
        except (TypeError, ValueError):
            raise KeyError(e) from None
        if not (isinstance(u, CloneId) and isinstance(w, CloneId)):
            raise KeyError(e)
        try:
            left, left_offer, right, right_offer = self._table[_block_key(u, w)]
            return _rank_vote(left[u], left_offer) + _rank_vote(right[w], right_offer)
        except KeyError:
            raise KeyError(e) from None

    def __iter__(self) -> Iterator[CloneEdge]:
        for left, _, right, _ in self._table.values():
            for u in left:
                for w in right:
                    yield u, w

    def __len__(self) -> int:
        return sum(len(left) * len(right) for left, _, right, _ in self._table.values())


@dataclass(frozen=True)
class ClonedGraph:
    """The cloned graph of one leveled matching, with its lift ``mstar``.

    ``edges`` maps each canonical edge (A-side partition first) to its
    weight, read from one table of blocks (see ``CloneEdges``).  The graph
    stores each fact once: the lower-quota sums s and t are read from
    ``inst``, and ``vertices`` is chained from ``clones_of``, ``resorts_of``
    and ``dummies`` when first asked for.
    """

    inst: Instance
    leveled: LeveledMatching
    edges: CloneEdges
    mstar: Mapping[CloneId, CloneId]
    # A vertex's partition side is its side of the bipartition, so only
    # the level is stored.
    level: Mapping[CloneId, int]
    dummies: Mapping[Side, tuple[CloneId, ...]]
    # Clones and last-resorts of each vertex, in ordinal order.
    clones_of: Mapping[VertexId, tuple[CloneId, ...]]
    resorts_of: Mapping[VertexId, tuple[CloneId, ...]]

    @cached_property
    def vertices(self) -> tuple[CloneId, ...]:
        """Every clone, then every last-resort, each in its owner's order,
        then the dummies, A side first."""
        tables = (self.clones_of, self.resorts_of, self.dummies)
        return tuple(u for table in tables for group in table.values() for u in group)

    def clone_name(self, u: CloneId) -> str:
        return f"{self._name_stem(u)}.{u.ordinal}"

    def _name_stem(self, u: CloneId) -> str:
        """u's name less its ordinal, shared by a vertex's clones, by its
        last-resorts and by a side's dummies."""
        if u.kind is _DUMMY:
            return f"dummy.{u.side.value}"
        owner = self.inst.name(VertexId(u.side, u.owner))
        return owner if u.kind is _CLONE else f"lr.{owner}"


def _park(
    clones: Iterable[CloneId], short: int,
    dummies: Iterator[CloneId], resorts: Iterable[CloneId],
) -> Iterator[tuple[CloneId, CloneId]]:
    """Pair the clones a vertex leaves without a real partner, in order,
    with slots: the first ``short`` of them, the vertex's shortfall, with
    the next dummies of its side, the rest with its last-resorts.  Both
    lifts park by this rule.  Raises InvariantError when the slots run
    out."""
    # Slots suffice for a critical matching: each side's shortfalls sum to
    # its dummy count, and a vertex holding c real partners parks
    # upper - max(c, lower) <= upper - lower clones on last-resorts.
    slots = chain(islice(dummies, short), resorts)
    for u in clones:
        w = next(slots, None)
        if w is None:
            raise InvariantError("no slot left for an unmatched clone")
        yield u, w


def build_cloned_graph(inst: Instance, leveled: LeveledMatching) -> ClonedGraph:
    """Construct the cloned graph and its one-to-one lift of the matching.

    Matched edges take clones first, in sorted edge order, and each lifted
    pair is joined as a block of its own.  Then one pass over the
    vertices, A side first, treats each vertex in turn: its remaining
    clones are parked (``_park``) on the next dummies of its side and on
    its last-resorts, and its last-resort block is joined.  Clones of a
    vertex matched at or below its lower quota are connected to its
    last-resorts only when they are themselves matched to one; vertices
    holding more than their lower quota connect every clone to every one
    of their last-resorts.  Everything goes in ascending ordinal order, so
    the construction is deterministic.  Raises ValueError when the
    matching breaks an upper quota or uses a non-edge.
    """
    m = leveled.matching
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    short = deficiency(inst, m)
    ranks = inst._ranks

    def ids(kind: CloneKind, side: Side, owner: int, n: int) -> tuple[CloneId, ...]:
        return tuple(CloneId(kind, side, owner, k + 1) for k in range(n))

    clones_of = {
        v: ids(CloneKind.CLONE, *v, inst.upper(v)) for v in inst.all_vertices()
    }
    dummies = {
        side: ids(CloneKind.DUMMY, side, _NO_OWNER, total)
        for side, total in ((Side.A, short.total_a), (Side.B, short.total_b))
    }

    mstar: dict[CloneId, CloneId] = {}
    level: dict[CloneId, int] = {}
    for side, x in ((Side.A, s + t + 1), (Side.B, 0)):
        level.update(dict.fromkeys(dummies[side], x))
    # Each vertex's clones, each with the rank of its lifted real partner
    # or _UNRANKED.  The table's blocks share these dicts.
    holding = {v: dict.fromkeys(cs, _UNRANKED) for v, cs in clones_of.items()}
    free_clones = {v: iter(cs) for v, cs in clones_of.items()}
    table: dict[tuple, _Entry] = {}

    def bond(u: CloneId, w: CloneId, x: int) -> None:
        mstar[u] = w
        mstar[w] = u
        level[u] = level[w] = x

    def join(
        ends: dict[CloneId, float], offer: float,
        others: dict[CloneId, float], others_offer: float,
    ) -> None:
        # A vertex of upper quota 0 has no clones, and a side or a vertex
        # may have no dummies or last-resorts.
        if ends and others:
            u, w = next(iter(ends)), next(iter(others))
            if _left_of_bipartition(u):
                table[_block_key(u, w)] = (ends, offer, others, others_offer)
            else:
                table[_block_key(w, u)] = (others, others_offer, ends, offer)

    for a, b in sorted(m.pairs):
        ai, bj = next(free_clones[a]), next(free_clones[b])
        bond(ai, bj, leveled.levels[(a, b)])
        ra, rb = ranks[a][b], ranks[b][a]
        holding[a][ai], holding[b][bj] = ra, rb
        # Each end is offered what it holds, so the lifted pair weighs 0.
        # a's clone is the left side.
        table[_block_key(ai, bj)] = ({ai: ra}, ra, {bj: rb}, rb)

    resort_level = {Side.A: t + 1, Side.B: t}
    free_dummies = {side: iter(pool) for side, pool in dummies.items()}
    side_clones: dict[Side, dict[CloneId, float]] = {Side.A: {}, Side.B: {}}
    resorts_of: dict[VertexId, tuple[CloneId, ...]] = {}
    for v in inst.all_vertices():
        lower, upper = inst.quotas(v)
        resorts = resorts_of[v] = ids(CloneKind.LAST_RESORT, *v, upper - lower)
        level.update(dict.fromkeys(resorts, resort_level[v.side]))
        spare: dict[CloneId, float] = {}
        for u, w in _park(
            free_clones[v], short.per_vertex[v], free_dummies[v.side], resorts
        ):
            bond(u, w, level[w])
            if w.kind is _LAST_RESORT:
                spare[u] = _UNRANKED
        adjacent = holding[v] if len(m.partners(v)) > lower else spare
        # Dummies and last-resorts hold and offer no rank.
        join(adjacent, _UNRANKED, dict.fromkeys(resorts, _UNRANKED), _UNRANKED)
        side_clones[v.side].update(holding[v])
    if any(next(pool, None) is not None for pool in free_dummies.values()):
        raise InvariantError("every dummy must be consumed")

    # Real edges in a's preference order, so that a's rank of b is the
    # position and nothing needs sorting.  a's clones are the left side.
    for a in inst.vertices(Side.A):
        for rank, b in enumerate(inst.pref(a)):
            # A vertex of upper quota 0 has no clones, and so no blocks.
            if clones_of[a] and clones_of[b] and (a, b) not in m.pairs:
                table[_block_key(clones_of[a][0], clones_of[b][0])] = (
                    holding[a], rank, holding[b], ranks[b][a]
                )
    for side, pool in dummies.items():
        join(side_clones[side], _UNRANKED, dict.fromkeys(pool, _UNRANKED), _UNRANKED)

    return ClonedGraph(
        inst=inst,
        leveled=leveled,
        edges=CloneEdges(table),
        mstar=mstar,
        level=level,
        dummies=dummies,
        clones_of=clones_of,
        resorts_of=resorts_of,
    )


@dataclass(frozen=True)
class DualCertificate:
    alpha: Mapping[CloneId, int]


def dual_assignment(g: ClonedGraph) -> DualCertificate:
    """The closed-form dual solution for the cloned graph.

    A vertex in the A-side partition at level x gets 2(t - x) + 1 and its
    B-side mirror the negation, so lifted pairs cancel; last-resorts and
    clones parked on a last-resort get 0.  s and t, the lower-quota sums of
    sides A and B, are read from ``g.inst``.  Raises ValueError when a
    vertex sits outside the level range 0..s + t + 1, which cannot happen
    for graphs built by build_cloned_graph.
    """
    alpha: dict[CloneId, int] = {}
    s, t = g.inst.sum_lower(Side.A), g.inst.sum_lower(Side.B)
    mstar, levels, top = g.mstar, g.level, s + t + 1
    for u in g.vertices:
        if u.kind is _LAST_RESORT or (
            u.kind is _CLONE and mstar[u].kind is _LAST_RESORT
        ):
            alpha[u] = 0
            continue
        level = levels[u]
        if not 0 <= level <= top:
            raise ValueError(f"{g.clone_name(u)} sits outside the level range")
        value = 2 * (t - level) + 1
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


def _pair_failures(
    alpha_sum: int, wt: int, x: int, y: int, true_edge: bool
) -> Iterator[tuple[str, str]]:
    """The edge checks of ``verify_certificate`` that a pair fails, in the
    order they run, each with its message, in which ``{}`` stands for the
    pair.  A pair is read only through its ends' alpha sum, its weight, the
    levels x and y of its ends and whether it is a true edge."""
    if alpha_sum < wt:
        yield "edge_inequalities", f"{{}} has alpha sum {alpha_sum} < weight {wt}"
    if not -2 <= wt <= 2:
        yield "weights_in_range", f"{{}} weighs {wt}"
    if x > y + 1:
        yield "no_steep_downward", f"{{}} drops from level {x} to {y}"
    if x == y + 1 and wt != -2:
        yield (
            "level_weight_bounds", f"one-level-down edge {{}} weighs {wt}, expected -2"
        )
    if x == y and true_edge and wt > 0:
        yield "level_weight_bounds", f"same-level true edge {{}} weighs {wt} > 0"


def verify_certificate(g: ClonedGraph, cert: DualCertificate) -> CertificateReport:
    """Numerically verify that the dual certificate proves popularity.

    Checks, each reported separately: every edge inequality alpha_u +
    alpha_w >= wt holds; last-resorts carry nonnegative values; the values
    sum to zero; no edge drops more than one level from the A-side
    partition to the B-side; lifted matching edges are tight at weight 0;
    all weights lie in [-2, 2]; true edges within one level weigh <= 0 on
    the same level and exactly -2 one level down.  The weights are the ones
    ``g.edges`` gives.

    Every edge lies in one block (``CloneEdges.blocks``): two sides, each
    offered one rank.  An edge weighs the sum of its ends' terms, each
    end's vote for its side's offer against the rank it holds, and it is a
    true edge when the block offers real ranks.  Its checks other than
    tightness (``_pair_failures``) read it only through each end's alpha,
    term and level, and that flag.  So each side of a block is grouped into
    classes of members equal in those three values; the checks run once per
    pair of classes, and a failing pair of classes names each pair of its
    members.  A side is a dict of members and the ranks they hold, and a
    vertex's clones are one dict shared by all the blocks they sit in, so
    each side's rows (member, held, alpha, level) are read out once per
    call, keyed by the dict's identity; a block groups those rows, working
    out each term (``matchings._rank_vote``) as its row is grouped.
    Tightness is checked on the lift.  The failures name the same edges, in
    the same order, as a check of every pair would.
    """
    alpha, level = cert.alpha, g.level
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
    # and stably, so each edge keeps its checks in the order they ran:
    # tightness, checked after the blocks, comes last.
    edge_failures: list[tuple[CloneEdge, str, str]] = []
    # Each side's rows, by the side's identity: the table keeps every side
    # alive, so no identity is reused within the call.
    rows_of: dict[int, list[tuple[CloneId, float, int, int]]] = {}

    def classes(
        members: dict[CloneId, float], offer: float
    ) -> dict[tuple[int, int, int], list[CloneId]]:
        """The members grouped by (alpha, term, level), where a member's term
        is its vote for the offer against the rank it holds."""
        rows = rows_of.get(id(members))
        if rows is None:
            rows = rows_of[id(members)] = [
                (u, held, alpha[u], level[u]) for u, held in members.items()
            ]
        out: dict[tuple[int, int, int], list[CloneId]] = {}
        for u, held, alpha_u, x in rows:
            out.setdefault((alpha_u, _rank_vote(held, offer), x), []).append(u)
        return out

    for left, left_offer, right, right_offer in g.edges.blocks():
        # Only a real edge's block offers real ranks.
        true_edge = left_offer < _UNRANKED
        rights = classes(right, right_offer)
        for (alpha_u, f, x), us in classes(left, left_offer).items():
            for (alpha_w, h, y), ws in rights.items():
                for check, message in _pair_failures(
                    alpha_u + alpha_w, f + h, x, y, true_edge
                ):
                    edge_failures.extend(
                        ((u, w), check, message.format(label(u, w)))
                        for u in us
                        for w in ws
                    )
    for u, w in g.mstar.items():
        if _left_of_bipartition(u) and alpha[u] + alpha[w] != 0:
            edge_failures.append((
                (u, w), "matched_edges_tight",
                f"lifted edge {label(u, w)} is not tight: {alpha[u] + alpha[w]} != 0",
            ))
    edge_failures.sort(key=lambda failure: failure[0])
    for _, check, message in edge_failures:
        fail(check, message)

    for u in g.vertices:
        if u.kind is _LAST_RESORT and alpha[u] < 0:
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
    """One line per vertex of the cloned graph (its name as ``clone_name``
    gives it, partition side, level, dual value), then the value sum, then
    the verdict.

    The vertex lines come in the graph's own tables' order: the clones of
    ``g.clones_of``, A side first, each owner in index order and its clones
    in ordinal order; then the dummies of ``g.dummies``, A side first; then
    the last-resorts of ``g.resorts_of`` in the clones' order.  This is the
    order of ``sorted(g.vertices)``, since CloneKind's values sort clone,
    dummy, last_resort.  A clone sits on its own side of the partition, a
    dummy or last-resort on the other.
    """
    alpha, level = cert.alpha, g.level
    lines = []
    # Each group, a vertex's clones or last-resorts or a side's dummies,
    # shares its name stem and its partition side.
    for group in chain(g.clones_of.values(), g.dummies.values(), g.resorts_of.values()):
        if group:
            stem = g._name_stem(group[0])
            side = (_SIDE_A if _left_of_bipartition(group[0]) else _SIDE_B).value
            lines += [f"{stem}.{u.ordinal} {side} {level[u]} {alpha[u]}" for u in group]
    lines.append(f"SUM {sum(alpha.values())}")
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

    One pass over the vertices, A side first, walks each vertex's clones
    in ordinal order.  A clone whose m-partner n keeps stays on its lifted
    pair, and one whose m-partner the correspondence maps to a rival
    partner serves that partner.  The rest serve the rival partners mapped
    from bottom, and those still left are parked as ``build_cloned_graph``
    parks them (``_park``), from n's shortfall at the vertex.
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

    nstar: dict[CloneId, CloneId] = {}

    def bond(u: CloneId, w: CloneId) -> None:
        if u in nstar or w in nstar:
            raise InvariantError("a clone is lifted twice")
        nstar[u] = w
        nstar[w] = u

    # The A end of each rival edge outside m, until the pass reaches its
    # B end: inst.all_vertices() yields the A side first.
    a_ends: dict[Edge, CloneId] = {}
    free_dummies = {side: iter(g.dummies[side]) for side in (Side.A, Side.B)}
    for v in inst.all_vertices():
        # v's partners all lie on the other side, so an index names each.
        theirs = {u.index for u in n.partners(v)}
        listed = corr.pairs.get(v, ())
        image = {y.index: x for x, y in listed if y is not None}
        from_bottom = [x for x, y in listed if y is None]
        serves: dict[VertexId, CloneId] = {}
        rest: list[CloneId] = []
        for u in g.clones_of[v]:
            w = g.mstar[u]
            if w.kind is _CLONE:
                if w.owner in theirs:
                    if v.side is _SIDE_A:
                        bond(u, w)
                    continue
                x = image[w.owner]
                if x is not None:
                    serves[x] = u
                    continue
            rest.append(u)
        # Ordinal order puts the clones m freed first and those m parked on
        # last-resorts last, so that only the latter reach last-resorts
        # when m holds v at or below its lower quota.
        serves.update(zip(from_bottom, rest))
        for x, u in serves.items():
            if v.side is _SIDE_A:
                a_ends[(v, x)] = u
            else:
                bond(a_ends[(x, v)], u)
        for u, w in _park(
            rest[len(from_bottom):], short.per_vertex[v],
            free_dummies[v.side], g.resorts_of[v],
        ):
            bond(u, w)

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

    The weights come from ``g.edges``, so each edge is in canonical
    orientation; ``inst`` is not read.  Raises ValueError for a pair outside
    the graph.
    """
    try:
        return sum(g.edges[e] for e in nstar)
    except KeyError:
        raise ValueError("edge not present in the cloned graph") from None
