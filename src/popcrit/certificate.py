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
so the graph keeps no pair.  A lifted clone–clone pair, the lift of a
matched edge, weighs 0 and is read from the lift itself.  Every other
edge lies in one block of a table, a product of two groups of vertices
each offered one rank, and its weight is the two ends' votes for those
ranks against the ranks they hold (see ``CloneEdges``).  Each unmatched
real edge (a, b) stands for upper(a)·upper(b) clone pairs.  The verifier
checks the lifted clone–clone pairs on the lift, and reads each block as
stored, its two sides and their two offers.  It groups each side once
per call by alpha and level, sorted by held rank; a block's offer cuts
each group by bisection into classes of equal vote, and the checks run
once per pair of classes.

Popularity then reduces to a linear-programming fact: the closed-form
dual assignment below is feasible for the maximum-weight perfect-matching
LP of the cloned graph and sums to zero, which caps every rival's vote
advantage at zero.  ``verify_certificate`` checks feasibility and the cap
numerically, and ``map_matching_to_clones`` realizes the vote advantage
of a concrete rival matching as a clone matching, tying the two views
together edge by edge.

Two more checks make the report prove the whole answer, whatever run
produced it.  Potentials on the real vertices, computed by two
alternating-path closures (``_potentials``) but checked arc by arc
(``_potential_failures``), prove that the matching's deficiency is
minimum, so that the rivals popularity is checked against are all the
critical matchings.  And the size rule proves that no popular critical
matching is larger (Cseh and Kavitha, "Popular edges and dominant
matchings", IPCO 2016): let gamma be +1 on every clone not parked on a
last-resort, -1 on every dummy and 0 elsewhere, so that gamma sums to
twice the matching's size.  Then 2 alpha + gamma / 2 is a feasible dual
for the weights 2 wt + [both ends are clones], under which the lift of a
popular critical rival N weighs at least |N|, as soon as no alpha-tight
edge joins a clone parked on a last-resort to a clone or a dummy: an edge
of slack 1 or more has room for gamma's worst case.  The verifier reads
a parked clone as a clone of alpha 0, and checks that every parked clone
carries 0, so the rule runs per pair of classes in the block loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, islice, product
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
    kind, side and owner of each end.  Every block joins the clones or
    last-resorts of one owner, or a side's dummies, to those of another, so
    the key names one block."""
    return u.kind, u.side, u.owner, w.kind, w.side, w.owner


# One block of the table, (left, left_offer, right, right_offer): the edges
# left × right.  Each side maps its members to the rank they hold in the
# lift, and offers all of them one rank: the real partner's, or _UNRANKED.
# A plain tuple: a NamedTuple costs about 0.6 µs more to make on Python 3.11.
_Entry = tuple[dict[CloneId, float], float, dict[CloneId, float], float]


class CloneEdges(Mapping[CloneEdge, int]):
    """The edges of a cloned graph, each canonical edge (A-side partition
    first) mapped to its weight.

    The lifted clone–clone pairs, one per matched real edge (a, b), are
    read from the lift the graph was built with: each weighs 0, and every
    other pair of a's clones with b's clones is a non-edge.  Every other
    edge lies in one block of a table built with the graph, in this order:

    - one per vertex, A side first, in its pass: its last-resort block
      (its last-resort-adjacent clones × its last-resorts), then its
      clones × its side's dummies;
    - one per unmatched real edge (a, b), in a's declaration order and
      then a's preference order: a's clones × b's clones, a offering b's
      rank and b offering a's.

    The artificial blocks offer _UNRANKED on both sides, and include their
    lifted pairs.  A pair weighs the sum of its two ends' votes for what
    the block offers against what they hold (``matchings._rank_vote``): a
    clone gives up a real partner at -1, and a dummy or last-resort votes 0.

    Iteration yields the lifted clone–clone pairs in sorted order of their
    real edges, then the edges block by block in the order above, and
    ``blocks`` hands out the table's entries themselves, offers and all.
    No caller depends on that order: ``verify_certificate`` sorts its
    failures by edge.  ``len`` counts the lifted clone–clone pairs and sums
    the blocks' sizes on each call; no step of the pipeline asks for it.
    """

    __slots__ = ("_table", "_lift")

    def __init__(self, table: dict[tuple, _Entry], lift: dict[CloneId, CloneId]) -> None:
        self._table = table
        self._lift = lift

    def _lifted(self) -> Iterator[CloneEdge]:
        """The lifted clone–clone pairs, A end first, in the order the lift
        took them."""
        # A clone is the only kind lifted onto its own kind.
        pairs = self._lift.items()
        return ((u, w) for u, w in pairs if u.kind is w.kind and u.side is _SIDE_A)

    def blocks(self) -> Iterator[_Entry]:
        """Every edge but the lifted clone–clone pairs, once, as the table's
        entries (left, left_offer, right, right_offer), as they were stored:
        the edges left × right, each of canonical orientation.  The pair
        (u, w) weighs ``_rank_vote(left[u], left_offer) + _rank_vote(right[w],
        right_offer)``, and only a real edge's block offers real ranks."""
        return iter(self._table.values())

    def __getitem__(self, e: CloneEdge) -> int:
        try:
            u, w = e
        except (TypeError, ValueError):
            raise KeyError(e) from None
        if not (isinstance(u, CloneId) and isinstance(w, CloneId)):
            raise KeyError(e)
        # A lifted clone–clone pair lies in no block, and weighs 0.
        if u.kind is w.kind and u.side is _SIDE_A and self._lift.get(u) == w:
            return 0
        try:
            left, left_offer, right, right_offer = self._table[_block_key(u, w)]
            return _rank_vote(left[u], left_offer) + _rank_vote(right[w], right_offer)
        except KeyError:
            raise KeyError(e) from None

    def __iter__(self) -> Iterator[CloneEdge]:
        yield from self._lifted()
        for left, _, right, _ in self._table.values():
            yield from product(left, right)

    def __len__(self) -> int:
        blocks = sum(len(left) * len(right) for left, _, right, _ in self._table.values())
        return blocks + sum(1 for _ in self._lifted())


@dataclass(frozen=True)
class ClonedGraph:
    """The cloned graph of one leveled matching, with its lift ``mstar``.

    ``edges`` maps each canonical edge (A-side partition first) to its
    weight, read from the lift for a lifted clone–clone pair and from one
    table of blocks for every other edge (see ``CloneEdges``).  The graph
    stores each fact once: the level range t and top is the run's, read
    from ``leveled``, and ``vertices`` is chained from ``clones_of``,
    ``resorts_of`` and ``dummies`` when first asked for.
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

    Matched edges take clones first, in sorted edge order; their lifted
    pairs join no block, since ``CloneEdges`` reads them from the lift.
    Then one pass over the
    vertices, A side first, treats each vertex in turn: its remaining
    clones are parked (``_park``) on the next dummies of its side and on
    its last-resorts, and its last-resort block and then its block of
    clones × its side's dummies are joined.  The unmatched real edges
    follow, one block each.  Clones of a
    vertex matched at or below its lower quota are connected to its
    last-resorts only when they are themselves matched to one; vertices
    holding more than their lower quota connect every clone to every one
    of their last-resorts.  Everything goes in ascending ordinal order, so
    the construction is deterministic.  The levels of dummies (A side at
    the top level, B side at 0) and of last-resorts (t + 1 on side A, t on
    side B) come from the run's range, ``leveled.t`` and ``leveled.top``.
    Raises ValueError when the matching breaks an upper quota or uses a
    non-edge.
    """
    m = leveled.matching
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
    for side, x in ((Side.A, leveled.top), (Side.B, 0)):
        level.update(dict.fromkeys(dummies[side], x))
    # Each vertex's clones, each with the rank of its lifted real partner
    # or _UNRANKED, and each side's dummies, which hold no rank.  The
    # table's blocks share these dicts.
    holding = {v: dict.fromkeys(cs, _UNRANKED) for v, cs in clones_of.items()}
    dummy_ranks = {side: dict.fromkeys(pool, _UNRANKED) for side, pool in dummies.items()}
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
        holding[a][ai], holding[b][bj] = ranks[a][b], ranks[b][a]

    resort_level = {Side.A: leveled.t + 1, Side.B: leveled.t}
    free_dummies = {side: iter(pool) for side, pool in dummies.items()}
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
        join(holding[v], _UNRANKED, dummy_ranks[v.side], _UNRANKED)
    if any(next(pool, None) is not None for pool in free_dummies.values()):
        raise InvariantError("every dummy must be consumed")

    # Real edges in a's preference order, so that a's rank of b is the
    # position and nothing needs sorting.
    for a in inst.vertices(Side.A):
        for rank, b in enumerate(inst.pref(a)):
            if (a, b) not in m.pairs:
                join(holding[a], rank, holding[b], ranks[b][a])

    return ClonedGraph(
        inst=inst,
        leveled=leveled,
        edges=CloneEdges(table, mstar),
        mstar=mstar,
        level=level,
        dummies=dummies,
        clones_of=clones_of,
        resorts_of=resorts_of,
    )


@dataclass(frozen=True)
class DualCertificate:
    """The dual values of the cloned graph's vertices, ``alpha``, and the
    criticality witness, a ``potential`` per real vertex."""

    alpha: Mapping[CloneId, int]
    potential: Mapping[VertexId, int]


def _potentials(inst: Instance, m: Matching) -> dict[VertexId, int]:
    """The criticality witness of m: +1 on every vertex an alternating
    path reaches from a deficient B vertex, leaving side B along unmatched
    edges and side A along matched ones; -1 on every vertex reached the
    same way from a deficient A vertex, with the roles of the sides
    swapped; 0 elsewhere.  Where the two closures meet, m has an
    augmenting path and no witness, and the -1 closure is written last."""
    potential = dict.fromkeys(inst.all_vertices(), 0)
    deficient = [v for v in potential if len(m.partners(v)) < inst.lower(v)]
    for side, value in ((_SIDE_B, 1), (_SIDE_A, -1)):
        stack = [v for v in deficient if v.side is side]
        seen = set(stack)
        while stack:
            v = stack.pop()
            potential[v] = value
            held = m.partners(v)
            step = [u for u in inst.pref(v) if u not in held] if v.side is side else held
            for u in step:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return potential


def dual_assignment(g: ClonedGraph) -> DualCertificate:
    """The closed-form dual solution for the cloned graph, with the
    criticality witness of its matching (``_potentials``).

    A vertex in the A-side partition at level x gets 2(t - x) + 1 and its
    B-side mirror the negation, so lifted pairs cancel; last-resorts and
    clones parked on a last-resort get 0.  t and the top level are the
    run's, ``g.leveled.t`` and ``g.leveled.top``.  Raises ValueError when a
    vertex sits outside the level range 0..top, which cannot happen for
    graphs built by build_cloned_graph.
    """
    alpha: dict[CloneId, int] = {}
    mstar, levels, t, top = g.mstar, g.level, g.leveled.t, g.leveled.top
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
    return DualCertificate(alpha, _potentials(g.inst, g.leveled.matching))


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


# The checks of ``verify_certificate``, in the order its report lists them.
_CHECKS = (
    "edge_inequalities", "last_resorts_nonnegative", "zero_sum", "no_steep_downward",
    "matched_edges_tight", "weights_in_range", "level_weight_bounds", "critical",
    "largest_size",
)


def _zero_clone(u: CloneId, alpha_u: int, w: CloneId, alpha_w: int) -> bool:
    """Whether the edge (u, w) joins a clone of alpha 0 to a clone or a
    dummy, the edges the size rule reads."""
    if u.kind is _LAST_RESORT or w.kind is _LAST_RESORT:
        return False
    return (u.kind is _CLONE and alpha_u == 0) or (w.kind is _CLONE and alpha_w == 0)


def _pair_failures(
    alpha_sum: int, wt: int, x: int, y: int, true_edge: bool, zero_clone: bool
) -> Iterator[tuple[str, str]]:
    """The edge checks of ``verify_certificate`` that a pair fails, in the
    order they run, each with its message, in which ``{}`` stands for the
    pair.  A pair is read only through its ends' alpha sum, its weight, the
    levels x and y of its ends, whether it is a true edge and whether it
    joins a clone of alpha 0 to a clone or a dummy."""
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
    if zero_clone and alpha_sum == wt:
        yield "largest_size", "tight edge {} joins a clone of alpha 0 to a clone or a dummy"


def _check_coverage(g: ClonedGraph, cert: DualCertificate) -> None:
    """Raise ValueError unless the certificate holds a value for exactly
    the vertices of g and a potential for exactly the real vertices."""
    for values, vertices, name, what in (
        (cert.alpha, g.vertices, g.clone_name, "values"),
        (cert.potential, tuple(g.inst.all_vertices()), g.inst.name, "potentials"),
    ):
        for u in vertices:
            if u not in values:
                raise ValueError(f"certificate has no {what[:-1]} for {name(u)}")
        if len(values) != len(vertices):
            raise ValueError(
                f"certificate has {what} for {len(values) - len(vertices)} entries "
                "that are not vertices of the graph"
            )


def _potential_failures(
    inst: Instance, m: Matching, potential: Mapping[VertexId, int]
) -> Iterator[str]:
    """Where the potentials fail to witness that m has minimum deficiency.

    m induces a flow in the network of S -> a, a -> b and b -> T arcs,
    where a vertex's arc from or to its terminal carries its lower quota at
    cost -1 and the rest of its upper quota at cost 0, filled in that
    order, and each matched edge carries one unit.  Its cost is minus the
    lower quota m fills, so m has minimum deficiency exactly when the flow
    has minimum cost, which holds exactly when some potentials, 0 on S and
    T, leave no residual arc a negative reduced cost (Ahuja, Magnanti and
    Orlin, Network Flows, ch. 9).  Read in the flow's direction, as q =
    pi(a) on side A and q = -pi(b) on side B, a vertex's potential
    must satisfy one bound per residual arc at its terminal: q <= -1 if it
    is deficient, q >= -1 if it holds some of its lower quota, q <= 0 if
    it has room and q >= 0 if it holds a surplus.  An edge needs pi(b) >=
    pi(a) if matched, pi(a) >= pi(b) if not.  The failures come vertex by
    vertex, then edge by edge in A's preference order.
    """
    for v in inst.all_vertices():
        lower, upper = inst.quotas(v)
        held = len(m.partners(v))
        pi = potential[v]
        q = pi if v.side is _SIDE_A else -pi
        for present, reduced, state in (
            (held < lower, -1 - q, "is deficient"),
            (0 < held and 0 < lower, 1 + q, "holds some of its lower quota"),
            (held < upper, -q, "has room"),
            (held > lower, q, "holds a surplus"),
        ):
            if present and reduced < 0:
                yield f"{inst.name(v)} {state} but has potential {pi}"
    # Only an edge whose ends' potentials differ can fail.
    if len(set(potential.values())) < 2:
        return
    for a in inst.vertices(_SIDE_A):
        pa, held = potential[a], m.partners(a)
        for b in inst.pref(a):
            pb = potential[b]
            if pa != pb and (b in held) is (pa > pb):
                kind, order = ("matched", ">") if pa > pb else ("unmatched", "<")
                edge = f"({inst.name(a)}, {inst.name(b)})"
                yield f"{kind} edge {edge} has potentials {pa} {order} {pb}"


def verify_certificate(g: ClonedGraph, cert: DualCertificate) -> CertificateReport:
    """Numerically verify that the certificate proves the matching
    critical, popular among critical matchings and largest among those.

    Checks, each reported separately: every edge inequality alpha_u +
    alpha_w >= wt holds; last-resorts carry nonnegative values; the values
    sum to zero; no edge drops more than one level from the A-side
    partition to the B-side; lifted matching edges are tight at weight 0;
    all weights lie in [-2, 2]; true edges within one level weigh <= 0 on
    the same level and exactly -2 one level down; the potentials witness
    minimum deficiency (``critical``, see ``_potential_failures``); no
    tight edge joins a clone of alpha 0 to a clone or a dummy, and every
    clone parked on a last-resort carries 0 (``largest_size``).  The
    weights are the ones ``g.edges`` gives.

    Every edge but the lifted clone–clone pairs lies in one block
    (``CloneEdges.blocks``): two sides, each offered one rank.  An edge
    weighs the sum of its ends' terms, each end's vote for its side's offer
    against the rank it holds, and it is a true edge when the block offers
    real ranks.  Its checks other than tightness (``_pair_failures``) read
    it only through each end's alpha, term and level, and that flag.  So
    each side of a block is split into classes of members equal in those
    three values; the checks run once per pair of classes, and a failing
    pair of classes names each pair of its members.  A side is a dict of
    members and the ranks they hold, and a vertex's clones, like a side's
    dummies, are one dict shared by all the blocks they sit in, so each
    side is grouped once per call, keyed by the dict's identity, by alpha
    and level, each group sorted by held rank.  A block's offer cuts each
    group by bisection into the members holding better ranks, the same
    rank and worse ranks, whose terms (``matchings._rank_vote``) are -1, 0
    and 1: a class per nonempty cut, at a cost per group rather than per
    member.

    The lifted pairs are checked in one walk over the lift: each lifted
    clone–clone pair, a true edge of weight 0, gets the checks of
    ``_pair_failures``, then every lifted pair is checked for tightness,
    and a pair of a clone and a last-resort for the clone's 0.  The
    failures name the same edges, in the same order, as a check of every
    pair would.  The criticality failures come last, vertex by vertex and
    then edge by edge.

    Raises ValueError, before any check, when the certificate lacks a
    value for a vertex of the graph or a potential for a real vertex, or
    holds either for other entries.
    """
    alpha, level = cert.alpha, g.level
    _check_coverage(g, cert)
    # Failures on edges are reported in edge order.  Only they are sorted,
    # and stably, so each edge keeps its checks in the order they ran:
    # tightness, checked last on each lifted pair, comes last.
    edge_failures: list[tuple[CloneEdge, str, str]] = []

    def flag(u: CloneId, w: CloneId, check: str, message: str) -> None:
        """Record that the edge (u, w) fails the check; ``{}`` in the
        message stands for the edge."""
        name = f"({g.clone_name(u)}, {g.clone_name(w)})"
        edge_failures.append(((u, w), check, message.format(name)))

    # Each side's members grouped by (alpha, level), each group's members and
    # the ranks they hold sorted by held rank, by the side's identity: the
    # table keeps every side alive, so no identity is reused within the call.
    groups_of: dict[int, dict[tuple[int, int], tuple[list[float], list[CloneId]]]] = {}

    def classes(members: dict[CloneId, float], offer: float) -> Iterator[tuple]:
        """The members grouped by (alpha, term, level), where a member's term
        is its vote for the offer against the rank it holds, each class as
        (alpha, term, level, us, lo, hi) for its members us[lo:hi]."""
        groups = groups_of.get(id(members))
        if groups is None:
            groups = groups_of[id(members)] = {}
            for u in sorted(members, key=members.__getitem__):
                helds, us = groups.setdefault((alpha[u], level[u]), ([], []))
                helds.append(members[u])
                us.append(u)
        for (alpha_u, x), (helds, us) in groups.items():
            # The offer cuts a group into the members holding better ranks,
            # the same rank and worse ranks, whose terms (matchings._rank_vote)
            # are -1, 0 and 1.
            i = bisect_left(helds, offer)
            j = bisect_right(helds, offer, i)
            if i:
                yield alpha_u, -1, x, us, 0, i
            if j > i:
                yield alpha_u, 0, x, us, i, j
            if j < len(us):
                yield alpha_u, 1, x, us, j, len(us)

    for left, left_offer, right, right_offer in g.edges.blocks():
        rights = list(classes(right, right_offer))
        for alpha_u, f, x, us, i, j in classes(left, left_offer):
            for alpha_w, h, y, ws, k, n in rights:
                # Only a real edge's block offers real ranks, and a class's
                # members are all of one kind.
                for failure in _pair_failures(
                    alpha_u + alpha_w, f + h, x, y, left_offer < _UNRANKED,
                    (alpha_u == 0 or alpha_w == 0)
                    and _zero_clone(us[i], alpha_u, ws[k], alpha_w),
                ):
                    for u, w in product(us[i:j], ws[k:n]):
                        flag(u, w, *failure)
    for u, w in g.mstar.items():
        if _left_of_bipartition(u):
            alpha_sum = alpha[u] + alpha[w]
            # A lifted clone–clone pair lies in no block, and weighs 0.
            if u.kind is w.kind:
                for failure in _pair_failures(
                    alpha_sum, 0, level[u], level[w], True,
                    _zero_clone(u, alpha[u], w, alpha[w]),
                ):
                    flag(u, w, *failure)
            if alpha_sum != 0:
                message = f"lifted edge {{}} is not tight: {alpha_sum} != 0"
                flag(u, w, "matched_edges_tight", message)
            # The size rule takes a clone parked on a last-resort for one
            # of alpha 0.
            if u.kind is _LAST_RESORT or w.kind is _LAST_RESORT:
                parked = w if u.kind is _LAST_RESORT else u
                if alpha[parked] != 0:
                    message = f"{{}} parks a clone of alpha {alpha[parked]} != 0"
                    flag(u, w, "largest_size", message)
    edge_failures.sort(key=lambda failure: failure[0])
    # Each failure once, as (check, message), in the order it is reported.
    failures = [(check, message) for _, check, message in edge_failures]

    for u in g.vertices:
        if u.kind is _LAST_RESORT and alpha[u] < 0:
            failures.append(
                ("last_resorts_nonnegative", f"{g.clone_name(u)} carries {alpha[u]}")
            )

    total = sum(alpha.values())
    if total != 0:
        failures.append(("zero_sum", f"alpha values sum to {total}"))
    failures += [
        ("critical", message)
        for message in _potential_failures(g.inst, g.leveled.matching, cert.potential)
    ]

    failed = {check for check, _ in failures}
    return CertificateReport(
        checks=tuple((check, check not in failed) for check in _CHECKS),
        failures=tuple(f"{check}: {message}" for check, message in failures),
    )


def render_certificate_report(
    g: ClonedGraph, cert: DualCertificate, report: CertificateReport
) -> str:
    """One line per vertex of the cloned graph (its name as ``clone_name``
    gives it, partition side, level, dual value), then one line per real
    vertex, ``POTENTIAL``, its name and its potential, in declaration
    order, A side first, then the value sum, then the verdict.

    The vertex lines come in the graph's own tables' order: the clones of
    ``g.clones_of``, A side first, each owner in index order and its clones
    in ordinal order; then the dummies of ``g.dummies``, A side first; then
    the last-resorts of ``g.resorts_of`` in the clones' order.  This is the
    order of ``sorted(g.vertices)``, since CloneKind's values sort clone,
    dummy, last_resort.  A clone sits on its own side of the partition, a
    dummy or last-resort on the other.

    Raises ValueError, as ``verify_certificate`` does, when the certificate
    lacks a value for a vertex of the graph or holds values for other
    entries.
    """
    alpha, level = cert.alpha, g.level
    _check_coverage(g, cert)
    lines = []
    # Each group, a vertex's clones or last-resorts or a side's dummies,
    # shares its name stem and its partition side.
    for group in chain(g.clones_of.values(), g.dummies.values(), g.resorts_of.values()):
        if group:
            stem = g._name_stem(group[0])
            side = (_SIDE_A if _left_of_bipartition(group[0]) else _SIDE_B).value
            lines += [f"{stem}.{u.ordinal} {side} {level[u]} {alpha[u]}" for u in group]
    inst, potential = g.inst, cert.potential
    lines += [f"POTENTIAL {inst.name(v)} {potential[v]}" for v in inst.all_vertices()]
    lines.append(f"SUM {sum(alpha.values())}")
    if report.ok:
        lines.append("VERDICT PASS")
    else:
        lines.append("VERDICT FAIL " + ",".join(report.failed_checks))
    return "\n".join(lines) + "\n"


def _check_graph_instance(g: ClonedGraph, inst: Instance) -> None:
    """Raise ValueError unless inst is the instance g was built on.  The
    identity test comes first, so a caller that passes ``g.inst`` itself
    pays for no comparison."""
    if inst is not g.inst and inst != g.inst:
        raise ValueError("instance differs from the one the cloned graph was built on")


def map_matching_to_clones(
    g: ClonedGraph, inst: Instance, n: Matching, corr: Correspondence
) -> frozenset[CloneEdge]:
    """Lift a rival matching onto the cloned graph along a correspondence.

    The result is one-to-one, covers every clone and every dummy, and its
    total edge weight equals delta(n, m, corr) for the graph's underlying
    matching m: each clone's vote against its lifted partner realizes
    exactly one correspondence pair.  The rival must be critical, meaning
    its per-side deficiencies match the graph's dummy counts; anything
    else is rejected, and so is an ``inst`` that differs from ``g.inst``.

    One pass over the vertices, A side first, walks each vertex's clones
    in ordinal order.  A clone whose m-partner n keeps stays on its lifted
    pair, and one whose m-partner the correspondence maps to a rival
    partner serves that partner.  The rest serve the rival partners mapped
    from bottom, and those still left are parked as ``build_cloned_graph``
    parks them (``_park``), from n's shortfall at the vertex.
    """
    _check_graph_instance(g, inst)
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
    orientation; ``inst`` must be ``g.inst`` or equal to it.  Raises
    ValueError for another instance and for a pair outside the graph.
    """
    _check_graph_instance(g, inst)
    try:
        return sum(g.edges[e] for e in nstar)
    except KeyError:
        raise ValueError("edge not present in the cloned graph") from None
