"""Matchings, deficiency, blocking pairs and vote-based comparison.

A matching assigns each vertex at most its upper quota of partners; lower
quotas are soft and their shortfall is the vertex deficiency.  Two matchings
are compared by votes: each vertex conceptually fills its unused capacity
with a bottom symbol (``None``) in both matchings, ignores positions that
agree (a shared partner, or bottom on both sides), fixes a bijection
between the remaining positions (a correspondence), and casts one vote per
bijection pair, +1 for a preferred partner, -1 for a worse one, where any
real partner beats bottom.  Bottom therefore shows up only on the side
where the vertex holds fewer real partners, exactly as many times as the
shortfall.  That padding rule is stated once, in ``_padded_difference``,
which ``validate_correspondence``, ``random_correspondence`` and the vote
kernel ``vertex_gain`` all read.  ``delta`` totals the votes for a given
correspondence and ``max_delta`` maximizes over all correspondences, one
vertex at a time.

``Matching`` and ``Correspondence`` cannot change once built, and each
remembers, by weak reference, the argument objects it last passed its check
with (``check_matching``, ``validate_correspondence``).  Every public entry
point still checks its inputs, but a check already passed with the very
same objects returns at once, so an audit that hands one rival and one
correspondence to several functions checks each once.  The rule is stated
once, in ``_passed`` and ``_pass``.

No pair ever ties: preference lists are strict, the gained and lost
partner sets are disjoint, and bottom pads only one side.  So a vertex
pairing k positions casts 2*wins - k, and its best total comes from the
most wins, which a sort-and-count greedy finds exactly.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, partial
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .model import Edge, Instance, Side, VertexId, _records

CorrPair = tuple[Optional[VertexId], Optional[VertexId]]


class MatchingError(ValueError):
    """Raised for malformed matching text or pairs violating the instance."""


# The key under which a checked object keeps the argument objects it last
# passed its check with.
_PASSED_WITH = "_passed_with"


def _passed(obj, *args) -> bool:
    """Whether obj last passed its check with exactly these argument
    objects.  They are held by weak reference, and a dead reference yields
    None, so an object made later at a recycled address cannot pass."""
    refs = obj.__dict__.get(_PASSED_WITH, ())
    return len(refs) == len(args) and all(r() is a for r, a in zip(refs, args))


def _pass(obj, *args) -> None:
    """Record that obj passed its check with these argument objects.  This
    is sound only because obj and the arguments cannot change: matchings
    and correspondences copy what they are given, and an Instance is
    immutable data."""
    obj.__dict__[_PASSED_WITH] = tuple(map(weakref.ref, args))


@dataclass(frozen=True)
class Matching:
    """An immutable set of (a, b) edges.

    ``pairs`` is stored as a frozenset whatever iterable is passed, so a
    matching that passed ``check_matching`` stays valid for that instance.
    """

    pairs: frozenset[Edge]

    def __post_init__(self) -> None:
        # frozenset() returns a frozenset argument itself, so this is free
        # for every caller in the package.
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    def __reduce__(self):
        # A copy is built afresh, without the weak references of _pass.
        return Matching, (self.pairs,)

    @cached_property
    def _partners(self) -> dict[VertexId, frozenset[VertexId]]:
        byv: dict[VertexId, set[VertexId]] = {}
        for a, b in self.pairs:
            byv.setdefault(a, set()).add(b)
            byv.setdefault(b, set()).add(a)
        return {v: frozenset(s) for v, s in byv.items()}

    def partners(self, v: VertexId) -> frozenset[VertexId]:
        return self._partners.get(v, frozenset())

    @property
    def size(self) -> int:
        return len(self.pairs)


def _vertex_pair(e) -> bool:
    """Whether e is a pair of vertex ids, which sorts with other such pairs."""
    return isinstance(e, tuple) and list(map(type, e)) == [VertexId, VertexId]


def _vertex_order(v) -> tuple:
    """A sort key that keeps vertex ids as they are, in their own order, and
    puts anything else after them, by its repr, so that a mix sorts the same
    under every hash seed instead of raising TypeError.  A vertex id is its
    own key, so a list of them sorts almost as fast as without a key."""
    return v if isinstance(v, VertexId) else (Side.B, math.inf, repr(v))


def check_matching(inst: Instance, m: Matching) -> None:
    """Raise MatchingError unless every pair is an edge and no upper quota
    is exceeded.

    Of several bad pairs the least is reported, so the message does not
    depend on the hash seed.  An entry that is no pair of vertex ids does
    not sort with the others, so when there is one the message names no
    pair.  m remembers the instance it last passed with, and a repeat check
    against that same object returns at once.
    """
    if _passed(m, inst):
        return
    # Every edge of the instance is an (A-vertex, B-vertex) pair, so this
    # one difference also holds every pair on the wrong sides, and every
    # entry that is no pair of vertex ids.  Only the latter do not sort.
    stray = m.pairs - inst.edges
    if stray:
        if all(map(_vertex_pair, stray)):
            a, b = min(stray)
            if a.side is Side.A and b.side is Side.B:
                raise MatchingError(
                    f"({inst.label(a)}, {inst.label(b)}) is not an edge of the instance"
                )
        raise MatchingError("matching pairs must be (A-vertex, B-vertex)")
    for v in inst.all_vertices():
        if len(m.partners(v)) > inst.upper(v):
            raise MatchingError(
                f"{inst.name(v)} is matched above its upper quota {inst.upper(v)}"
            )
    _pass(m, inst)


@dataclass(frozen=True)
class DeficiencyReport:
    per_vertex: Mapping[VertexId, int]
    total_a: int
    total_b: int

    @property
    def total(self) -> int:
        return self.total_a + self.total_b


def deficiency(inst: Instance, m: Matching) -> DeficiencyReport:
    """Per-vertex shortfall below the lower quotas, with per-side totals."""
    check_matching(inst, m)
    per_vertex = {}
    totals = {Side.A: 0, Side.B: 0}
    for v in inst.all_vertices():
        short = shortfall(inst.lower(v), len(m.partners(v)))
        per_vertex[v] = short
        totals[v.side] += short
    return DeficiencyReport(per_vertex, totals[Side.A], totals[Side.B])


def shortfall(lower: int, held: int) -> int:
    """How far a vertex holding ``held`` partners falls below its lower
    quota ``lower``: the one place a vertex's deficiency is computed."""
    return max(0, lower - held)


def blocking_pairs(inst: Instance, m: Matching) -> list[Edge]:
    """Edges outside m whose both endpoints would rather use them.

    A vertex wants the new edge when it has spare upper-quota room or
    prefers the other endpoint to one of its current partners.
    """
    check_matching(inst, m)
    out = []
    for a, b in sorted(inst.edges):
        if (a, b) in m.pairs:
            continue
        if _prefers_new(inst, m, a, b) and _prefers_new(inst, m, b, a):
            out.append((a, b))
    return out


def _prefers_new(inst: Instance, m: Matching, v: VertexId, u: VertexId) -> bool:
    mine = m.partners(v)
    if len(mine) < inst.upper(v):
        return True
    r = inst.rank(v, u)
    return any(inst.rank(v, w) > r for w in mine)


# The rank of bottom, or of any artificial partner: every real partner
# beats it.
_UNRANKED = math.inf


def _rank_vote(held: float, offered: float) -> int:
    """A vertex's vote for a partner of rank ``offered`` against one of rank
    ``held``: 1 for the better, -1 for the worse, 0 for the same rank
    (the same partner, or bottom on both sides)."""
    return (offered < held) - (held < offered)


def vote(
    inst: Instance, v: VertexId, x: Optional[VertexId], y: Optional[VertexId]
) -> int:
    """How v compares partner x against partner y: +1, 0 or -1.

    ``None`` stands for the bottom symbol; every real partner beats it.
    Raises ValueError when a real argument is not acceptable to v.
    """
    rx = _UNRANKED if x is None else inst.rank(v, x)
    ry = _UNRANKED if y is None else inst.rank(v, y)
    return _rank_vote(ry, rx)


@dataclass(frozen=True, eq=True)
class Correspondence:
    """Per-vertex bijection pairs between two padded partner-set differences.

    ``pairs[v]`` lists (x, y) with x drawn from M(v) minus N(v) plus bottom
    and y from N(v) minus M(v) plus bottom, for the matching pair (M, N) the
    correspondence was built for.  Every real difference member appears
    exactly once, and only the smaller difference is padded: bottoms on the
    x side number max(0, |N(v)| - |M(v)|) exactly, and symmetrically on the
    y side, so no pair is bottom on both sides.  Each side is thus, as a
    multiset, that side of ``_padded_difference(M(v), N(v))``, the one
    place this rule is stated.  Vertices with identical partner sets may be
    omitted.

    ``pairs`` is stored as a read-only copy (a ``MappingProxyType`` of
    per-vertex tuples of pair tuples), so a correspondence that passed
    ``validate_correspondence`` stays valid for those arguments, and a
    later change to the mapping passed in does not reach it.
    """

    pairs: Mapping[VertexId, tuple[CorrPair, ...]]

    def __post_init__(self) -> None:
        frozen = {v: tuple(map(tuple, listed)) for v, listed in self.pairs.items()}
        object.__setattr__(self, "pairs", MappingProxyType(frozen))

    def __reduce__(self):
        # A copy is built afresh: neither the weak references of _pass nor
        # a mappingproxy can be pickled.
        return Correspondence, (dict(self.pairs),)


def _padded_difference(
    mine: frozenset[VertexId],
    theirs: frozenset[VertexId],
    rank: Optional[Callable[[VertexId], int]] = None,
) -> tuple[list, list]:
    """The partners only in mine and those only in theirs, each list sorted,
    with the shorter list padded at its end with bottoms: the one place the
    padding rule of a correspondence is stated.  Given ``rank``, the lists
    hold the partners' ranks instead, so they run best first."""
    ours, others = mine - theirs, theirs - mine
    if rank is not None:
        ours, others = map(rank, ours), map(rank, others)
    ours, others = sorted(ours), sorted(others)
    size = max(len(ours), len(others))
    return ours + [None] * (size - len(ours)), others + [None] * (size - len(others))


def validate_correspondence(
    inst: Instance, m: Matching, n: Matching, corr: Correspondence
) -> None:
    """Raise ValueError unless corr is a correspondence for (m, n).

    Each side of v's pairs must hold, as a multiset, exactly that side of
    v's padded partner-set difference: the same real partners, each once,
    and the same number of bottoms.  Bottoms pad only the shorter side, so
    no (bottom, bottom) pair passes.  Unknown vertices are listed sorted,
    and a pair of other than two entries is named by its vertex.
    corr remembers the (inst, m, n) it last passed with, and a repeat check
    with those same objects returns at once.
    """
    if _passed(corr, inst, m, n):
        return
    unknown = set(corr.pairs) - set(inst.all_vertices())
    if unknown:
        names = ", ".join(map(repr, sorted(unknown, key=_vertex_order)))
        raise ValueError(f"correspondence mentions unknown vertices: {{{names}}}")
    for v in inst.all_vertices():
        listed = corr.pairs.get(v, ())
        for pair in listed:
            if len(pair) != 2:
                raise ValueError(
                    f"correspondence at {inst.name(v)} lists a pair of "
                    f"{len(pair)} entries; each pair must be (x, y)"
                )
        reals = (
            sorted([x for x, _ in listed if x is not None], key=_vertex_order),
            sorted([y for _, y in listed if y is not None], key=_vertex_order),
        )
        padded = _padded_difference(m.partners(v), n.partners(v))
        for side, real, want in zip("xy", reals, padded):
            # This side as the helper lists it: sorted, bottoms last.
            if real + [None] * (len(listed) - len(real)) != want:
                raise ValueError(
                    f"correspondence at {inst.name(v)} does not list the {side} "
                    f"side of its partner-set difference exactly once, with "
                    f"bottoms padding only the shorter side"
                )
    _pass(corr, inst, m, n)


def delta(inst: Instance, m: Matching, n: Matching, corr: Correspondence) -> int:
    """Total vote for m over n under the given correspondence."""
    check_matching(inst, m)
    check_matching(inst, n)
    validate_correspondence(inst, m, n, corr)
    total = 0
    for v, listed in corr.pairs.items():
        for x, y in listed:
            total += vote(inst, v, x, y)
    return total


def max_delta(inst: Instance, m: Matching, n: Matching) -> int:
    """Maximum of delta(n, m, corr) over every correspondence.

    m is popular against n exactly when the result is at most zero.  The
    maximum decomposes per vertex because a correspondence is a disjoint
    union of per-vertex bijections.
    """
    check_matching(inst, m)
    check_matching(inst, n)
    total = 0
    for v in inst.all_vertices():
        total += vertex_gain(inst, v, n.partners(v), m.partners(v))
    return total


def vertex_gain(
    inst: Instance,
    v: VertexId,
    new_side: frozenset[VertexId],
    old_side: frozenset[VertexId],
) -> int:
    """Best vote total v can cast for partner set new_side over old_side.

    The two partner-set differences are ranked and padded by
    ``_padded_difference``: a vertex gaining positions plays the surplus new
    partners against bottom, a vertex losing positions plays bottom against
    the departed ones, and no bottom-versus-bottom pairs exist.  Both lists
    run best first with bottoms last.  Taking the lost partners best first,
    each is beaten by the best gained partner left if by any, and pairing
    the two leaves the rest free for the worse lost partners that follow,
    which yields the most wins over all bijections.
    """
    gained, lost = _padded_difference(new_side, old_side, partial(inst.rank, v))
    wins = 0
    for r in lost:
        g = gained[wins]
        if g is not None and (r is None or g < r):
            wins += 1
    return 2 * wins - len(gained)


def random_correspondence(
    inst: Instance, m: Matching, n: Matching, rng
) -> Correspondence:
    """A uniformly shuffled correspondence for (m, n), driven by rng.
    Raises MatchingError unless both matchings pass ``check_matching``."""
    check_matching(inst, m)
    check_matching(inst, n)
    out: dict[VertexId, tuple[CorrPair, ...]] = {}
    for v in inst.all_vertices():
        rows, cols = _padded_difference(m.partners(v), n.partners(v))
        if not rows:
            continue
        rng.shuffle(cols)
        out[v] = tuple(zip(rows, cols))
    return Correspondence(out)


def parse_matching(inst: Instance, text: str) -> Matching:
    """Parse lines of ``<a-name> <b-name>`` into a matching.

    ``#`` starts a comment.  The parser reads only syntax and names: it
    raises MatchingError with the number of the first line that does not
    hold two names, names an unknown vertex or repeats a pair.  The pairs
    are then held to ``check_matching``'s rules, whose message names no
    line: a pair in the wrong side order, a non-edge, or an upper quota
    exceeded.
    """
    pairs: set[Edge] = set()
    for lineno, tokens in _records(text):
        if len(tokens) != 2:
            raise MatchingError(f"line {lineno}: expected '<a-name> <b-name>'")
        try:
            pair = inst.name_to_id[tokens[0]], inst.name_to_id[tokens[1]]
        except KeyError as missing:
            raise MatchingError(f"line {lineno}: unknown vertex {missing.args[0]}") from None
        if pair in pairs:
            raise MatchingError(f"line {lineno}: duplicate pair")
        pairs.add(pair)
    m = Matching(frozenset(pairs))
    check_matching(inst, m)
    return m


def serialize_matching(inst: Instance, m: Matching) -> str:
    """Render a matching in the format accepted by parse_matching.  Raises
    MatchingError unless m passes ``check_matching``."""
    check_matching(inst, m)
    lines = [
        f"{inst.name(a)} {inst.name(b)}" for a, b in sorted(m.pairs)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
