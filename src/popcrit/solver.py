"""Level-based proposal algorithm for popular critical matchings.

Vertices on side A propose in rounds, carrying a level from 0 up to
s + t + 1 where s and t are the total lower quotas of sides A and B.  A
receiver always prefers a higher-level proposer regardless of its own
preference order; ties in level fall back to the order.  Below level t a
proposer only approaches lower-quota receivers and a receiver caps itself
at its lower quota, which fills the B-side shortfall before the ordinary
proposal rounds begin.  From level t on the full preference list is used,
receivers open up to their upper quota once no matched partner of theirs
sits below level t, and a proposer that is still below its own lower quota
after exhausting its list keeps climbing with its capacity clamped to that
lower quota.

``solve`` runs the algorithm with a FIFO queue seeded in A-declaration
order and returns the leveled matching together with a trace of every
proposal.  The trace is deterministic: equal instances give byte-identical
trace CSVs.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Optional

from .matchings import Matching
from .model import Instance, Side, VertexId

Edge = tuple[VertexId, VertexId]

# A rejected copy is a (vertex, level) pair; None means nothing was
# rejected by the proposal.
Rejection = Optional[tuple[VertexId, int]]


class InvariantError(RuntimeError):
    """Raised when the solver or the certificate breaks one of its own
    invariants; this is a bug in popcrit, never a property of the input."""


@dataclass(frozen=True)
class LeveledMatching:
    """The level at which each matched edge was formed and the highest
    level each A-vertex reached during the run; the matching is the set of
    leveled edges."""

    levels: Mapping[Edge, int]
    max_level: Mapping[VertexId, int]

    @cached_property
    def matching(self) -> Matching:
        return Matching(frozenset(self.levels))


class ProposalEvent(NamedTuple):
    proposer: VertexId
    level: int
    proposer_capacity: int
    receiver: VertexId
    receiver_capacity: int
    rejected: Rejection
    # Number of matched edges just after this proposal.
    matching_size: int


@dataclass(frozen=True)
class Trace:
    events: tuple[ProposalEvent, ...]

    @property
    def proposal_count(self) -> int:
        return len(self.events)


@dataclass
class SolverState:
    """Mutable run state: the queue, per-level proposal cursors and the
    current leveled matching."""

    inst: Instance
    s: int
    t: int
    queue: deque[tuple[VertexId, int]] = field(default_factory=deque)
    queued: set[VertexId] = field(default_factory=set)
    cursors: dict[tuple[VertexId, int], int] = field(default_factory=dict)
    # Each matched edge's level, under both of its endpoints.
    partners: dict[VertexId, dict[VertexId, int]] = field(default_factory=dict)
    size: int = 0
    max_level: dict[VertexId, int] = field(default_factory=dict)
    proposal_count: int = 0

    @staticmethod
    def initial(inst: Instance) -> "SolverState":
        state = SolverState(
            inst=inst,
            s=inst.sum_lower(Side.A),
            t=inst.sum_lower(Side.B),
            partners={v: {} for v in inst.all_vertices()},
        )
        for a in inst.vertices(Side.A):
            state.enqueue(a, 0)
        return state

    def enqueue(self, a: VertexId, level: int) -> None:
        if a in self.queued:
            raise InvariantError(f"{self.inst.name(a)} is already queued")
        self.queue.append((a, level))
        self.queued.add(a)
        if level > self.max_level.get(a, -1):
            self.max_level[a] = level

    def set_edge(self, a: VertexId, level: int, b: VertexId) -> None:
        """Match a and b at the given level, or move their edge to it."""
        if b not in self.partners[a]:
            self.size += 1
        self.partners[a][b] = level
        self.partners[b][a] = level

    def remove_edge(self, a: VertexId, b: VertexId) -> None:
        del self.partners[a][b]
        del self.partners[b][a]
        self.size -= 1


def proposer_capacity(inst: Instance, a: VertexId, level: int) -> int:
    """Capacity of a proposing vertex at the given level.

    The upper quota applies through level t + 1; above that only vertices
    still short of their lower quota keep proposing, capped at it.
    """
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    if not 0 <= level <= s + t + 1:
        raise ValueError(f"level {level} outside 0..{s + t + 1}")
    return inst.upper(a) if level <= t + 1 else inst.lower(a)


def proposal_list(inst: Instance, a: VertexId, level: int) -> tuple[VertexId, ...]:
    """The list a proposes along at the given level: only lower-quota
    neighbors below level t, the full list from t on."""
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    if not 0 <= level <= s + t + 1:
        raise ValueError(f"level {level} outside 0..{s + t + 1}")
    return inst.pref_lq(a) if level < t else inst.pref(a)


def receiver_capacity(
    inst: Instance, state: SolverState, b: VertexId, proposer_level: int
) -> int:
    """Capacity b offers against a proposal from the given level.

    Below level t the lower quota applies.  From level t on, b stays at its
    lower quota while any matched partner sits below level t and opens up
    to its upper quota otherwise.
    """
    if proposer_level < state.t:
        return inst.lower(b)
    if any(x < state.t for x in state.partners[b].values()):
        return inst.lower(b)
    return inst.upper(b)


def _worst_partner(
    inst: Instance, state: SolverState, b: VertexId
) -> tuple[VertexId, int]:
    """b's least preferred matched copy: lowest level first, then worst
    position in b's own order."""
    return min(
        state.partners[b].items(),
        key=lambda item: (item[1], -inst.rank(b, item[0])),
    )


def decide_acc_rej(
    state: SolverState,
    a: VertexId,
    level: int,
    q_a: int,
    b: VertexId,
    q_b: int,
) -> Rejection:
    """One proposal of a at the given level to b under capacities q_a, q_b.

    Mutates the state: the matching is updated, an evicted copy re-enters
    the queue at the level of its removed edge, and the proposer re-enters
    at its current level while it has spare capacity.  Returns the rejected
    copy, which may be the proposer itself, or None.  A receiver already
    matched to the proposer at a lower level simply lifts that edge to the
    proposer's current level.
    """
    inst = state.inst
    rejected: Rejection = None
    held = state.partners[b]
    existing = held.get(a)
    if existing is not None and existing >= level:
        # The cursor discipline makes a repeat proposal to a partner at the
        # same or higher level impossible.
        raise InvariantError(
            f"{inst.name(a)} proposed to {inst.name(b)} again at level "
            f"{level}, already matched at level {existing}"
        )
    if existing is not None or len(held) < q_b:
        state.set_edge(a, level, b)
    elif len(held) == q_b:
        worst_a, worst_level = _worst_partner(inst, state, b)
        if level > worst_level or (
            level == worst_level and inst.rank(b, a) < inst.rank(b, worst_a)
        ):
            state.remove_edge(worst_a, b)
            state.set_edge(a, level, b)
            rejected = (worst_a, worst_level)
            if worst_a not in state.queued:
                state.enqueue(worst_a, worst_level)
        else:
            rejected = (a, level)
    else:
        # b is already above this proposal's capacity (its capacity shrank
        # since those partners were accepted): plain rejection.
        rejected = (a, level)
    if len(state.partners[a]) < q_a and a not in state.queued:
        state.enqueue(a, level)
    return rejected


def solve(inst: Instance) -> tuple[LeveledMatching, Trace]:
    """Run the proposal algorithm and return its matching with the trace.

    The output deficiency is minimum over all matchings and the matching is
    popular among, and largest among popular ones within, the minimum
    deficiency matchings.  The number of proposals is bounded by
    (s + t + 2) * |E|.
    """
    state = SolverState.initial(inst)
    budget = (state.s + state.t + 2) * len(inst.edges)
    events: list[ProposalEvent] = []
    while state.queue:
        a, level = state.queue.popleft()
        state.queued.discard(a)
        options = proposal_list(inst, a, level)
        cursor = state.cursors.get((a, level), 0)
        if cursor < len(options):
            state.cursors[(a, level)] = cursor + 1
            b = options[cursor]
            q_a = proposer_capacity(inst, a, level)
            q_b = receiver_capacity(inst, state, b, level)
            rejected = decide_acc_rej(state, a, level, q_a, b, q_b)
            state.proposal_count += 1
            if state.proposal_count > budget:
                raise InvariantError(f"proposal budget {budget} exceeded")
            if (
                len(state.partners[a]) > inst.upper(a)
                or len(state.partners[b]) > inst.upper(b)
            ):
                raise InvariantError(
                    f"{inst.name(a)} or {inst.name(b)} is over its upper quota"
                )
            events.append(ProposalEvent(a, level, q_a, b, q_b, rejected, state.size))
        elif level < state.t:
            state.enqueue(a, level + 1)
        elif level == state.t or (
            level < state.s + state.t + 1
            and len(state.partners[a]) < inst.lower(a)
        ):
            state.enqueue(a, level + 1)
    levels = {
        (a, b): level
        for a in inst.vertices(Side.A)
        for b, level in state.partners[a].items()
    }
    leveled = LeveledMatching(levels=levels, max_level=dict(state.max_level))
    return leveled, Trace(tuple(events))


def check_output_properties(inst: Instance, leveled: LeveledMatching) -> list[str]:
    """Check the structural guarantees of a solver output.

    For every edge (a, b) of the instance left out of the matching:

    1. if a holds more than its lower quota, a never climbed past t + 1;
    2. if b is matched to any copy below level t, b holds at most its
       lower quota;
    3. if a is below its upper quota, b is full at its upper quota and all
       its matched copies sit at level >= t + 1;
    4. if a is below its lower quota, b is full and all its matched copies
       sit at the top level s + t + 1;
    5. if a reached level x > 1, every matched copy at b sits at level
       >= x - 1.

    Returns human-readable violation strings, empty when all hold.
    """
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    m = leveled.matching
    violations = []
    for a, b in sorted(inst.edges - m.pairs):
        name = f"({inst.name(a)}, {inst.name(b)})"
        matched_a = m.partners(a)
        copies_at_b = [
            (other, leveled.levels[(other, b)]) for other in sorted(m.partners(b))
        ]
        peak = leveled.max_level.get(a, 0)
        if len(matched_a) > inst.lower(a) and peak > t + 1:
            violations.append(
                f"{name}: surplus proposer climbed to level {peak} past {t + 1}"
            )
        if any(x < t for _, x in copies_at_b) and len(copies_at_b) > inst.lower(b):
            violations.append(
                f"{name}: receiver with a sub-{t} partner holds more than its "
                f"lower quota"
            )
        if len(matched_a) < inst.upper(a):
            if len(copies_at_b) < inst.upper(b):
                violations.append(
                    f"{name}: proposer under upper quota but receiver not full"
                )
            if any(x < t + 1 for _, x in copies_at_b):
                violations.append(
                    f"{name}: proposer under upper quota but receiver keeps a "
                    f"copy below level {t + 1}"
                )
        if len(matched_a) < inst.lower(a):
            if len(copies_at_b) < inst.upper(b):
                violations.append(
                    f"{name}: deficient proposer but receiver not full"
                )
            if any(x != s + t + 1 for _, x in copies_at_b):
                violations.append(
                    f"{name}: deficient proposer but receiver keeps a copy "
                    f"below the top level"
                )
        if peak > 1 and any(x < peak - 1 for _, x in copies_at_b):
            violations.append(
                f"{name}: receiver keeps a copy more than one level below the "
                f"proposer's peak {peak}"
            )
    return violations


_CSV_COLUMNS = ["seq", "a", "level", "c_a", "b", "c_b", "rejected", "matching_size"]


def trace_to_csv(inst: Instance, trace: Trace) -> str:
    """Render a trace as CSV with one row per proposal."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for seq, ev in enumerate(trace.events, start=1):
        if ev.rejected is None:
            rejected = "-"
        else:
            rejected = f"{inst.name(ev.rejected[0])}^{ev.rejected[1]}"
        writer.writerow(
            [
                seq,
                inst.name(ev.proposer),
                ev.level,
                ev.proposer_capacity,
                inst.name(ev.receiver),
                ev.receiver_capacity,
                rejected,
                ev.matching_size,
            ]
        )
    return buf.getvalue()


def read_trace_csv(text: str) -> list[list[str]]:
    """Parse a trace CSV into rows of strings, validating the header."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"trace is not valid CSV: {exc}") from exc
    if not rows or rows[0] != _CSV_COLUMNS:
        raise ValueError(f"trace header must be {','.join(_CSV_COLUMNS)}")
    return rows[1:]
