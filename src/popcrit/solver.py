"""Level-based proposal algorithm for popular critical matchings.

Vertices on side A propose in rounds, carrying a level from 0 up to
top = s + t + 1 where s and t are the total lower quotas of sides A and B,
or those totals capped at ``cap`` in a shortened run (see ``solve``).  A
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
order.  It is the one place that derives the level range from the quotas
and the cap: the run carries it, as ``LeveledMatching.t`` and
``LeveledMatching.top`` and as ``Trace.t``, and the trace renderer, the
property check and the certificate read it from there.  The paper's
guarantees hold at the paper's range; ``popcrit solve`` runs short ranges
first and keeps the first answer its certificate proves.  It works on
plain int vertex indices: it builds per-side quota, preference and rank
tables once per call and keeps a per-receiver count of partners below
level t, so each proposal costs O(1) apart from choosing the receiver's
worst partner when it is full.  A proposer climbs only once its list at
its level is used up, and one level at a time from 0, so below its peak
level every list of its is used up: it keeps one cursor, at its peak, and
a copy evicted below the peak re-enters there and climbs back without
proposing.  The queue holds bare proposer indices; each proposer's peak,
cursor and queued level are three lists indexed by proposer.  Each
proposal appends one row of ``_WIDTH`` ints, packed by ``_ROW`` into 56
bytes, to one ``bytearray``; the row stores no quota, only what the quotas
are read from (the level, and whether the receiver offered its lower or
its upper quota).  The trace holds a read-only ``memoryview`` of that
buffer cast to ints, so the record is never copied.  The upper-quota
invariant is checked after each proposal the receiver accepts, the only
kind that can raise a count.  ``Trace.events`` decodes the record into
``ProposalEvent``s on first access.  ``_csv_blocks`` renders it as CSV
without decoding it, naming the vertices of the trace's own instance
``Trace.inst``, so a trace cannot be rendered against another instance.
``validate_instance`` refuses a name that holds a comma, a double quote or
whitespace, so every name is written bare, as ``csv.writer`` would write
it.  The renderer yields the header and the rows of each block of
``_CHUNK`` proposals, taking each column of a block as one strided slice
and joining one f-string per row.  ``trace_to_csv`` joins those pieces,
and ``popcrit trace`` reads them back one block at a time.  The trace is
deterministic: equal instances give byte-identical trace CSVs.

Every trace CSV is read through ``_trace_rows``, which checks the header
and reports a CSV error as ValueError: ``read_trace_csv`` reads a text
with it, and ``popcrit trace`` a recorded file and a fresh trace.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from struct import Struct
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .matchings import Matching, check_matching
from .model import Edge, Instance, Side, VertexId

# A rejected copy is a (vertex, level) pair; None means nothing was
# rejected by the proposal.
Rejection = Optional[tuple[VertexId, int]]

# One proposal is a row of the trace record: proposer index, level,
# receiver index, 1 if the receiver offered its upper quota (0 for its
# lower quota), rejected A index (-1 for none), the rejected copy's level
# and the matching size just after the proposal.
_WIDTH = 7
# The row as native 8-byte ints, as ``memoryview.cast("q")`` reads it.
_ROW = Struct(f"{_WIDTH}q")


class InvariantError(RuntimeError):
    """Raised when the solver or the certificate breaks one of its own
    invariants; this is a bug in popcrit, never a property of the input."""


@dataclass(frozen=True)
class LeveledMatching:
    """The level at which each matched edge was formed and the highest
    level each A-vertex reached during the run; the matching is the set of
    leveled edges.  ``t`` and ``top`` are the run's level range: t, the
    total lower quota of side B or that total capped, is where the sub-t
    race ends, and top = s + t + 1, with s side A's total, capped alike,
    is the highest level a proposer can reach."""

    levels: Mapping[Edge, int]
    max_level: Mapping[VertexId, int]
    t: int
    top: int

    @cached_property
    def matching(self) -> Matching:
        return Matching(frozenset(self.levels))


class ProposalEvent(NamedTuple):
    proposer: VertexId
    level: int
    receiver: VertexId
    rejected: Rejection
    # Number of matched edges just after this proposal.
    matching_size: int


@dataclass(frozen=True)
class Trace:
    """Every proposal of one run, as ``_WIDTH`` ints per row of
    ``record``, in the order they were made.  ``record`` is a read-only
    ``memoryview`` of format ``q``; it indexes, slices and iterates like a
    flat sequence of ints, but cannot be pickled.  ``t`` is the run's
    ``LeveledMatching.t``, the capped one in a shortened run, which sets
    each row's ``c_a``."""

    inst: Instance
    record: memoryview
    t: int

    @property
    def proposal_count(self) -> int:
        return len(self.record) // _WIDTH

    @cached_property
    def events(self) -> tuple[ProposalEvent, ...]:
        """The record as ProposalEvents, decoded on first access."""
        a_ids = list(self.inst.vertices(Side.A))
        b_ids = list(self.inst.vertices(Side.B))
        it = iter(self.record)
        return tuple(
            ProposalEvent(
                a_ids[a], level, b_ids[b],
                None if rej < 0 else (a_ids[rej], rej_level), size,
            )
            for a, level, b, _, rej, rej_level, size in zip(*[it] * _WIDTH)
        )


def solve(inst: Instance, cap: Optional[int] = None) -> tuple[LeveledMatching, Trace]:
    """Run the proposal algorithm and return its matching with the trace.

    The level range is the paper's, s and t the total lower quotas of sides
    A and B, unless ``cap`` shortens it to s' = min(s, cap) and t' =
    min(t, cap); the run carries the range it used.  At the paper's range
    the output deficiency is minimum over all matchings and the matching is
    popular among, and largest among popular ones within, the minimum
    deficiency matchings.  A capped run is the same algorithm on fewer
    levels, and carries no such guarantee: its certificate must prove it.
    The number of proposals is bounded by (top + 1) * |E|, top = s' + t' +
    1 being the highest level.  Raises TypeError for a cap that is not an
    int, and ValueError for a negative one.
    """
    if not isinstance(cap, (int, type(None))):
        raise TypeError(f"cap must be an int or None, not {type(cap).__name__}")
    if cap is not None and cap < 0:
        raise ValueError("cap must be at least 0")
    a_names, b_names = inst.a_names, inst.b_names
    n_a, n_b = len(a_names), len(b_names)
    a_lower = [q.lower for q in inst.a_quotas]
    a_upper = [q.upper for q in inst.a_quotas]
    b_lower = [q.lower for q in inst.b_quotas]
    b_upper = [q.upper for q in inst.b_quotas]
    a_pref = [tuple(b.index for b in p) for p in inst.a_prefs]
    a_pref_lq = [tuple(b for b in p if b_lower[b] > 0) for p in a_pref]
    b_rank = [{a.index: r for r, a in enumerate(p)} for p in inst.b_prefs]
    s, t = sum(a_lower), sum(b_lower)
    if cap is not None:
        s, t = min(s, cap), min(t, cap)
    top = s + t + 1
    budget = (top + 1) * len(inst.edges)

    # Each matched edge's level, under both of its endpoints, and the
    # number of each receiver's partners held below level t.
    a_held: list[dict[int, int]] = [{} for _ in range(n_a)]
    b_held: list[dict[int, int]] = [{} for _ in range(n_b)]
    b_low = [0] * n_b
    size = 0
    # Per proposer: its peak level, its cursor into its list at that
    # level, and the level it is queued at (-1 while it is not queued; it
    # is queued at most once).  A proposer climbs only once its list at
    # its level is used up, so below its peak every list is used up and
    # one cursor serves.  A vertex without capacity never proposes.
    max_level = [0] * n_a
    cursors = [0] * n_a
    at = [0 if q > 0 else -1 for q in a_upper]
    queue = deque(a for a in range(n_a) if at[a] == 0)
    record = bytearray()
    pack = _ROW.pack
    count = 0

    while queue:
        a = queue.popleft()
        level, at[a] = at[a], -1
        options = a_pref_lq[a] if level < t else a_pref[a]
        cursor = cursors[a] if level == max_level[a] else len(options)
        if cursor < len(options):
            cursors[a] = cursor + 1
            b = options[cursor]
            mine, held = a_held[a], b_held[b]
            if level < t or b_low[b]:
                upper_b, q_b = 0, b_lower[b]
            else:
                upper_b, q_b = 1, b_upper[b]
            rej, rej_level = -1, 0
            existing = held.get(a)
            if existing is not None:
                # The cursor discipline makes a repeat proposal to a
                # partner at the same or higher level impossible.
                if existing >= level:
                    raise InvariantError(
                        f"{a_names[a]} proposed to {b_names[b]} again at level "
                        f"{level}, already matched at level {existing}"
                    )
                # A repeat proposal from a higher level lifts the edge.
                held[a] = mine[b] = level
                if existing < t <= level:
                    b_low[b] -= 1
            elif len(held) < q_b:
                held[a] = mine[b] = level
                size += 1
                if level < t:
                    b_low[b] += 1
            elif len(held) == q_b > 0:
                # b's least preferred copy: lowest level first, then worst
                # position in b's own order.
                rank = b_rank[b]
                worst, worst_level, worst_rank = -1, 0, 0
                for x, x_level in held.items():
                    if worst < 0 or x_level < worst_level or (
                        x_level == worst_level and rank[x] > worst_rank
                    ):
                        worst, worst_level, worst_rank = x, x_level, rank[x]
                if level > worst_level or (
                    level == worst_level and rank[a] < worst_rank
                ):
                    del held[worst]
                    del a_held[worst][b]
                    held[a] = mine[b] = level
                    b_low[b] += (level < t) - (worst_level < t)
                    rej, rej_level = worst, worst_level
                    # The evicted copy re-enters at the level it held.
                    if at[worst] < 0:
                        queue.append(worst)
                        at[worst] = worst_level
                else:
                    rej, rej_level = a, level
            else:
                # b has no capacity, or is already above this proposal's
                # capacity (it shrank since those partners were accepted).
                rej, rej_level = a, level
            q_a = a_upper[a] if level <= t + 1 else a_lower[a]
            # a is not queued: an eviction only requeues a copy b held.
            if len(mine) < q_a:
                queue.append(a)
                at[a] = level
            count += 1
            if count > budget:
                raise InvariantError(f"proposal budget {budget} exceeded")
            # Only an accepted proposal can raise either count.
            if rej != a and (len(mine) > a_upper[a] or len(held) > b_upper[b]):
                raise InvariantError(
                    f"{a_names[a]} or {b_names[b]} is over its upper quota"
                )
            record += pack(a, level, b, upper_b, rej, rej_level, size)
        elif level <= t or (level < top and len(a_held[a]) < a_lower[a]):
            queue.append(a)
            at[a] = level + 1
            if level == max_level[a]:
                max_level[a], cursors[a] = level + 1, 0

    a_ids = list(inst.vertices(Side.A))
    b_ids = list(inst.vertices(Side.B))
    levels = {
        (a_ids[a], b_ids[b]): level
        for a in range(n_a)
        for b, level in a_held[a].items()
    }
    leveled = LeveledMatching(levels, dict(zip(a_ids, max_level)), t, top)
    return leveled, Trace(inst, memoryview(record).toreadonly().cast("q"), t)


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

    t and the top level are the run's, ``leveled.t`` and ``leveled.top``.
    Returns human-readable violation strings, empty when all hold.  Raises
    MatchingError first unless the matching passes ``check_matching``.
    """
    t, top = leveled.t, leveled.top
    m = leveled.matching
    check_matching(inst, m)
    violations = []
    for a, b in sorted(inst.edges - m.pairs):
        name = f"({inst.name(a)}, {inst.name(b)})"
        matched_a = m.partners(a)
        levels_at_b = [leveled.levels[(other, b)] for other in m.partners(b)]
        peak = leveled.max_level.get(a, 0)
        if len(matched_a) > inst.lower(a) and peak > t + 1:
            violations.append(
                f"{name}: surplus proposer climbed to level {peak} past {t + 1}"
            )
        if any(x < t for x in levels_at_b) and len(levels_at_b) > inst.lower(b):
            violations.append(
                f"{name}: receiver with a sub-{t} partner holds more than its "
                f"lower quota"
            )
        if len(matched_a) < inst.upper(a):
            if len(levels_at_b) < inst.upper(b):
                violations.append(
                    f"{name}: proposer under upper quota but receiver not full"
                )
            if any(x < t + 1 for x in levels_at_b):
                violations.append(
                    f"{name}: proposer under upper quota but receiver keeps a "
                    f"copy below level {t + 1}"
                )
        if len(matched_a) < inst.lower(a):
            if len(levels_at_b) < inst.upper(b):
                violations.append(
                    f"{name}: deficient proposer but receiver not full"
                )
            if any(x != top for x in levels_at_b):
                violations.append(
                    f"{name}: deficient proposer but receiver keeps a copy "
                    f"below the top level"
                )
        if peak > 1 and any(x < peak - 1 for x in levels_at_b):
            violations.append(
                f"{name}: receiver keeps a copy more than one level below the "
                f"proposer's peak {peak}"
            )
    return violations


_CSV_COLUMNS = ["seq", "a", "level", "c_a", "b", "c_b", "rejected", "matching_size"]


# Rows per block of _csv_blocks: enough to amortise a block's slices,
# few enough that its row strings stay small next to the output.
_CHUNK = 8192


def _csv_blocks(trace: Trace) -> Iterator[str]:
    """The trace CSV in pieces: the header line, then the rows of each block
    of ``_CHUNK`` proposals, byte for byte as ``csv.writer`` would write
    them for any instance that passes ``validate_instance``.  Its names
    hold no comma, double quote or line break, so ``csv.writer`` quotes no
    cell and each name is written bare.  Names and quotas are read from
    ``trace.inst``, and the level past which ``c_a`` is the lower quota
    from ``trace.t``.

    Cell tables hold per A vertex ``,c_a,`` for either quota and per
    receiver and quota flag ``name,c_b,``.  Each column of a block is one
    strided slice of the record, the ``rejected`` column ``name^level`` is
    built first, and each row is one f-string over the names and tables.
    """
    inst, rec, t = trace.inst, trace.record, trace.t
    a_names = inst.a_names
    # Indexed by ``level > t + 1``: the upper quota through level t + 1.
    c_a_cells = [(f",{q.upper},", f",{q.lower},") for q in inst.a_quotas]
    # Indexed by the record's flag, like the (lower, upper) Quotas pair.
    b_cells = [
        (f"{name},{q.lower},", f"{name},{q.upper},")
        for name, q in zip(inst.b_names, inst.b_quotas)
    ]

    step = _CHUNK * _WIDTH
    yield ",".join(_CSV_COLUMNS) + "\n"
    for lo in range(0, len(rec), step):
        hi = lo + step
        rejected = [
            "-" if rej < 0 else f"{a_names[rej]}^{rej_level}"
            for rej, rej_level in zip(rec[lo + 4:hi:_WIDTH], rec[lo + 5:hi:_WIDTH])
        ]
        yield "".join([
            f"{seq},{a_names[a]},{level}{c_a_cells[a][level > t + 1]}"
            f"{b_cells[b][b_upper]}{rej},{size}\n"
            for seq, a, level, b, b_upper, rej, size in zip(
                range(lo // _WIDTH + 1, hi // _WIDTH + 1),
                rec[lo:hi:_WIDTH], rec[lo + 1:hi:_WIDTH], rec[lo + 2:hi:_WIDTH],
                rec[lo + 3:hi:_WIDTH], rejected, rec[lo + 6:hi:_WIDTH],
            )
        ])


def trace_to_csv(trace: Trace) -> str:
    """Render a trace as CSV with one row per proposal, naming the vertices
    of the instance the trace was solved on.  For any instance that passes
    ``validate_instance``, as for ``solve``, the text is byte for byte what
    ``csv.writer`` would write for the rows."""
    return "".join(_csv_blocks(trace))


def _trace_rows(lines: Iterable[str]) -> Iterator[list[str]]:
    """The rows after the header of the trace CSV made of lines.  A CSV
    error anywhere in the lines is reported before a wrong header; either
    raises ValueError."""
    rows = csv.reader(lines)
    try:
        if next(rows, None) != _CSV_COLUMNS:
            deque(rows, maxlen=0)
            raise ValueError(f"trace header must be {','.join(_CSV_COLUMNS)}")
        yield from rows
    except csv.Error as exc:
        raise ValueError(f"trace is not valid CSV: {exc}") from exc


def read_trace_csv(text: str) -> list[list[str]]:
    """Parse a trace CSV into rows of strings, validating the header."""
    return list(_trace_rows(io.StringIO(text)))
