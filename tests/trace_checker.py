"""A replay of a trace CSV against the proposal rules.

``check_trace`` reads the rows that ``trace_to_csv`` wrote and checks each
one from the instance, the run's t (``Trace.t``, which a capped run
shortens) and the matching the earlier rows built, without calling the
solver:

- the receiver is the next entry of the proposer's list at that level, and
  below level t that list holds only lower-quota receivers;
- ``c_a`` is the proposer's upper quota through level t + 1 and its lower
  quota above;
- ``c_b`` is the receiver's lower quota below level t or while it holds a
  partner below level t, and its upper quota otherwise;
- the ``rejected`` column is what the receiver's rule gives: nothing for an
  accept or a lift, its worst copy (lowest level, then worst rank) when a
  full receiver takes the proposer, the proposer itself otherwise;
- ``matching_size`` is the replayed matching's size;
- a proposer left with spare capacity and more receivers at its level
  proposes again at that level next.
"""

from __future__ import annotations

from popcrit import Instance, Side, VertexId, read_trace_csv

OUTCOMES = (
    "free_accept",
    "evict_worst",
    "level_beats_rank",
    "reject_worse",
    "lift",
    "shrunk_rejection",
    "spare_requeue",
)


def check_trace(
    inst: Instance, text: str, t: int
) -> tuple[list[tuple[str, ...]], dict[tuple[VertexId, VertexId], int]]:
    """Replay the trace of a run whose sub-t race ends at level t; return
    the outcomes of OUTCOMES each row shows and the leveled matching the
    rows end with.  Raises AssertionError at the first row that breaks a
    rule."""
    ids = inst.name_to_id
    # Each matched edge's level, under both of its endpoints.
    partners: dict[VertexId, dict[VertexId, int]] = {
        v: {} for v in inst.all_vertices()
    }
    cursors: dict[tuple[VertexId, int], int] = {}
    resume: dict[VertexId, int] = {}
    size = 0
    outcomes: list[tuple[str, ...]] = []

    def bond(a: VertexId, b: VertexId, level: int) -> None:
        partners[a][b] = partners[b][a] = level

    for seq, a_name, level, c_a, b_name, c_b, rejected, matching_size in read_trace_csv(text):
        where = f"row {seq}"
        a, b = ids[a_name], ids[b_name]
        level, c_a, c_b = int(level), int(c_a), int(c_b)

        if a in resume:
            assert level == resume.pop(a), f"{where}: {a_name} left its level"
        options = inst.pref(a)
        if level < t:
            options = tuple(u for u in options if inst.lower(u) > 0)
        pos = cursors.get((a, level), 0)
        assert pos < len(options) and options[pos] == b, (
            f"{where}: {a_name} at level {level} proposes out of order"
        )
        cursors[(a, level)] = pos + 1

        assert c_a == (inst.upper(a) if level <= t + 1 else inst.lower(a)), (
            f"{where}: c_a"
        )
        held = partners[b]
        capped = level < t or any(x < t for x in held.values())
        assert c_b == (inst.lower(b) if capped else inst.upper(b)), f"{where}: c_b"

        loser = None
        if a in held:
            assert held[a] < level, f"{where}: repeat proposal at level {level}"
            outcome = "lift"
            bond(a, b, level)
        elif len(held) < c_b:
            outcome = "free_accept"
            bond(a, b, level)
            size += 1
        elif len(held) == c_b:
            worst = min(held, key=lambda x: (held[x], -inst.rank(b, x)))
            worst_level = held[worst]
            if level > worst_level or (
                level == worst_level and inst.rank(b, a) < inst.rank(b, worst)
            ):
                outcome = (
                    "level_beats_rank"
                    if inst.rank(b, a) > inst.rank(b, worst)
                    else "evict_worst"
                )
                del partners[worst][b], held[worst]
                bond(a, b, level)
                loser = (worst, worst_level)
            else:
                outcome = "reject_worse"
                loser = (a, level)
        else:
            outcome = "shrunk_rejection"
            loser = (a, level)
        expected = "-" if loser is None else f"{inst.name(loser[0])}^{loser[1]}"
        assert rejected == expected, f"{where}: rejected {rejected}, expected {expected}"
        assert int(matching_size) == size, f"{where}: matching_size"

        if len(partners[a]) < c_a and pos + 1 < len(options):
            outcomes.append((outcome, "spare_requeue"))
            resume[a] = level
        else:
            outcomes.append((outcome,))

    levels = {
        (a, b): level
        for a in inst.vertices(Side.A)
        for b, level in partners[a].items()
    }
    return outcomes, levels
