from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popcrit import (
    GenParams,
    Instance,
    InvariantError,
    Quotas,
    Side,
    VertexId,
    check_matching,
    check_output_properties,
    deficiency,
    generate_random_instance,
    parse_instance,
    parse_matching,
    read_trace_csv,
    solve,
    trace_to_csv,
    validate_instance,
)

import popcrit.solver
from popcrit.cli import main
from conftest import DATA, run_python
from reference_trace_csv import reference_trace_csv
from trace_checker import OUTCOMES, check_trace

A = lambda i: VertexId(Side.A, i)
B = lambda i: VertexId(Side.B, i)

# b3 holds a2 and a1 from levels 4 and 5 when a3 proposes to it at level 3,
# below t = 4, where b3 offers only its lower quota 1.
SHRUNK = """\
A a1 2 3
A a2 0 2
A a3 0 2
B b1 3 3
B b2 0 2
B b3 1 3
PREF a1 b3
PREF a2 b3 b2
PREF a3 b1 b3 b2
PREF b1 a3
PREF b2 a2 a3
PREF b3 a3 a2 a1
"""


def replay(inst, cap=None):
    """Solve, at the paper's range or capped, replay the trace against the
    rules and return the rows with the outcome each one shows."""
    leveled, trace = solve(inst, cap=cap)
    text = trace_to_csv(trace)
    outcomes, levels = check_trace(inst, text, trace.t)
    assert levels == leveled.levels
    return list(zip(read_trace_csv(text), outcomes))


def duplicated_edge_instance() -> Instance:
    """a1 lists b1 twice, which parse_instance refuses, so its second
    proposal repeats the first at the same level."""
    return Instance(
        a_names=("a1",),
        b_names=("b1",),
        a_quotas=(Quotas(0, 2),),
        b_quotas=(Quotas(0, 2),),
        a_prefs=((B(0), B(0)),),
        b_prefs=((A(0),),),
    )


# ------------------------------------------------------------ capacity rules


def test_proposer_capacity_switches_to_lower_quota_above_t_plus_one(short_supply):
    # short_supply has s = 4, t = 1
    c_a = {}
    for (_, a, level, cap, *_), _ in replay(short_supply):
        c_a.setdefault(a, {})[int(level)] = int(cap)
    assert c_a["a1"] == {0: 2, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1}
    assert set(c_a["a3"].values()) == {1}


def test_proposal_list_restricted_below_t(short_supply):
    lists = {}
    for (_, a, level, _, b, *_), _ in replay(short_supply):
        lists.setdefault((a, int(level)), []).append(b)
    # b1 carries no lower quota, so it is skipped below level t = 1
    assert lists[("a1", 0)] == ["b2"]
    assert lists[("a1", 1)] == ["b1", "b2"]
    assert lists[("a1", 6)] == ["b1"]


def test_receiver_capacity_depends_on_level_and_partners(short_supply):
    rows = [row for row, _ in replay(short_supply)]
    # below t = 1 b2 offers its lower quota
    assert rows[0][1:6] == ["a1", "0", "2", "b2", "1"]
    # b1 has lower quota 0, so nobody proposes to it below t
    assert all(b != "b1" for _, _, level, _, b, *_ in rows if level == "0")
    # from level t on b2 keeps its lower quota while a3 sits there at
    # level 0, and opens up to its upper quota once a1 evicted it
    assert rows[5][1:7] == ["a1", "1", "2", "b2", "1", "a3^0"]
    assert rows[6][1:6] == ["a2", "1", "2", "b2", "2"]


# ---------------------------------------------------------- accept or reject


def test_accept_into_free_capacity(one_post):
    row, outcome = replay(one_post)[0]
    assert row == ["1", "a1", "0", "1", "b", "3", "-", "1"]
    assert outcome == ("free_accept",)


def test_full_receiver_evicts_its_worst_partner(one_post):
    rows = replay(one_post)
    # b holds a4, a5 and a6 at level 1; a3 ranks above a6 at that level
    assert rows[9] == (["10", "a3", "1", "1", "b", "3", "a6^1", "3"], ("evict_worst",))
    # the evicted copies re-enter the queue at the level they held, in
    # the order they were evicted, and climb from there
    evicted = [row[6] for row, _ in rows[6:9]]
    assert evicted == ["a3^0", "a2^0", "a1^0"]
    assert [(row[1], row[2]) for row, _ in rows[9:12]] == [("a3", "1"), ("a2", "1"), ("a1", "1")]


def test_full_receiver_rejects_a_worse_proposer(one_post):
    row, outcome = replay(one_post)[3]
    assert row == ["4", "a4", "0", "1", "b", "3", "a4^0", "3"]
    assert outcome == ("reject_worse",)


def test_higher_level_beats_better_rank(one_post):
    # a4 ranks below a1, a2 and a3 but proposes from level 1
    row, outcome = replay(one_post)[6]
    assert row == ["7", "a4", "1", "1", "b", "3", "a3^0", "3"]
    assert outcome == ("level_beats_rank",)


def test_repeat_proposal_lifts_the_existing_edge(capacity_switch):
    rows = replay(capacity_switch)
    # a1 won b1 at level 1 and proposes to it again from level 2
    assert rows[7][0][1:7] == ["a1", "1", "3", "b1", "1", "a4^1"]
    assert rows[13] == (
        ["14", "a1", "2", "3", "b1", "1", "-", "3"],
        ("lift", "spare_requeue"),
    )


def test_shrunk_receiver_capacity_gives_plain_rejection():
    rows = replay(parse_instance(SHRUNK))
    # a3 is b3's first choice, but b3 already holds more than c_b
    assert rows[19] == (["20", "a3", "3", "2", "b3", "1", "a3^3", "4"], ("shrunk_rejection",))


def test_proposer_with_spare_capacity_requeues_itself(capacity_switch):
    rows = replay(capacity_switch)
    assert rows[0] == (["1", "a1", "0", "3", "b1", "1", "-", "1"], ("free_accept", "spare_requeue"))
    # a1 keeps proposing at level 0 before it climbs
    assert [row[2] for row, _ in rows if row[1] == "a1"][:2] == ["0", "0"]


def test_trace_replay_sees_every_outcome(short_supply, one_post, capacity_switch):
    seen = Counter()
    instances = [short_supply, one_post, capacity_switch, parse_instance(SHRUNK)]
    instances += [generate_random_instance(GenParams(n_a=6, n_b=6, seed=seed)) for seed in range(60)]
    for inst in instances:
        seen.update(name for _, outcome in replay(inst) for name in outcome)
    assert [name for name in OUTCOMES if not seen[name]] == []


def test_trace_replay_rejects_a_tampered_row(short_supply):
    trace = solve(short_supply)[1]
    lines = trace_to_csv(trace).splitlines()
    assert lines[2] == "2,a2,0,2,b2,1,a2^0,1"
    for column, value in ((3, "1"), (4, "b1"), (5, "2"), (6, "-"), (7, "2")):
        row = lines[2].split(",")
        row[column] = value
        tampered = "\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n"
        with pytest.raises(AssertionError):
            check_trace(short_supply, tampered, trace.t)


def test_repeat_proposal_at_the_same_level_breaks_an_invariant():
    with pytest.raises(InvariantError, match="a1 proposed to b1 again at level 0"):
        solve(duplicated_edge_instance())


def test_invariants_survive_the_optimize_flag():
    # Under -O plain asserts vanish; the solver's checks must not.
    code = (
        "from popcrit import Instance, InvariantError, Quotas, Side, VertexId, solve\n"
        "a1, b1 = VertexId(Side.A, 0), VertexId(Side.B, 0)\n"
        "inst = Instance(('a1',), ('b1',), (Quotas(0, 2),), (Quotas(0, 2),), "
        "((b1, b1),), ((a1,),))\n"
        "try:\n"
        "    solve(inst)\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    assert run_python(code, "-O") == (
        "False a1 proposed to b1 again at level 0, already matched at level 0"
    )


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_upper_quota_invariant_holds_with_and_without_the_optimize_flag(flags):
    # Below t, b1 offers its lower quota 1 and accepts a1, but its upper
    # quota is 0; validate_instance would refuse such quotas.
    code = (
        "from popcrit import Instance, InvariantError, Quotas, Side, VertexId, solve\n"
        "a1, b1 = VertexId(Side.A, 0), VertexId(Side.B, 0)\n"
        "inst = Instance(('a1',), ('b1',), (Quotas(0, 1),), (Quotas(1, 0),), "
        "((b1,),), ((a1,),))\n"
        "try:\n"
        "    solve(inst)\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    assert run_python(code, *flags) == f"{not flags} a1 or b1 is over its upper quota"


def test_record_is_a_read_only_view_of_packed_rows():
    params = GenParams(n_a=150, n_b=150, edge_density=0.015, seed=1)
    inst = generate_random_instance(params)
    tracemalloc.start()
    try:
        trace = solve(inst)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = trace.record
    assert record.readonly
    assert record.format == "q"
    assert record.nbytes == 56 * trace.proposal_count
    assert trace.proposal_count > 20_000
    # Measured peak (Python 3.11): 2.58 MB, of which 1.29 MB is the record.
    # A copy of the record at the end of solve would lift it past 3.8 MB.
    assert peak < 3_200_000


# ------------------------------------------------------------------ full runs


def test_solve_first_reference_instance(short_supply):
    leveled, trace = solve(short_supply)
    assert leveled.matching == parse_matching(short_supply, (DATA / "short_supply_m2.match").read_text())
    assert leveled.levels == {(A(0), B(0)): 6, (A(1), B(1)): 6, (A(2), B(1)): 5}
    assert deficiency(short_supply, leveled.matching).total == 1
    assert trace.proposal_count == 31
    assert check_output_properties(short_supply, leveled) == []


def test_a_capped_run_shortens_the_level_range(short_supply, capacity_switch):
    # short_supply has s = 4 and t = 1, capacity_switch s = 5 and t = 2.
    for inst, cap, (t, top) in (
        (short_supply, 0, (0, 1)),
        (short_supply, 2, (1, 4)),
        (capacity_switch, 1, (1, 3)),
        (capacity_switch, 3, (2, 6)),
    ):
        leveled, trace = solve(inst, cap=cap)
        assert (leveled.t, leveled.top, trace.t) == (t, top, t)
        assert max(leveled.max_level.values()) <= top
        assert trace.proposal_count <= (top + 1) * len(inst.edges)
        assert check_output_properties(inst, leveled) == []
    # At a cap of max(s, t) or more the run is the paper's, byte for byte.
    for inst in (short_supply, capacity_switch):
        paper = solve(inst)
        for cap in (5, 100):
            capped = solve(inst, cap=cap)
            assert capped[0] == paper[0]
            assert trace_to_csv(capped[1]) == trace_to_csv(paper[1])
    with pytest.raises(ValueError, match="^cap must be at least 0$"):
        solve(short_supply, cap=-1)
    # A float cap would run a half-integral level range, and a str cap
    # would fail at its first comparison; both are refused up front.
    for cap, name in ((2.5, "float"), ("2", "str")):
        with pytest.raises(TypeError, match=f"^cap must be an int or None, not {name}$"):
            solve(short_supply, cap=cap)


# Each A vertex's peak level, at the paper's range and at cap 2.
PEAKS = [
    ("short_supply", None, {"a1": 6, "a2": 6, "a3": 5}),
    ("short_supply", 2, {"a1": 4, "a2": 4, "a3": 3}),
    ("capacity_switch", None, {"a1": 4, "a2": 4, "a3": 3, "a4": 2}),
    ("capacity_switch", 2, {"a1": 4, "a2": 4, "a3": 3, "a4": 2}),
]


@pytest.mark.parametrize("name,cap,peaks", PEAKS)
def test_peak_levels_are_stable(name, cap, peaks, request):
    inst = request.getfixturevalue(name)
    leveled, _ = solve(inst, cap=cap)
    assert {inst.name(a): peak for a, peak in leveled.max_level.items()} == peaks


def test_a_proposer_never_proposes_below_its_peak(short_supply, capacity_switch):
    # A proposer climbs only once its list at its level is used up, so it
    # never proposes below a level it has reached; solve keeps one cursor
    # per proposer for that reason.  A copy evicted below its owner's peak
    # re-enters there and climbs back without proposing.
    instances = [short_supply, capacity_switch] + [
        generate_random_instance(GenParams(n_a=6, n_b=6, seed=seed)) for seed in range(300)
    ]
    evicted_below_peak = 0
    for inst in instances:
        for cap in (None, 2):
            leveled, trace = solve(inst, cap=cap)
            text = trace_to_csv(trace)
            check_trace(inst, text, trace.t)
            peak: dict[str, int] = {}
            for _, a, level, _, _, _, rejected, _ in read_trace_csv(text):
                assert int(level) >= peak.get(a, 0)
                peak[a] = int(level)
                owner, _, copy = rejected.partition("^")
                if owner not in ("-", a):
                    evicted_below_peak += int(copy) < peak.get(owner, 0)
            for a, last in peak.items():
                assert leveled.max_level[inst.name_to_id[a]] >= last
    assert evicted_below_peak > 0


def test_trace_replay_follows_a_capped_run(short_supply, capacity_switch):
    # The replay reads where the sub-t race ends from the trace, so a run
    # whose cap shortens t replays as well as the paper's.
    instances = [short_supply, capacity_switch, parse_instance(SHRUNK)]
    instances += [
        generate_random_instance(GenParams(n_a=6, n_b=6, lq_fraction=0.9, seed=seed))
        for seed in range(20)
    ]
    shortened = 0
    for inst in instances:
        for cap in (0, 1, 2):
            assert replay(inst, cap)
            shortened += solve(inst, cap=cap)[1].t < inst.sum_lower(Side.B)
    assert shortened > 40


def test_first_reference_trace_is_stable(short_supply):
    # The reference trace is the one `popcrit solve` writes: the round at
    # cap 2, the first one its certificate proves.
    _, trace = solve(short_supply, cap=2)
    assert trace_to_csv(trace) == (DATA / "short_supply_trace.csv").read_text()


def test_solve_second_reference_instance(capacity_switch):
    leveled, trace = solve(capacity_switch)
    expected = parse_matching(capacity_switch, (DATA / "capacity_switch_m1.match").read_text())
    assert leveled.matching == expected
    assert leveled.matching.size == 6
    assert deficiency(capacity_switch, leveled.matching).total == 0
    assert check_output_properties(capacity_switch, leveled) == []
    s, t = capacity_switch.sum_lower(Side.A), capacity_switch.sum_lower(Side.B)
    assert trace.proposal_count <= (s + t + 2) * len(capacity_switch.edges)


def test_solve_without_edges_returns_empty_matching():
    inst = parse_instance("A a1 1 2\nB b1 1 1\nPREF a1\nPREF b1")
    leveled, trace = solve(inst)
    assert leveled.matching.size == 0
    assert trace.proposal_count == 0


# One planted edit per violation message of check_output_properties: an
# edge's new level (None drops the edge) or a proposer's new peak.  In
# short_supply s = 4 and t = 1; in capacity_switch s = 5 and t = 2.
TAMPERINGS = [
    (
        "capacity_switch", {}, {"a4": 4},
        "(a4, b1): surplus proposer climbed to level 4 past 3",
    ),
    (
        "capacity_switch", {("a2", "b1"): 1}, {},
        "(a4, b1): receiver with a sub-2 partner holds more than its lower quota",
    ),
    (
        "capacity_switch", {("a1", "b3"): None}, {},
        "(a2, b3): proposer under upper quota but receiver not full",
    ),
    (
        "capacity_switch", {("a2", "b2"): 2}, {},
        "(a3, b2): proposer under upper quota but receiver keeps a copy below level 3",
    ),
    (
        "short_supply", {("a1", "b1"): None}, {},
        "(a2, b1): deficient proposer but receiver not full",
    ),
    (
        "short_supply", {("a1", "b1"): 5}, {},
        "(a2, b1): deficient proposer but receiver keeps a copy below the top level",
    ),
    (
        "short_supply", {}, {"a1": 7},
        "(a1, b2): receiver keeps a copy more than one level below the proposer's peak 7",
    ),
]


def test_output_property_check_flags_tampering(short_supply, capacity_switch):
    instances = {"short_supply": short_supply, "capacity_switch": capacity_switch}
    for fixture, levels, peaks, message in TAMPERINGS:
        inst = instances[fixture]
        ids = inst.name_to_id
        leveled, _ = solve(inst)
        assert check_output_properties(inst, leveled) == []
        edited = dict(leveled.levels)
        for (a, b), level in levels.items():
            if level is None:
                del edited[(ids[a], ids[b])]
            else:
                edited[(ids[a], ids[b])] = level
        max_level = dict(leveled.max_level)
        max_level.update((ids[a], peak) for a, peak in peaks.items())
        tampered = dataclasses.replace(leveled, levels=edited, max_level=max_level)
        assert message in check_output_properties(inst, tampered), message


def test_trace_round_trip(capacity_switch, tmp_path, capsys):
    _, trace = solve(capacity_switch)
    text = trace_to_csv(trace)
    rows = read_trace_csv(text)
    assert len(rows) == trace.proposal_count
    assert rows[0][0] == "1"
    assert read_trace_csv(text) == rows
    bad = "seq,a,b\n1,x,y\n"
    with pytest.raises(ValueError, match="header") as exc:
        read_trace_csv(bad)
    # popcrit trace reads a recording through the same reader.
    (tmp_path / "bad.csv").write_text(bad)
    assert main(["trace", str(DATA / "capacity_switch.inst"), str(tmp_path / "bad.csv")]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


# Names that look special in a trace CSV yet are legal, so csv.writer
# writes them bare: the rejected column's `-` and `^`, a header word, a
# quote csv does not use, a non-ASCII letter, the certificate report's
# prefixes without their dot, a backslash, a semicolon and a digit.
SPECIAL_NAMES = ("-", "^", "x^", "x^1", "seq", "'", "é", "lr", "dummy", "\\", ";", "1")


def with_special_names(inst: Instance) -> Instance:
    """inst with its first vertices renamed to SPECIAL_NAMES; side B takes
    each name twice over, so that no name is declared on both sides."""

    def rename(names, prefix, repeat):
        return tuple(
            SPECIAL_NAMES[i] * repeat if i < len(SPECIAL_NAMES) else f"{prefix}{i}"
            for i in range(len(names))
        )

    named = dataclasses.replace(
        inst, a_names=rename(inst.a_names, "a", 1), b_names=rename(inst.b_names, "b", 2)
    )
    assert validate_instance(named) == []
    return named


def test_trace_csv_matches_the_row_by_row_reference(short_supply, one_post, capacity_switch):
    instances = [short_supply, one_post, capacity_switch, parse_instance(SHRUNK)]
    instances += [
        generate_random_instance(GenParams(n_a=n, n_b=n + 1, max_upper=3, seed=seed))
        for seed, n in enumerate([1, 2, 3, 4, 6, 8, 10, 12] * 5)
    ]
    instances += [parse_instance("A a1 1 2\nB b1 1 1\nPREF a1\nPREF b1")]
    caret_rejections = 0
    for inst in instances:
        for named in (inst, with_special_names(inst)):
            trace = solve(named)[1]
            text = trace_to_csv(trace)
            assert text == reference_trace_csv(named, trace)
            caret_rejections += sum(
                "^" in row[6].rpartition("^")[0] for row in read_trace_csv(text)
            )
    # A rejected copy of a name holding a caret was rendered.
    assert caret_rejections > 0


def test_trace_csv_longer_than_two_blocks_matches_the_reference():
    params = GenParams(n_a=50, n_b=50, edge_density=0.3, seed=1)
    inst = with_special_names(generate_random_instance(params))
    trace = solve(inst)[1]
    assert trace.proposal_count > 2 * popcrit.solver._CHUNK
    assert trace.proposal_count % popcrit.solver._CHUNK != 0
    assert trace_to_csv(trace) == reference_trace_csv(inst, trace)


def test_matching_size_moves_by_one_edge_per_proposal():
    # One proposal adds at most one edge: an accepted proposal may evict
    # another, but a rejection or a lift leaves the size unchanged.
    for seed in range(300):
        inst = generate_random_instance(GenParams(n_a=6, n_b=6, seed=seed))
        leveled, trace = solve(inst)
        sizes = [0] + [ev.matching_size for ev in trace.events]
        assert all(after - before in (0, 1) for before, after in zip(sizes, sizes[1:]))
        assert sizes[-1] == leveled.matching.size


def test_solve_is_deterministic(capacity_switch):
    first = trace_to_csv(solve(capacity_switch)[1])
    second = trace_to_csv(solve(capacity_switch)[1])
    assert first == second


class _LifoQueue(deque):
    """A deque whose popleft pops from the right: the solver's FIFO queue
    becomes a LIFO stack."""

    def popleft(self):
        return self.pop()


def test_outcome_does_not_depend_on_the_queue_order(
    monkeypatch, short_supply, capacity_switch, one_post
):
    # Deferred acceptance is order-independent; so, observed here, is the
    # leveled variant: the queue order moves only the trace's row order.
    instances = [short_supply, capacity_switch, one_post] + [
        generate_random_instance(GenParams(n_a=6, n_b=6, seed=seed)) for seed in range(300)
    ]

    def outcome(inst):
        leveled, trace = solve(inst)
        proposals = Counter((ev.proposer, ev.level, ev.receiver) for ev in trace.events)
        return leveled.levels, leveled.max_level, proposals, trace_to_csv(trace)

    fifo = [outcome(inst) for inst in instances]
    monkeypatch.setattr(popcrit.solver, "deque", _LifoQueue)
    lifo = [outcome(inst) for inst in instances]
    assert [run[:3] for run in lifo] == [run[:3] for run in fifo]
    # The stack really changed the order in which proposals were made.
    assert any(stack[3] != queue[3] for stack, queue in zip(lifo, fifo))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_solver_output_properties_hold_on_random_instances(seed):
    params = GenParams(n_a=4, n_b=3, max_upper=3, edge_density=0.5, seed=seed)
    inst = generate_random_instance(params)
    assume(len(inst.edges) >= 1)
    leveled, trace = solve(inst)
    check_matching(inst, leveled.matching)
    assert check_output_properties(inst, leveled) == []
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    assert trace.proposal_count <= (s + t + 2) * len(inst.edges)
    assert set(leveled.levels) == leveled.matching.pairs
    assert all(0 <= lv <= s + t + 1 for lv in leveled.levels.values())
