from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popcrit import (
    GenParams,
    InvariantError,
    Side,
    VertexId,
    check_matching,
    check_output_properties,
    deficiency,
    generate_random_instance,
    parse_instance,
    parse_matching,
    proposal_list,
    proposer_capacity,
    read_trace_csv,
    receiver_capacity,
    solve,
    trace_to_csv,
)
from popcrit.solver import SolverState, decide_acc_rej

from conftest import DATA, run_python

A = lambda i: VertexId(Side.A, i)
B = lambda i: VertexId(Side.B, i)


# ------------------------------------------------------------ capacity rules


def test_proposer_capacity_switches_to_lower_quota_above_t_plus_one(short_supply):
    # short_supply has s = 4, t = 1
    a1, a3 = A(0), A(2)
    assert [proposer_capacity(short_supply, a1, lv) for lv in range(7)] == [2, 2, 2, 1, 1, 1, 1]
    assert [proposer_capacity(short_supply, a3, lv) for lv in range(7)] == [1] * 7
    for bad in (-1, 7):
        with pytest.raises(ValueError):
            proposer_capacity(short_supply, a1, bad)


def test_proposal_list_restricted_below_t(short_supply):
    a1 = A(0)
    # b1 carries no lower quota, so it is skipped below level t = 1
    assert proposal_list(short_supply, a1, 0) == (B(1),)
    assert proposal_list(short_supply, a1, 1) == (B(0), B(1))
    assert proposal_list(short_supply, a1, 6) == (B(0), B(1))
    with pytest.raises(ValueError):
        proposal_list(short_supply, a1, 7)


def test_receiver_capacity_depends_on_level_and_partners(short_supply):
    state = SolverState.initial(short_supply)
    b1, b2 = B(0), B(1)
    assert receiver_capacity(short_supply, state, b2, 0) == 1
    assert receiver_capacity(short_supply, state, b1, 0) == 0
    # no matched copy below t, so the upper quota applies from level t on
    assert receiver_capacity(short_supply, state, b2, 1) == 2
    state.add_edge(A(2), 0, b2)
    assert receiver_capacity(short_supply, state, b2, 1) == 1
    state.remove_edge(A(2), b2)
    state.add_edge(A(2), 1, b2)
    assert receiver_capacity(short_supply, state, b2, 1) == 2


# ---------------------------------------------------------- accept or reject


def _bare_state(inst):
    state = SolverState.initial(inst)
    state.queue.clear()
    state.queued.clear()
    return state


def test_accept_into_free_capacity(one_post):
    state = _bare_state(one_post)
    b = B(0)
    assert decide_acc_rej(state, A(4), 0, 1, b, 3) is None
    assert state.edge_levels == {(A(4), b): 0}
    assert not state.queue


def test_full_receiver_evicts_its_worst_partner(one_post):
    state = _bare_state(one_post)
    b = B(0)
    for i in (3, 4, 5):
        state.add_edge(A(i), 0, b)
    assert decide_acc_rej(state, A(0), 0, 1, b, 3) == (A(5), 0)
    assert state.b_partners[b].keys() == {A(0), A(3), A(4)}
    # the evicted copy re-enters the queue at the level it held
    assert list(state.queue) == [(A(5), 0)]


def test_full_receiver_rejects_a_worse_proposer(one_post):
    state = _bare_state(one_post)
    b = B(0)
    for i in (0, 1, 2):
        state.add_edge(A(i), 0, b)
    assert decide_acc_rej(state, A(5), 0, 1, b, 3) == (A(5), 0)
    assert state.b_partners[b].keys() == {A(0), A(1), A(2)}
    # the rejected proposer still has spare capacity, so it requeues to
    # continue down its list
    assert list(state.queue) == [(A(5), 0)]


def test_higher_level_beats_better_rank(one_post):
    state = _bare_state(one_post)
    b = B(0)
    for i in (0, 1, 2):
        state.add_edge(A(i), 0, b)
    assert decide_acc_rej(state, A(5), 1, 1, b, 3) == (A(2), 0)
    assert A(5) in state.b_partners[b]


def test_repeat_proposal_lifts_the_existing_edge(one_post):
    state = _bare_state(one_post)
    b = B(0)
    state.add_edge(A(0), 0, b)
    assert decide_acc_rej(state, A(0), 2, 1, b, 3) is None
    assert state.edge_levels == {(A(0), b): 2}


def test_shrunk_receiver_capacity_gives_plain_rejection(one_post):
    state = _bare_state(one_post)
    b = B(0)
    state.add_edge(A(0), 0, b)
    state.add_edge(A(1), 0, b)
    assert decide_acc_rej(state, A(5), 0, 1, b, 1) == (A(5), 0)
    assert state.b_partners[b].keys() == {A(0), A(1)}


def test_proposer_with_spare_capacity_requeues_itself(one_post):
    state = _bare_state(one_post)
    assert decide_acc_rej(state, A(0), 0, 3, B(0), 3) is None
    assert list(state.queue) == [(A(0), 0)]


def test_repeat_proposal_at_the_same_level_breaks_an_invariant(one_post):
    state = _bare_state(one_post)
    state.add_edge(A(0), 2, B(0))
    with pytest.raises(InvariantError, match="again at level 2"):
        decide_acc_rej(state, A(0), 2, 1, B(0), 3)


def test_invariants_survive_the_optimize_flag():
    # Under -O plain asserts vanish; the solver's checks must not.
    code = (
        "from pathlib import Path\n"
        "from popcrit import InvariantError, Side, VertexId, parse_instance\n"
        "from popcrit.solver import SolverState\n"
        f"inst = parse_instance(Path({str(DATA / 'short_supply.inst')!r}).read_text())\n"
        "state = SolverState.initial(inst)\n"
        "try:\n"
        "    state.enqueue(VertexId(Side.A, 0), 0)\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    assert run_python(code, "-O") == "False a1 is already queued"


# ------------------------------------------------------------------ full runs


def test_solve_first_reference_instance(short_supply):
    leveled, trace = solve(short_supply)
    assert leveled.matching == parse_matching(short_supply, (DATA / "short_supply_m2.match").read_text())
    assert leveled.levels == {(A(0), B(0)): 6, (A(1), B(1)): 6, (A(2), B(1)): 5}
    assert deficiency(short_supply, leveled.matching).total == 1
    assert trace.proposal_count == 31
    assert check_output_properties(short_supply, leveled) == []


def test_first_reference_trace_is_stable(short_supply):
    _, trace = solve(short_supply)
    assert trace_to_csv(short_supply, trace) == (DATA / "short_supply_trace.csv").read_text()


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


def test_output_property_check_flags_tampering(short_supply):
    leveled, _ = solve(short_supply)
    lowered = dict(leveled.levels)
    lowered[(A(0), B(0))] = 5
    tampered = dataclasses.replace(leveled, levels=lowered)
    assert any("top level" in v for v in check_output_properties(short_supply, tampered))

    peaks = dict(leveled.max_level)
    peaks[A(0)] = 7
    tampered = dataclasses.replace(leveled, max_level=peaks)
    assert any("peak 7" in v for v in check_output_properties(short_supply, tampered))


def test_trace_round_trip(capacity_switch):
    _, trace = solve(capacity_switch)
    text = trace_to_csv(capacity_switch, trace)
    rows = read_trace_csv(text)
    assert len(rows) == trace.proposal_count
    assert rows[0][0] == "1"
    assert read_trace_csv(text) == rows
    with pytest.raises(ValueError, match="header"):
        read_trace_csv("seq,a,b\n1,x,y\n")


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
    first = trace_to_csv(capacity_switch, solve(capacity_switch)[1])
    second = trace_to_csv(capacity_switch, solve(capacity_switch)[1])
    assert first == second


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
