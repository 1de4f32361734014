from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popcrit import (
    GenParams,
    Matching,
    Quotas,
    Side,
    build_cloned_graph,
    check_output_properties,
    critical_set,
    deficiency,
    dual_assignment,
    enumerate_matchings,
    generate_random_instance,
    max_delta,
    oracle_solve,
    parse_instance,
    parse_matching,
    solve,
    verify_certificate,
)
from popcrit.oracle import _scored_matchings

from conftest import DATA, load_instance
from reference_search import reference_scored_matchings


def _powerset_matchings(inst):
    """Quota-respecting edge subsets by brute force over the power set."""
    edges = sorted(inst.edges)
    found = []
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            m = Matching(frozenset(combo))
            if all(
                len(m.partners(v)) <= inst.upper(v) for v in inst.all_vertices()
            ):
                found.append(m)
    return found


def test_enumeration_matches_power_set_filter(short_supply):
    got = list(enumerate_matchings(short_supply))
    assert len(got) == 21
    assert sorted(got, key=lambda m: sorted(m.pairs)) == sorted(
        _powerset_matchings(short_supply), key=lambda m: sorted(m.pairs)
    )
    assert len(set(got)) == len(got)


def test_enumeration_budget(short_supply):
    with pytest.raises(ValueError, match="budget"):
        list(enumerate_matchings(short_supply, max_edges=4))


def test_critical_set_of_first_reference_instance(short_supply):
    best, matchings = critical_set(short_supply)
    assert best == 1
    assert len(matchings) == 4
    assert all(deficiency(short_supply, m).total == 1 for m in matchings)


def test_oracle_on_first_reference_instance(short_supply):
    result = oracle_solve(short_supply)
    assert result.matching_count == 21
    assert (result.min_deficiency, result.min_def_a, result.min_def_b) == (1, 1, 0)
    assert result.critical_count == 4
    expected = {
        parse_matching(short_supply, "a1 b2\na2 b1\na3 b2"),
        parse_matching(short_supply, "a1 b1\na2 b2\na3 b2"),
    }
    assert set(result.popular_critical) == expected
    assert result.max_popular_size == 3


def test_oracle_on_second_reference_instance(capacity_switch):
    result = oracle_solve(capacity_switch)
    assert result.matching_count == 252
    assert (result.min_deficiency, result.min_def_a, result.min_def_b) == (0, 0, 0)
    assert result.critical_count == 3
    expected = parse_matching(capacity_switch, (DATA / "capacity_switch_m1.match").read_text())
    assert result.popular_critical == (expected,)
    assert result.max_popular_size == 6


def test_oracle_agrees_with_popularity_filter(short_supply):
    best, critical = critical_set(short_supply)
    result = oracle_solve(short_supply)
    by_hand = [
        m
        for m in critical
        if all(max_delta(short_supply, m, n) <= 0 for n in critical if n != m)
    ]
    assert sorted(by_hand, key=lambda m: sorted(m.pairs)) == sorted(
        result.popular_critical, key=lambda m: sorted(m.pairs)
    )


def test_forced_assignment_instance():
    inst = parse_instance(
        "A a1 1 1\nA a2 1 1\nB b1 1 1\nB b2 1 1\n"
        "PREF a1 b1\nPREF a2 b2\nPREF b1 a1\nPREF b2 a2"
    )
    result = oracle_solve(inst)
    assert result.min_deficiency == 0
    assert result.critical_count == 1
    assert result.popular_critical == (parse_matching(inst, "a1 b1\na2 b2"),)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_every_critical_matching_attains_both_side_minima(seed):
    params = GenParams(n_a=3, n_b=3, max_upper=2, edge_density=0.6, seed=seed)
    inst = generate_random_instance(params)
    assume(1 <= len(inst.edges) <= 10)
    result = oracle_solve(inst)
    assert result.min_deficiency == result.min_def_a + result.min_def_b
    for m in enumerate_matchings(inst):
        d = deficiency(inst, m)
        if d.total == result.min_deficiency:
            assert (d.total_a, d.total_b) == (result.min_def_a, result.min_def_b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_popular_critical_members_are_undefeated(seed):
    params = GenParams(n_a=3, n_b=2, max_upper=2, edge_density=0.7, seed=seed)
    inst = generate_random_instance(params)
    assume(1 <= len(inst.edges) <= 8)
    result = oracle_solve(inst)
    _, critical = critical_set(inst)
    for m in result.popular_critical:
        assert all(max_delta(inst, m, n) <= 0 for n in critical)
    # and every critical matching left out loses to some critical rival
    for m in critical:
        if m not in result.popular_critical:
            assert any(max_delta(inst, m, n) > 0 for n in critical)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_solver_lands_inside_the_oracle_answer(seed):
    params = GenParams(n_a=3, n_b=3, max_upper=2, edge_density=0.5, seed=seed)
    inst = generate_random_instance(params)
    assume(1 <= len(inst.edges) <= 10)
    leveled, _ = solve(inst)
    result = oracle_solve(inst)
    d = deficiency(inst, leveled.matching)
    assert d.total == result.min_deficiency
    assert leveled.matching in result.popular_critical
    assert leveled.matching.size == result.max_popular_size


def test_solver_lands_inside_the_oracle_answer_with_zero_quotas():
    # generate_random_instance draws upper quotas from 1 up; here about
    # 30% of the vertices get none.
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
        inst = generate_random_instance(
            GenParams(n_a=4, n_b=4, max_upper=2, edge_density=0.5, seed=seed)
        )
        if not 1 <= len(inst.edges) <= 10:
            continue
        inst = dataclasses.replace(
            inst,
            a_quotas=tuple(Quotas(0, 0) if rng.random() < 0.3 else q for q in inst.a_quotas),
            b_quotas=tuple(Quotas(0, 0) if rng.random() < 0.3 else q for q in inst.b_quotas),
        )
        leveled, trace = solve(inst)
        result = oracle_solve(inst)
        assert deficiency(inst, leveled.matching).total == result.min_deficiency
        assert leveled.matching in result.popular_critical
        assert leveled.matching.size == result.max_popular_size
        assert check_output_properties(inst, leveled) == []
        s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
        assert trace.proposal_count <= (s + t + 2) * len(inst.edges)
        g = build_cloned_graph(inst, leveled)
        assert verify_certificate(g, dual_assignment(g)).ok
        checked += 1
    assert checked >= 200


# Quotas far past any degree are valid input; the search must not size
# anything by them.
HUGE_UPPER = "A a1 0 100000000000000000000\nB b1 0 1\nPREF a1 b1\nPREF b1 a1\n"
HUGE_LOWER = (
    "A a1 100000000000000000000 100000000000000000000\nA a2 0 1\n"
    "B b1 0 2\nPREF a1 b1\nPREF a2 b1\nPREF b1 a2 a1\n"
)


def _search_instances():
    """Both fixtures, 300 seeded gen instances of at most 14 edges (about
    a third with some upper quotas set to 0), a lower quota above degree,
    an instance without edges, and an upper and a lower quota of 10**20."""
    yield load_instance("short_supply.inst")
    yield load_instance("capacity_switch.inst")
    kept = 0
    for seed in itertools.count():
        rng = random.Random(seed)
        inst = generate_random_instance(
            GenParams(
                n_a=rng.randint(2, 5),
                n_b=rng.randint(2, 5),
                max_upper=rng.randint(1, 3),
                lq_fraction=rng.random(),
                edge_density=rng.uniform(0.2, 0.9),
                seed=seed,
            )
        )
        if len(inst.edges) > 14:
            continue
        if seed % 3 == 0:
            inst = dataclasses.replace(
                inst,
                a_quotas=tuple(Quotas(0, 0) if rng.random() < 0.3 else q for q in inst.a_quotas),
                b_quotas=tuple(Quotas(0, 0) if rng.random() < 0.3 else q for q in inst.b_quotas),
            )
        yield inst
        kept += 1
        if kept == 300:
            break
    yield parse_instance(
        "A a1 3 3\nA a2 1 2\nB b1 2 2\nB b2 0 1\n"
        "PREF a1 b1\nPREF a2 b1 b2\nPREF b1 a2 a1\nPREF b2 a2"
    )
    yield parse_instance("A a1 1 1\nA a2 0 1\nB b1 2 2\nPREF a1\nPREF a2\nPREF b1")
    yield parse_instance(HUGE_UPPER)
    yield parse_instance(HUGE_LOWER)


def test_search_yields_what_the_recursive_reference_yields():
    searched = 0
    for inst in _search_instances():
        got = list(_scored_matchings(inst, 14))
        assert got == list(reference_scored_matchings(inst, 14))
        for pairs, da, db in got:
            d = deficiency(inst, Matching(pairs))
            assert (d.total_a, d.total_b) == (da, db)
        searched += 1
    assert searched == 306


def test_search_raises_its_budget_and_ceiling_errors_on_the_first_step():
    small = load_instance("short_supply.inst")
    big = generate_random_instance(GenParams(n_a=9, n_b=9, edge_density=1.0))
    assert len(big.edges) == 81
    for inst, budget, message in [
        (small, 4, "budget is 4"),
        (big, 5000, "refuses more than 64"),
    ]:
        for search in (_scored_matchings, reference_scored_matchings):
            steps = search(inst, budget)
            with pytest.raises(ValueError, match=message):
                next(steps)


def test_search_refuses_an_edge_its_b_end_does_not_list():
    # Each vertex's degree bounds the partners it can hold, and b1 would
    # hold two partners while listing one.
    mutual = parse_instance(
        "A a1 0 1\nA a2 0 1\nB b1 0 2\nPREF a1 b1\nPREF a2 b1\nPREF b1 a1 a2"
    )
    inst = dataclasses.replace(mutual, b_prefs=(mutual.b_prefs[0][:1],))
    for run in (oracle_solve, lambda i: list(enumerate_matchings(i))):
        with pytest.raises(ValueError, match="a2 is not on the preference list of b1"):
            run(inst)


def test_oracle_answers_at_once_for_quotas_beyond_64_bits():
    # Only the degree bounds how many partners a vertex holds, so a quota of
    # 10**20 costs the oracle nothing.
    upper, lower = parse_instance(HUGE_UPPER), parse_instance(HUGE_LOWER)
    assert len(list(enumerate_matchings(upper))) == 2
    assert critical_set(upper)[0] == 0
    r = oracle_solve(upper)
    assert (r.matching_count, r.min_deficiency, r.critical_count) == (2, 0, 2)
    assert (len(r.popular_critical), r.max_popular_size) == (1, 1)
    assert len(list(enumerate_matchings(lower))) == 4
    best, critical = critical_set(lower)
    assert best == 10**20 - 1 and len(critical) == 2
    r = oracle_solve(lower)
    assert (r.matching_count, r.min_def_a, r.min_def_b) == (4, 10**20 - 1, 0)
    assert (len(r.popular_critical), r.max_popular_size) == (1, 2)
