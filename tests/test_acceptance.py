"""End-to-end acceptance suite.

One test per shipped guarantee: exact values on the three reference
fixtures, then certificate, oracle-agreement, lift-weight, proposal-budget
and side-minima sweeps over a deterministic family of 500 seeded random
instances small enough for exhaustive enumeration, and last two instances
far beyond the reach of enumeration: a certificate check with three rival
audits, and a dual-free optimality check of the lift with a permuted copy.
"""

from __future__ import annotations

import random
import time

import pytest

from popcrit import (
    Correspondence,
    GenParams,
    Side,
    VertexId,
    build_cloned_graph,
    check_output_properties,
    clone_matching_weight,
    critical_set,
    deficiency,
    delta,
    dual_assignment,
    enumerate_matchings,
    generate_random_instance,
    map_matching_to_clones,
    max_delta,
    oracle_solve,
    parse_instance,
    parse_matching,
    random_correspondence,
    render_certificate_report,
    serialize_instance,
    serialize_matching,
    solve,
    verify_certificate,
)

from conftest import DATA
from reference_cycle_check import has_positive_cycle
from reference_report import reference_report

SUITE_SIZE = 500

# Parameter mix for the seeded suite; sizes stay within the oracle budget
# (at most 5x4 vertices, upper quotas at most 3, at most 14 edges).
GRID = (
    dict(n_a=2, n_b=2, max_upper=2, lq_fraction=0.7, edge_density=0.8),
    dict(n_a=3, n_b=2, max_upper=3, lq_fraction=0.5, edge_density=0.6),
    dict(n_a=3, n_b=3, max_upper=2, lq_fraction=0.4, edge_density=0.5),
    dict(n_a=4, n_b=3, max_upper=3, lq_fraction=0.5, edge_density=0.4),
    dict(n_a=5, n_b=4, max_upper=2, lq_fraction=0.3, edge_density=0.35),
)


@pytest.fixture(scope="module")
def suite():
    instances = []
    seed = 0
    while len(instances) < SUITE_SIZE:
        params = GenParams(seed=seed, **GRID[seed % len(GRID)])
        inst = generate_random_instance(params)
        seed += 1
        if 1 <= len(inst.edges) <= 14:
            instances.append(inst)
    return instances


@pytest.fixture(scope="module")
def solved(suite):
    return [(inst,) + solve(inst) for inst in suite]


def test_1_short_supply_deficits_and_solver_optimality(short_supply):
    start = time.perf_counter()
    inst = short_supply
    for name, want in (
        ("short_supply_m1.match", 2),
        ("short_supply_m2.match", 1),
        ("short_supply_m3.match", 1),
    ):
        m = parse_matching(inst, (DATA / name).read_text())
        assert deficiency(inst, m).total == want, name
    leveled, _ = solve(inst)
    assert deficiency(inst, leveled.matching).total == 1
    best, critical = critical_set(inst)
    assert best == 1
    assert leveled.matching in critical
    assert all(max_delta(inst, leveled.matching, n) <= 0 for n in critical)
    assert leveled.matching.size == oracle_solve(inst).max_popular_size
    assert time.perf_counter() - start < 1.0


def test_2_capacity_switch_exact_output(capacity_switch):
    start = time.perf_counter()
    inst = capacity_switch
    leveled, _ = solve(inst)
    named = {(inst.name(a), inst.name(b)) for a, b in leveled.matching.pairs}
    assert named == {
        ("a1", "b1"),
        ("a2", "b1"),
        ("a1", "b2"),
        ("a2", "b2"),
        ("a1", "b3"),
        ("a4", "b4"),
    }
    assert deficiency(inst, leveled.matching).total == 0
    assert leveled.matching.size == 6
    best, critical = critical_set(inst)
    assert best == 0
    assert all(max_delta(inst, leveled.matching, n) <= 0 for n in critical)
    assert time.perf_counter() - start < 5.0


def test_3_single_post_vote_totals_depend_on_the_correspondence(one_post):
    inst = one_post
    b = VertexId(Side.B, 0)
    a = lambda i: VertexId(Side.A, i - 1)
    m = parse_matching(inst, "a2 b\na3 b\na5 b")
    n = parse_matching(inst, "a1 b\na4 b\na6 b")
    side_a = {a(i): ((b, None),) for i in (2, 3, 5)}
    side_a.update({a(i): ((None, b),) for i in (1, 4, 6)})
    corr_one = Correspondence(
        {b: ((a(2), a(1)), (a(3), a(4)), (a(5), a(6))), **side_a}
    )
    corr_two = Correspondence(
        {b: ((a(2), a(1)), (a(5), a(4)), (a(3), a(6))), **side_a}
    )
    assert delta(inst, m, n, corr_one) == 1
    assert delta(inst, m, n, corr_two) == -1
    # some correspondence turns the tables, so m is not popular
    assert max_delta(inst, m, n) == 1
    undefeated = parse_matching(inst, "a1 b\na2 b\na3 b")
    for rival in enumerate_matchings(inst):
        assert max_delta(inst, undefeated, rival) <= 0


def test_4_certificates_pass_across_the_seeded_suite(solved):
    start = time.perf_counter()
    assert len(solved) >= SUITE_SIZE
    for inst, leveled, _ in solved:
        g = build_cloned_graph(inst, leveled)
        cert = dual_assignment(g)
        report = verify_certificate(g, cert)
        assert report.ok, report.failures
        # The report lists the vertices in the order of sorted(g.vertices).
        assert render_certificate_report(g, cert, report) == reference_report(g, cert, report)
    assert time.perf_counter() - start < 60.0


def test_5_solver_agrees_with_the_oracle_across_the_seeded_suite(solved):
    start = time.perf_counter()
    for inst, leveled, _ in solved:
        m = leveled.matching
        d = deficiency(inst, m)
        result = oracle_solve(inst)
        assert d.total == result.min_deficiency
        assert (d.total_a, d.total_b) == (result.min_def_a, result.min_def_b)
        _, critical = critical_set(inst)
        assert all(max_delta(inst, m, n) <= 0 for n in critical)
        assert any(m.pairs == p.pairs for p in result.popular_critical)
        assert m.size == result.max_popular_size
    assert time.perf_counter() - start < 600.0


def test_6_rival_lifts_realize_their_vote_totals(solved):
    rng = random.Random(2026)
    triples = 0
    for inst, leveled, _ in solved:
        if triples >= 120:
            break
        g = build_cloned_graph(inst, leveled)
        m = leveled.matching
        _, critical = critical_set(inst)
        for n in critical[:3]:
            corr = random_correspondence(inst, n, m, rng)
            nstar = map_matching_to_clones(g, inst, n, corr)
            value = delta(inst, n, m, corr)
            assert clone_matching_weight(g, inst, nstar) == value
            assert value <= 0
            triples += 1
    assert triples >= 100


def test_7_proposal_budget_holds_on_every_run(
    solved, short_supply, capacity_switch, one_post
):
    runs = list(solved)
    runs += [(inst,) + solve(inst) for inst in (short_supply, capacity_switch, one_post)]
    for inst, _, trace in runs:
        s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
        assert trace.proposal_count <= (s + t + 2) * len(inst.edges)


def test_8_critical_matchings_attain_both_side_minima(suite):
    for inst in suite:
        defs = [deficiency(inst, m) for m in enumerate_matchings(inst)]
        min_a = min(d.total_a for d in defs)
        min_b = min(d.total_b for d in defs)
        min_total = min(d.total for d in defs)
        assert min_total == min_a + min_b
        for d in defs:
            if d.total == min_total:
                assert (d.total_a, d.total_b) == (min_a, min_b)


def test_9_certificate_holds_at_scale():
    params = GenParams(
        n_a=200, n_b=200, edge_density=0.05, max_upper=3, lq_fraction=0.5, seed=1
    )
    inst = generate_random_instance(params)
    leveled, trace = solve(inst)
    g = build_cloned_graph(inst, leveled)
    report = verify_certificate(g, dual_assignment(g))
    assert report.ok, report.failures
    assert check_output_properties(inst, leveled) == []
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    assert trace.proposal_count <= (s + t + 2) * len(inst.edges)

    # Critical rivals, made as the benchmark's audit makes them: the
    # solver's matching under reshuffled preference orders, which keeps
    # the edges and quotas and so the minimum deficiency.
    m = leveled.matching
    rng = random.Random(9)
    for _ in range(3):
        n = parse_matching(inst, serialize_matching(*_reshuffled(inst, rng)))
        assert max_delta(inst, m, n) <= 0
        corr = random_correspondence(inst, n, m, rng)
        nstar = map_matching_to_clones(g, inst, n, corr)
        assert clone_matching_weight(g, inst, nstar) == delta(inst, n, m, corr)


def test_10_lift_is_heaviest_at_scale_and_declaration_order_is_free():
    # At n = 400 the closed-form dual is checked by verify_certificate and,
    # independently of it, the lift's residual digraph has no positive
    # cycle.  Declaring the vertices in another order changes every id and
    # the FIFO seeding order, but not the outcome.
    params = GenParams(
        n_a=400, n_b=400, edge_density=10 / 400, max_upper=3, lq_fraction=0.5, seed=1
    )
    inst = generate_random_instance(params)
    leveled, trace = solve(inst)
    g = build_cloned_graph(inst, leveled)
    report = verify_certificate(g, dual_assignment(g))
    assert report.ok, report.failures
    assert not has_positive_cycle(g)
    assert check_output_properties(inst, leveled) == []
    s, t = inst.sum_lower(Side.A), inst.sum_lower(Side.B)
    assert trace.proposal_count <= (s + t + 2) * len(inst.edges)

    lines = serialize_instance(inst).splitlines()
    rng = random.Random(10)
    a_lines = [line for line in lines if line.startswith("A ")]
    b_lines = [line for line in lines if line.startswith("B ")]
    rng.shuffle(a_lines)
    rng.shuffle(b_lines)
    prefs = lines[len(a_lines) + len(b_lines):]
    permuted = parse_instance("\n".join(a_lines + b_lines + prefs) + "\n")
    assert [permuted.name(v) for v in permuted.vertices(Side.A)] != [
        inst.name(v) for v in inst.vertices(Side.A)
    ]
    other, other_trace = solve(permuted)
    assert _named(permuted, other.matching) == _named(inst, leveled.matching)
    assert other_trace.proposal_count == trace.proposal_count


def _named(inst, m):
    return {(inst.name(a), inst.name(b)) for a, b in m.pairs}


def _reshuffled(inst, rng):
    """inst with every preference order shuffled, and its solver matching."""
    lines = serialize_instance(inst).splitlines()
    for k, line in enumerate(lines):
        if line.startswith("PREF "):
            _, name, *partners = line.split()
            rng.shuffle(partners)
            lines[k] = " ".join(["PREF", name, *partners])
    rival = parse_instance("\n".join(lines) + "\n")
    return rival, solve(rival)[0].matching
