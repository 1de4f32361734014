from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popcrit import (
    CertificateReport,
    CloneId,
    CloneKind,
    Correspondence,
    GenParams,
    Side,
    VertexId,
    build_cloned_graph,
    clone_matching_weight,
    critical_set,
    delta,
    dual_assignment,
    edge_weight,
    generate_random_instance,
    map_matching_to_clones,
    max_delta,
    parse_matching,
    random_correspondence,
    render_certificate_report,
    solve,
    verify_certificate,
    vote,
)

from conftest import DATA, all_correspondences, run_python


@pytest.fixture(scope="module")
def short_supply_graph(short_supply):
    leveled, _ = solve(short_supply)
    return build_cloned_graph(short_supply, leveled)


@pytest.fixture(scope="module")
def capacity_switch_graph(capacity_switch):
    leveled, _ = solve(capacity_switch)
    return build_cloned_graph(capacity_switch, leveled)


@pytest.fixture(scope="module")
def high_quota_graph():
    # Shaped like the benchmark's wide instances: 30 + 30 vertices, dense,
    # upper quotas up to 20, so each vertex owns many clones and
    # last-resorts.
    inst = generate_random_instance(
        GenParams(n_a=30, n_b=30, max_upper=20, lq_fraction=0.2, edge_density=0.9, seed=0)
    )
    leveled, _ = solve(inst)
    return build_cloned_graph(inst, leveled)


@pytest.fixture(scope="module")
def deficient_graph():
    inst = generate_random_instance(
        GenParams(n_a=5, n_b=5, max_upper=3, lq_fraction=0.8, edge_density=0.4, seed=3)
    )
    leveled, _ = solve(inst)
    g = build_cloned_graph(inst, leveled)
    assert g.dummies[Side.A] and g.dummies[Side.B]
    return g


def _clone(side, index, ordinal):
    return CloneId(CloneKind.CLONE, side, index, ordinal)


def _resort(side, index, ordinal):
    return CloneId(CloneKind.LAST_RESORT, side, index, ordinal)


# ------------------------------------------------------------- construction


def test_clone_counts(short_supply_graph):
    by_kind = {}
    for u in short_supply_graph.vertices:
        by_kind.setdefault((u.kind, u.side), []).append(u)
    assert len(by_kind[(CloneKind.CLONE, Side.A)]) == 5
    assert len(by_kind[(CloneKind.CLONE, Side.B)]) == 3
    assert len(by_kind[(CloneKind.LAST_RESORT, Side.A)]) == 1
    assert len(by_kind[(CloneKind.LAST_RESORT, Side.B)]) == 2
    assert short_supply_graph.dummies[Side.A] == (CloneId(CloneKind.DUMMY, Side.A, -1, 1),)
    assert short_supply_graph.dummies[Side.B] == ()
    g = short_supply_graph
    a1 = VertexId(Side.A, 0)
    assert g.clones_of[a1] == (_clone(Side.A, 0, 1), _clone(Side.A, 0, 2))
    assert g.resorts_of[a1] == (_resort(Side.A, 0, 1),)
    owned = [u for v in g.inst.all_vertices() for u in g.clones_of[v] + g.resorts_of[v]]
    assert sorted(owned) == sorted(u for u in g.vertices if u.kind is not CloneKind.DUMMY)


def test_lift_is_a_perfect_pairing_of_clones_and_dummies(short_supply_graph):
    g = short_supply_graph
    for u in g.vertices:
        if u.kind is CloneKind.CLONE or u.kind is CloneKind.DUMMY:
            assert u in g.mstar
            assert g.mstar[g.mstar[u]] == u
    # the solver matched a1-b1, a2-b2, a3-b2; clones pair in edge order
    assert g.mstar_by_edge[(VertexId(Side.A, 0), VertexId(Side.B, 0))] == (
        _clone(Side.A, 0, 1),
        _clone(Side.B, 0, 1),
    )
    assert g.mstar[_clone(Side.A, 1, 2)].kind is CloneKind.DUMMY
    assert g.mstar[_clone(Side.A, 0, 2)] == _resort(Side.A, 0, 1)


def test_partition_levels(short_supply_graph):
    g = short_supply_graph
    levels = {g.clone_name(u): g.level[u] for u in g.vertices}
    # matched clones carry their edge's level, the deficiency dummy pair
    # sits at the top level s + t + 1 = 6, last-resort pairs at t + 1 or t
    assert levels["a1.1"] == 6
    assert levels["b2.2"] == 5
    assert levels["a2.2"] == 6
    assert levels["dummy.A.1"] == 6
    assert levels["a1.2"] == 2
    assert levels["lr.a1.1"] == 2
    assert levels["lr.b1.1"] == 1
    assert levels["lr.b2.1"] == 1
    assert set(g.level) == set(g.vertices)


def test_build_is_deterministic(short_supply):
    leveled, _ = solve(short_supply)
    g1 = build_cloned_graph(short_supply, leveled)
    g2 = build_cloned_graph(short_supply, leveled)
    assert g1.edges == g2.edges
    assert g1.mstar == g2.mstar
    assert g1.level == g2.level


# ------------------------------------------------------------------ weights


def test_edge_weights_by_hand(short_supply_graph, short_supply):
    g = short_supply_graph
    for pair, lifted in g.mstar_by_edge.items():
        assert edge_weight(g, short_supply, lifted) == 0
    # a1's spare clone and b2's clone backed by a2: both would gain
    assert edge_weight(g, short_supply, (_clone(Side.A, 0, 2), _clone(Side.B, 1, 1))) == 2
    # a1's matched clone against b2's clone backed by a3: both would lose
    assert edge_weight(g, short_supply, (_clone(Side.A, 0, 1), _clone(Side.B, 1, 2))) == -2
    dummy = g.dummies[Side.A][0]
    # moving to a dummy costs a real partner but not an artificial one
    assert edge_weight(g, short_supply, (_clone(Side.A, 0, 1), dummy)) == -1
    assert edge_weight(g, short_supply, (_clone(Side.A, 0, 2), dummy)) == 0
    assert edge_weight(g, short_supply, (_clone(Side.A, 1, 2), dummy)) == 0
    assert (
        edge_weight(g, short_supply, (_clone(Side.A, 0, 2), _resort(Side.A, 0, 1))) == 0
    )


def test_edge_weight_rejects_non_edges(short_supply_graph, short_supply):
    with pytest.raises(ValueError, match="not present"):
        # a3-b1 is not an edge of the instance
        edge_weight(short_supply_graph, short_supply, (_clone(Side.A, 2, 1), _clone(Side.B, 0, 1)))


def _recomputed_weight(g, inst, u, w):
    def lifted_real(x):
        partner = g.mstar[x]
        if partner.kind is CloneKind.CLONE:
            return VertexId(partner.side, partner.owner)
        return None

    a, b = VertexId(u.side, u.owner), VertexId(w.side, w.owner)
    return vote(inst, a, b, lifted_real(u)) + vote(inst, b, a, lifted_real(w))


def _family_and_weight(g, u, w):
    """The weight rule restated from the lift alone, with the edge family
    it applies to."""
    if g.mstar.get(u) == w:
        return "lifted", 0
    if u.kind is CloneKind.CLONE and w.kind is CloneKind.CLONE:
        return "clone-clone", _recomputed_weight(g, g.inst, u, w)
    clone, other = (u, w) if u.kind is CloneKind.CLONE else (w, u)
    gives_up_real = g.mstar[clone].kind is CloneKind.CLONE
    return f"clone-{other.kind.value}", -1 if gives_up_real else 0


@pytest.mark.parametrize(
    "graph_name",
    ["short_supply_graph", "capacity_switch_graph", "high_quota_graph", "deficient_graph"],
)
def test_true_edge_weights_match_vote_recomputation(graph_name, request):
    g = request.getfixturevalue(graph_name)
    seen = Counter()
    for u, w in sorted(g.edges):
        family, expected = _family_and_weight(g, u, w)
        assert edge_weight(g, g.inst, (u, w)) == expected
        assert edge_weight(g, g.inst, (w, u)) == expected
        seen[family] += 1
    assert {"lifted", "clone-clone", "clone-last_resort"} <= set(seen)
    assert ("clone-dummy" in seen) == any(g.dummies.values())


# -------------------------------------------------------------------- duals


def test_dual_values_by_hand(short_supply_graph):
    cert = dual_assignment(short_supply_graph)
    named = {short_supply_graph.clone_name(u): v for u, v in cert.alpha.items()}
    # level x on the A side gets 2(t - x) + 1 with t = 1, mirrors negate
    assert named["a1.1"] == -9
    assert named["b1.1"] == 9
    assert named["b2.2"] == 7
    assert named["dummy.A.1"] == 9
    assert named["a1.2"] == 0
    assert named["lr.a1.1"] == 0
    assert named["lr.b1.1"] == 0
    assert sum(cert.alpha.values()) == 0


def test_lifted_pairs_cancel(capacity_switch_graph):
    cert = dual_assignment(capacity_switch_graph)
    for u, w in capacity_switch_graph.mstar.items():
        assert cert.alpha[u] + cert.alpha[w] == 0


def test_verification_passes_on_reference_instances(short_supply_graph, capacity_switch_graph):
    for g in (short_supply_graph, capacity_switch_graph):
        report = verify_certificate(g, dual_assignment(g))
        assert report.ok
        assert report.failures == ()
        assert dict(report.checks) == {
            "edge_inequalities": True,
            "last_resorts_nonnegative": True,
            "zero_sum": True,
            "no_steep_downward": True,
            "matched_edges_tight": True,
            "weights_in_range": True,
            "level_weight_bounds": True,
        }


def test_rendered_report_matches_golden_file(short_supply_graph):
    cert = dual_assignment(short_supply_graph)
    report = verify_certificate(short_supply_graph, cert)
    text = render_certificate_report(short_supply_graph, cert, report)
    assert text == (DATA / "short_supply_cert.txt").read_text()


def test_tampered_duals_are_caught(short_supply_graph, capacity_switch_graph):
    g = short_supply_graph
    cert = dual_assignment(g)

    skewed = dict(cert.alpha)
    skewed[g.dummies[Side.A][0]] -= 2
    report = verify_certificate(g, dataclasses.replace(cert, alpha=skewed))
    assert not report.ok
    assert "zero_sum" in report.failed_checks
    assert any("sum to -2" in f for f in report.failures)

    negative = dict(cert.alpha)
    negative[_resort(Side.A, 0, 1)] = -1
    report = verify_certificate(g, dataclasses.replace(cert, alpha=negative))
    assert not report.ok
    assert "last_resorts_nonnegative" in report.failed_checks
    assert "edge_inequalities" in report.failed_checks
    assert report.failures == (
        "edge_inequalities: (a1.2, lr.a1.1) has alpha sum -1 < weight 0",
        "matched_edges_tight: lifted edge (a1.2, lr.a1.1) is not tight: -1 != 0",
        "last_resorts_nonnegative: lr.a1.1 carries -1",
        "zero_sum: alpha values sum to -1",
    )
    rendered = render_certificate_report(g, dataclasses.replace(cert, alpha=negative), report)
    assert rendered.rstrip().endswith(
        "VERDICT FAIL " + ",".join(report.failed_checks)
    )

    # Failures on several edges come out in edge order, each edge's checks
    # in the order the verifier runs them, then the per-vertex and sum checks.
    g = capacity_switch_graph
    cert = dual_assignment(g)
    lowered = dict(cert.alpha)
    lowered[_clone(Side.A, 2, 1)] -= 3
    report = verify_certificate(g, dataclasses.replace(cert, alpha=lowered))
    assert report.failures == (
        "edge_inequalities: (a3.1, b2.1) has alpha sum 0 < weight 2",
        "edge_inequalities: (a3.1, b2.2) has alpha sum 0 < weight 2",
        "edge_inequalities: (a3.1, lr.a3.1) has alpha sum -3 < weight 0",
        "matched_edges_tight: lifted edge (a3.1, lr.a3.1) is not tight: -3 != 0",
        "zero_sum: alpha values sum to -3",
    )


def test_report_ok_is_pure_bookkeeping():
    report = CertificateReport(checks=(("zero_sum", False),), failures=("x",))
    assert not report.ok
    assert report.failed_checks == ("zero_sum",)


# ------------------------------------------------------------ rival lifting


def test_identity_lift_recovers_the_matching_lift(short_supply_graph, short_supply):
    g = short_supply_graph
    m = g.leveled.matching
    nstar = map_matching_to_clones(g, short_supply, m, Correspondence({}))
    expected = frozenset(g.canonical(u, w) for u, w in g.mstar.items())
    assert nstar == expected
    assert clone_matching_weight(g, short_supply, nstar) == 0


def test_lift_weight_equals_delta_for_every_critical_rival(short_supply_graph, short_supply):
    g = short_supply_graph
    m = g.leveled.matching
    _, critical = critical_set(short_supply)
    assert m in critical
    seen = 0
    for n in critical:
        for corr in all_correspondences(short_supply, n, m):
            nstar = map_matching_to_clones(g, short_supply, n, corr)
            assert clone_matching_weight(g, short_supply, nstar) == delta(short_supply, n, m, corr)
            # m is popular, so no lift may outweigh the tight lift of m
            assert clone_matching_weight(g, short_supply, nstar) <= 0
            seen += 1
    assert seen >= 4


def test_lift_invariants_survive_the_optimize_flag():
    # Without last-resorts the identity lift has no slot for a1's spare
    # clone; under -O a plain assert would let None through instead.
    code = (
        "import dataclasses\n"
        "from pathlib import Path\n"
        "from popcrit import (Correspondence, InvariantError, build_cloned_graph,\n"
        "    map_matching_to_clones, parse_instance, solve)\n"
        f"inst = parse_instance(Path({str(DATA / 'short_supply.inst')!r}).read_text())\n"
        "leveled, _ = solve(inst)\n"
        "g = build_cloned_graph(inst, leveled)\n"
        "g = dataclasses.replace(g, resorts_of={v: () for v in g.resorts_of})\n"
        "try:\n"
        "    map_matching_to_clones(g, inst, leveled.matching, Correspondence({}))\n"
        "except InvariantError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    assert run_python(code, "-O") == "False no slot left for an unmatched clone"


def test_lift_rejects_non_critical_rivals(short_supply_graph, short_supply):
    m1 = parse_matching(short_supply, (DATA / "short_supply_m1.match").read_text())
    a1, a2 = VertexId(Side.A, 0), VertexId(Side.A, 1)
    b2 = VertexId(Side.B, 1)
    corr = Correspondence({a1: ((b2, None),), a2: ((None, b2),), b2: ((a1, a2),)})
    with pytest.raises(ValueError, match="not critical"):
        map_matching_to_clones(short_supply_graph, short_supply, m1, corr)


# ----------------------------------------------------------------- sweeping


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_certificates_verify_on_random_instances(seed):
    params = GenParams(n_a=4, n_b=3, max_upper=3, edge_density=0.5, seed=seed)
    inst = generate_random_instance(params)
    assume(len(inst.edges) >= 1)
    leveled, _ = solve(inst)
    g = build_cloned_graph(inst, leveled)
    report = verify_certificate(g, dual_assignment(g))
    assert report.ok, report.failures


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_rival_lifts_realize_their_delta(seed):
    params = GenParams(n_a=3, n_b=3, max_upper=2, edge_density=0.6, seed=seed)
    inst = generate_random_instance(params)
    assume(1 <= len(inst.edges) <= 10)
    leveled, _ = solve(inst)
    g = build_cloned_graph(inst, leveled)
    m = leveled.matching
    _, critical = critical_set(inst)
    rng = random.Random(seed)
    for n in critical[:6]:
        corr = random_correspondence(inst, n, m, rng)
        nstar = map_matching_to_clones(g, inst, n, corr)
        value = delta(inst, n, m, corr)
        assert clone_matching_weight(g, inst, nstar) == value
        assert value <= 0


def test_lift_realizes_delta_at_high_quotas(high_quota_graph):
    # Rivals are the solver's matchings under reshuffled preference orders,
    # which keep the edges and quotas and so stay critical.
    g = high_quota_graph
    inst, m = g.inst, g.leveled.matching
    rng = random.Random(0)

    def shuffled(prefs):
        return tuple(tuple(rng.sample(p, len(p))) for p in prefs)

    for _ in range(3):
        rival, _ = solve(
            dataclasses.replace(inst, a_prefs=shuffled(inst.a_prefs), b_prefs=shuffled(inst.b_prefs))
        )
        n = rival.matching
        assert n.pairs - m.pairs
        assert max_delta(inst, m, n) <= 0
        corr = random_correspondence(inst, n, m, rng)
        nstar = map_matching_to_clones(g, inst, n, corr)
        assert clone_matching_weight(g, inst, nstar) == delta(inst, n, m, corr)
