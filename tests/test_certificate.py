from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import types
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from popcrit import (
    CertificateReport,
    CloneId,
    CloneKind,
    Correspondence,
    DualCertificate,
    GenParams,
    Instance,
    LeveledMatching,
    Side,
    VertexId,
    build_cloned_graph,
    check_output_properties,
    clone_matching_weight,
    critical_set,
    delta,
    dual_assignment,
    generate_random_instance,
    map_matching_to_clones,
    max_delta,
    parse_instance,
    parse_matching,
    random_correspondence,
    render_certificate_report,
    solve,
    trace_to_csv,
    verify_certificate,
    vote,
)
from popcrit.certificate import _canonical
from popcrit.matchings import _UNRANKED, _rank_vote

from conftest import DATA, all_correspondences, run_python
from reference_assignment import max_covering_weight
from reference_cycle_check import has_positive_cycle
from reference_report import reference_report
from reference_verifier import reference_verify


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


def _pipeline_outputs(inst):
    """Everything solving and certifying inst produces: the trace CSV, the
    property check's list, and the dual values, report and rendered report
    of the closed-form certificate and of one with its first value lowered
    by 1."""
    leveled, trace = solve(inst)
    g = build_cloned_graph(inst, leveled)
    cert = dual_assignment(g)
    first = g.vertices[0]
    skewed = dataclasses.replace(cert, alpha={**cert.alpha, first: cert.alpha[first] - 1})
    outputs = [trace_to_csv(trace), check_output_properties(inst, leveled)]
    for dual in (cert, skewed):
        report = verify_certificate(g, dual)
        outputs += [dual, report, render_certificate_report(g, dual, report)]
    return outputs


def test_the_pipeline_reads_the_level_range_from_the_run(
    short_supply, deficient_graph, monkeypatch
):
    # The solver states the level range once and the run carries it, so
    # nothing downstream sums the quotas again.
    instances = [short_supply, deficient_graph.inst]
    expected = [_pipeline_outputs(inst) for inst in instances]

    def refuse(self, side):
        raise AssertionError("the level range is read from the run")

    monkeypatch.setattr(Instance, "sum_lower", refuse)
    assert [_pipeline_outputs(inst) for inst in instances] == expected


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
    assert g.mstar[_clone(Side.A, 0, 1)] == _clone(Side.B, 0, 1)
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


def test_edge_weights_by_hand(short_supply_graph):
    g = short_supply_graph
    for lifted in g.mstar.items():
        assert g.edges[_canonical(*lifted)] == 0
    # a1's spare clone and b2's clone backed by a2: both would gain
    assert g.edges[(_clone(Side.A, 0, 2), _clone(Side.B, 1, 1))] == 2
    # a1's matched clone against b2's clone backed by a3: both would lose
    assert g.edges[(_clone(Side.A, 0, 1), _clone(Side.B, 1, 2))] == -2
    dummy = g.dummies[Side.A][0]
    # moving to a dummy costs a real partner but not an artificial one
    assert g.edges[(_clone(Side.A, 0, 1), dummy)] == -1
    assert g.edges[(_clone(Side.A, 0, 2), dummy)] == 0
    assert g.edges[(_clone(Side.A, 1, 2), dummy)] == 0
    assert g.edges[(_clone(Side.A, 0, 2), _resort(Side.A, 0, 1))] == 0


def test_edge_weight_rejects_non_edges(short_supply_graph, short_supply):
    with pytest.raises(ValueError, match="not present"):
        # a3-b1 is not an edge of the instance
        clone_matching_weight(
            short_supply_graph, short_supply,
            frozenset({(_clone(Side.A, 2, 1), _clone(Side.B, 0, 1))}),
        )


def _non_edge(g, name):
    if name == "reversed real edge":
        inst, m = g.inst, g.leveled.matching
        a, b = next(
            (a, b) for a, b in sorted(inst.edges - m.pairs) if g.clones_of[a] and g.clones_of[b]
        )
        return g.clones_of[b][0], g.clones_of[a][0]
    if name == "dummy pair":
        return g.dummies[Side.B][0], g.dummies[Side.A][0]
    return {"None": None, "string": "ab", "int pair": (1, 2)}[name]


@pytest.mark.parametrize(
    "name", ["None", "string", "int pair", "reversed real edge", "dummy pair"]
)
def test_non_edges_are_absent_from_the_mapping(deficient_graph, name):
    g = deficient_graph
    key = _non_edge(g, name)
    assert key not in g.edges
    assert g.edges.get(key) is None
    # g.edges takes each edge in canonical orientation only.
    with pytest.raises(ValueError, match="not present"):
        clone_matching_weight(g, g.inst, frozenset({key}))


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
        assert g.edges[(u, w)] == expected
        seen[family] += 1
    assert {"lifted", "clone-clone", "clone-last_resort"} <= set(seen)
    assert ("clone-dummy" in seen) == any(g.dummies.values())


def _lr_adjacent(g, v, c):
    """Whether v's clone c reaches v's last-resorts: every clone does when m
    holds v above its lower quota, otherwise those m parks on one."""
    over_lower = len(g.leveled.matching.partners(v)) > g.inst.lower(v)
    return over_lower or g.mstar[c].kind is CloneKind.LAST_RESORT


def _explicit_edges(g):
    """The edge set built pair by pair as the graph once stored it: the
    lifted pairs, every clone pair over an unmatched real edge, every clone
    with every dummy of its side, and each clone adjacent to last-resorts
    with every last-resort of its owner, weighed by ``_family_and_weight``."""
    inst, m = g.inst, g.leveled.matching
    pairs = {_canonical(u, w) for u, w in g.mstar.items()}
    for a, b in inst.edges - m.pairs:
        pairs.update(itertools.product(g.clones_of[a], g.clones_of[b]))
    for v in inst.all_vertices():
        for c in g.clones_of[v]:
            pairs.update(_canonical(c, d) for d in g.dummies[v.side])
            if _lr_adjacent(g, v, c):
                pairs.update(_canonical(c, r) for r in g.resorts_of[v])
    return {(u, w): _family_and_weight(g, u, w)[1] for u, w in pairs}


def test_implicit_edges_match_the_explicit_rule(
    short_supply_graph, capacity_switch_graph, high_quota_graph, deficient_graph
):
    seen = Counter()
    for g in (short_supply_graph, capacity_switch_graph, high_quota_graph, deficient_graph):
        explicit = _explicit_edges(g)
        assert len(g.edges) == len(explicit)
        assert sorted(g.edges) == sorted(explicit)
        assert dict(g.edges.items()) == explicit
        assert all(_canonical(u, w) in g.edges for u, w in g.mstar.items())
        assert not any((w, u) in g.edges for u, w in explicit)

        inst, m = g.inst, g.leveled.matching
        lifted = set(g.mstar.items())
        for a, b in m.pairs:
            for pair in itertools.product(g.clones_of[a], g.clones_of[b]):
                if pair not in lifted:
                    assert pair not in g.edges
                    seen["matched, not lifted"] += 1
        for a in inst.vertices(Side.A):
            for b in inst.vertices(Side.B):
                if (a, b) not in inst.edges and g.clones_of[a] and g.clones_of[b]:
                    assert (g.clones_of[a][0], g.clones_of[b][0]) not in g.edges
                    seen["not adjacent"] += 1
        for v in inst.all_vertices():
            for c in g.clones_of[v]:
                if not _lr_adjacent(g, v, c):
                    for r in g.resorts_of[v]:
                        assert _canonical(c, r) not in g.edges
                        seen["not lr-adjacent"] += 1
    assert set(seen) == {"matched, not lifted", "not adjacent", "not lr-adjacent"}


def _lifted_clone_pairs(g):
    """The lifted clone–clone pairs, A end first: the edges kept on the lift
    rather than in the block table."""
    return {
        (u, w) for u, w in g.mstar.items()
        if u.kind is w.kind is CloneKind.CLONE and u.side is Side.A
    }


def test_blocks_cover_every_edge_once(
    short_supply_graph, capacity_switch_graph, high_quota_graph, deficient_graph
):
    # The verifier checks each lifted clone–clone pair on the lift, where it
    # weighs 0 and is a true edge, and every other edge through its block:
    # it weighs each end by its vote for its side's offer, and reads a true
    # edge from a block that offers real ranks.  The blocks yield no lifted
    # clone–clone pair, and together with those pairs they cover every edge
    # once.
    generated = []
    for seed in range(3):
        inst = generate_random_instance(
            GenParams(n_a=4, n_b=5, max_upper=3, lq_fraction=0.5, edge_density=0.6, seed=seed)
        )
        generated.append(build_cloned_graph(inst, solve(inst)[0]))
    fixtures = [short_supply_graph, capacity_switch_graph, high_quota_graph, deficient_graph]
    for g in fixtures + generated:
        lifted = _lifted_clone_pairs(g)
        assert len(lifted) == len(g.leveled.matching.pairs)
        weights = dict.fromkeys(lifted, 0)
        for left, left_offer, right, right_offer in g.edges.blocks():
            for u, held_u in left.items():
                for w, held_w in right.items():
                    assert (u, w) not in lifted
                    assert (u, w) not in weights
                    assert (left_offer < _UNRANKED) == (
                        u.kind is w.kind is CloneKind.CLONE
                    )
                    weights[(u, w)] = (
                        _rank_vote(held_u, left_offer) + _rank_vote(held_w, right_offer)
                    )
        assert weights == dict(g.edges.items())
        assert all(_canonical(u, w) in weights for u, w in g.mstar.items())


@pytest.mark.parametrize("graph_name", ["high_quota_graph", "deficient_graph"])
def test_lifted_pairs_are_looked_up_on_the_lift(graph_name, request):
    # Of the clone pairs of a matched edge, only the lifted one is an edge,
    # and it weighs 0; the others are non-edges, like a lifted pair reversed.
    g = request.getfixturevalue(graph_name)
    seen = Counter()
    for a, b in sorted(g.leveled.matching.pairs):
        for u, w in itertools.product(g.clones_of[a], g.clones_of[b]):
            assert (w, u) not in g.edges
            if g.mstar[u] == w:
                assert (u, w) in g.edges
                assert g.edges[(u, w)] == 0
                seen["lifted"] += 1
            else:
                assert (u, w) not in g.edges
                with pytest.raises(KeyError):
                    g.edges[(u, w)]
                seen["not lifted"] += 1
    assert seen["lifted"] == len(g.leveled.matching.pairs)
    assert seen["not lifted"] > 0


def test_a_vertex_without_capacity_certifies():
    # b1 has upper quota 0, so its real edge to a1 stays unmatched and
    # stands for no clone pair at all.
    inst = parse_instance(
        "A a1 0 1\nB b1 0 0\nB b2 0 1\nPREF a1 b1 b2\nPREF b1 a1\nPREF b2 a1\n"
    )
    leveled, _ = solve(inst)
    g = build_cloned_graph(inst, leveled)
    assert dict(g.edges.items()) == _explicit_edges(g)
    cert = dual_assignment(g)
    report = verify_certificate(g, cert)
    assert report.ok
    assert report == reference_verify(g, cert)


def _wide_instance(seed):
    """An instance shaped like the benchmark's wide workload: 30 + 30
    vertices, a 27-regular bipartite edge set, upper quotas spread evenly
    over 1..20, and lower quotas 1 and 3 dealt to one vertex each per side."""
    rng = random.Random(seed)
    n, degree, max_upper = 30, 27, 20
    offsets = rng.sample(range(n), degree)
    a_label, b_label = rng.sample(range(n), n), rng.sample(range(n), n)
    edges = [(a_label[i], b_label[(i + k) % n]) for i in range(n) for k in offsets]

    def quotas():
        uppers = [1 + (max_upper - 1) * k // (n - 1) for k in range(n)]
        rng.shuffle(uppers)
        lowers = [0] * n
        for lower in (1, 3):
            free = [i for i in range(n) if lowers[i] == 0 and uppers[i] >= lower]
            lowers[rng.choice(free)] = lower
        return list(zip(lowers, uppers))

    lines = [f"A a{i + 1} {lo} {up}" for i, (lo, up) in enumerate(quotas())]
    lines += [f"B b{j + 1} {lo} {up}" for j, (lo, up) in enumerate(quotas())]
    for prefix, other, ends in (("a", "b", edges), ("b", "a", [(j, i) for i, j in edges])):
        for k in range(n):
            names = [f"{other}{y + 1}" for x, y in ends if x == k]
            rng.shuffle(names)
            lines.append(" ".join([f"PREF {prefix}{k + 1}"] + names))
    return parse_instance("\n".join(lines) + "\n")


def _tamper_lifted_pair(g, cert):
    """The first lifted clone–clone pair (u, w), with u's alpha lowered by 1
    and u's level raised by 2, in copies of cert and of g: the pair then
    has alpha sum -1 against its weight 0 and drops two levels."""
    u, w = min(_lifted_clone_pairs(g))
    alpha = dict(cert.alpha)
    alpha[u] -= 1
    level = dict(g.level)
    level[u] += 2
    return (u, w), dataclasses.replace(g, level=level), dataclasses.replace(cert, alpha=alpha)


def test_a_tampered_lifted_pair_fails_on_the_lift(deficient_graph):
    g = deficient_graph
    (u, w), g, cert = _tamper_lifted_pair(g, dual_assignment(g))
    report = verify_certificate(g, cert)
    assert report == reference_verify(g, cert)
    name = f"({g.clone_name(u)}, {g.clone_name(w)})"
    x, y = g.level[u], g.level[w]
    assert f"edge_inequalities: {name} has alpha sum -1 < weight 0" in report.failures
    assert f"no_steep_downward: {name} drops from level {x} to {y}" in report.failures
    assert f"matched_edges_tight: lifted edge {name} is not tight: -1 != 0" in report.failures
    # The pair's checks come in the order they run, tightness last.
    on_pair = [f for f in report.failures if name in f]
    assert [f.split(":")[0] for f in on_pair] == [
        "edge_inequalities", "no_steep_downward", "matched_edges_tight"
    ]


# sha256 of the certificate report of _wide_instance(0), and of the
# failures, one per line, of a fixed tampering of its certificate, both
# recorded while every lifted pair was still a block of its own; the report
# was pinned again when it gained its POTENTIAL lines, and without them it
# still hashes to cda01827….  Unlike short_supply_cert.txt, they pin
# vertices of high quota.
WIDE_REPORT_DIGEST = "5307703e3d6146486df061b00f59fe24ab6e6136519d66c4930a16369c43354f"
WIDE_TAMPERED_FAILURES_DIGEST = "2964a96eeb1ed89a8cc52d02b5f06f08297bef27a81f3c2491ca263917bf5a9f"


def test_wide_report_and_tampered_failures_match_pinned_digests():
    inst = _wide_instance(0)
    g = build_cloned_graph(inst, solve(inst)[0])
    cert = dual_assignment(g)
    text = render_certificate_report(g, cert, verify_certificate(g, cert))
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_REPORT_DIGEST

    # Besides the lifted pair, a last-resort goes negative and the last B
    # clone drops a level, so that clone–clone and clone–last-resort blocks
    # fail too.
    _, g, tampered = _tamper_lifted_pair(g, cert)
    alpha, level = dict(tampered.alpha), dict(g.level)
    alpha[next(u for u in g.vertices if u.kind is CloneKind.LAST_RESORT)] -= 1
    level[g.clones_of[VertexId(Side.B, len(inst.b_names) - 1)][-1]] -= 1
    g = dataclasses.replace(g, level=level)
    failures = verify_certificate(g, dataclasses.replace(tampered, alpha=alpha)).failures
    digest = hashlib.sha256("\n".join(failures).encode()).hexdigest()
    assert digest == WIDE_TAMPERED_FAILURES_DIGEST


def test_wide_graph_counts_are_pinned():
    # The benchmark reports len(g.edges) and len(g.vertices) as its
    # clone_edges and clone_vertices counters; both are pinned at the
    # values of the explicitly stored graph.
    inst = _wide_instance(0)
    leveled, _ = solve(inst)
    g = build_cloned_graph(inst, leveled)
    assert len(inst.edges) == 810
    assert (len(g.edges), len(g.vertices)) == (37714, 1196)


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


@pytest.mark.parametrize("where", ["above", "below"])
def test_dual_refuses_a_level_outside_the_run_range(short_supply_graph, where):
    g = short_supply_graph
    # A clone lifted onto a real partner: only a parked clone skips the
    # range check.
    u = _clone(Side.A, 0, 1)
    assert g.mstar[u].kind is CloneKind.CLONE
    planted = g.leveled.top + 1 if where == "above" else -1
    g = dataclasses.replace(g, level={**g.level, u: planted})
    with pytest.raises(ValueError, match=r"^a1\.1 sits outside the level range$"):
        dual_assignment(g)


def test_lifted_pairs_cancel(capacity_switch_graph):
    cert = dual_assignment(capacity_switch_graph)
    for u, w in capacity_switch_graph.mstar.items():
        assert cert.alpha[u] + cert.alpha[w] == 0


def test_heaviest_covering_matching_weighs_the_dual_sum(
    short_supply, capacity_switch, one_post
):
    # LP duality without the closed-form dual: the heaviest matching that
    # covers every clone and dummy, found by a separate Hungarian solver
    # over g.edges, weighs 0, which is the sum of the dual values.
    instances = [short_supply, capacity_switch, one_post]
    instances += [
        generate_random_instance(GenParams(n_a=6, n_b=6, seed=seed))
        for seed in range(40)
    ]
    for inst in instances:
        leveled, _ = solve(inst)
        g = build_cloned_graph(inst, leveled)
        assert max_covering_weight(g) == 0 == sum(dual_assignment(g).alpha.values())


def _planted_swap(g):
    """g with a positive 4-cycle planted, or None: two lifted pairs
    (x1, y1) and (x2, y2) whose cross edges both exist get those cross
    edges at weight 1, so swapping partners gains 2."""
    lifted = [(x, y) for x, y in g.edges if g.mstar.get(x) == y]
    for (x1, y1), (x2, y2) in itertools.combinations(lifted, 2):
        if (x1, y2) in g.edges and (x2, y1) in g.edges:
            edges = {**g.edges, (x1, y2): 1, (x2, y1): 1}
            return types.SimpleNamespace(vertices=g.vertices, edges=edges, mstar=g.mstar)
    return None


def test_cycle_check_agrees_with_the_hungarian_reference(
    short_supply, capacity_switch, one_post
):
    # Cycle cancelling over the lift's residual digraph finds no positive
    # cycle where the Hungarian reference finds the lift heaviest.  On
    # copies with two edge weights moved, the two agree on whether some
    # covering matching outweighs the lift, and both catch a 4-cycle
    # planted on purpose.
    instances = [short_supply, capacity_switch, one_post]
    instances += [
        generate_random_instance(GenParams(n_a=6, n_b=6, seed=seed))
        for seed in range(40)
    ]
    rng = random.Random(5)
    planted = outweighed = 0
    for inst in instances:
        g = build_cloned_graph(inst, solve(inst)[0])
        assert not has_positive_cycle(g)
        for _ in range(5):
            edges = dict(g.edges)
            for e in rng.sample(sorted(edges), min(2, len(edges))):
                edges[e] += rng.choice([-1, 1, 2])
            tampered = types.SimpleNamespace(
                vertices=g.vertices, edges=edges, mstar=g.mstar
            )
            lift = sum(w for (x, y), w in edges.items() if g.mstar.get(x) == y)
            heavier = max_covering_weight(tampered) > lift
            assert has_positive_cycle(tampered) == heavier
            outweighed += heavier
        tampered = _planted_swap(g)
        if tampered is not None:
            planted += 1
            assert has_positive_cycle(tampered)
            assert max_covering_weight(tampered) >= 2
    assert planted >= 30 and outweighed >= 30


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
            "critical": True,
            "largest_size": True,
        }


def test_rendered_report_matches_golden_file(short_supply):
    # The golden file is what `popcrit solve` writes: the round at cap 2,
    # the first one its certificate proves.
    g = build_cloned_graph(short_supply, solve(short_supply, cap=2)[0])
    cert = dual_assignment(g)
    report = verify_certificate(g, cert)
    text = render_certificate_report(g, cert, report)
    assert text == (DATA / "short_supply_cert.txt").read_text()


def test_report_lists_vertices_in_sorted_order(high_quota_graph, deficient_graph):
    # The seeded acceptance suite makes the same comparison on 500 graphs.
    # Here: many clones and last-resorts, dummies on both sides, vertices
    # of upper quota 0 (no clones) and of lower quota equal to the upper
    # (no last-resorts) on each side, and a failing certificate.
    zero = parse_instance(
        "A a1 0 0\nA a2 2 2\nA a3 0 1\nB b1 0 0\nB b2 0 1\nB b3 2 2\n"
        "PREF a1 b2 b1\nPREF a2 b2\nPREF a3 b3\n"
        "PREF b1 a1\nPREF b2 a2 a1\nPREF b3 a3\n"
    )
    zero_graph = build_cloned_graph(zero, solve(zero)[0])
    assert not zero_graph.clones_of[VertexId(Side.A, 0)]
    assert not zero_graph.clones_of[VertexId(Side.B, 0)]
    assert zero_graph.dummies[Side.A] and zero_graph.dummies[Side.B]
    for g in (high_quota_graph, deficient_graph, zero_graph):
        cert = dual_assignment(g)
        skewed = dict(cert.alpha)
        skewed[g.vertices[0]] -= 1
        for dual in (cert, dataclasses.replace(cert, alpha=skewed)):
            report = verify_certificate(g, dual)
            assert report.ok is (dual is cert)
            text = render_certificate_report(g, dual, report)
            assert text == reference_report(g, dual, report)
            assert text.splitlines()[-1].startswith("VERDICT PASS" if report.ok else "VERDICT FAIL ")


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
        "largest_size: (a3.1, lr.a3.1) parks a clone of alpha -3 != 0",
        "zero_sum: alpha values sum to -3",
    )


def test_a_certificate_must_cover_exactly_the_graph(short_supply_graph):
    # A certificate that misses a vertex, or holds a value for anything
    # else, is refused by the verifier before any check and by the
    # renderer before any line: the sum would count the extra value, and a
    # missing one would end in a KeyError.
    g = short_supply_graph
    alpha, potential = dataclasses.astuple(dual_assignment(g))
    partial = {u: value for u, value in alpha.items() if u != g.dummies[Side.A][0]}
    no_b2 = {v: value for v, value in potential.items() if g.inst.name(v) != "b2"}
    report = verify_certificate(g, DualCertificate(alpha, potential))

    def render(g, cert):
        return render_certificate_report(g, cert, report)

    for use in (verify_certificate, render):
        with pytest.raises(ValueError, match=r"^certificate has no value for a1\.1$"):
            use(g, DualCertificate({}, potential))
        with pytest.raises(ValueError, match=r"^certificate has no value for dummy\.A\.1$"):
            use(g, DualCertificate(partial, potential))
        with pytest.raises(
            ValueError,
            match=r"^certificate has values for 1 entries that are not vertices of the graph$",
        ):
            use(g, DualCertificate({**alpha, "x": 5}, potential))
        with pytest.raises(ValueError, match=r"^certificate has no potential for a1$"):
            use(g, DualCertificate(alpha, {}))
        with pytest.raises(ValueError, match=r"^certificate has no potential for b2$"):
            use(g, DualCertificate(alpha, no_b2))
        with pytest.raises(
            ValueError,
            match=r"^certificate has potentials for 1 entries that are not vertices of the graph$",
        ):
            use(g, DualCertificate(alpha, {**potential, "x": 0}))


# ----------------------------------------------- criticality and largest size


def _named_potentials(g, cert):
    return {g.inst.name(v): value for v, value in cert.potential.items()}


def test_potentials_by_hand(short_supply_graph, capacity_switch_graph):
    # In short_supply a2 holds one partner of its lower quota 2.  The
    # alternating paths from it reach every vertex: a2 -> b1 unmatched,
    # b1 -> a1 matched, a1 -> b2 unmatched, b2 -> a2 and a3 matched.
    cert = dual_assignment(short_supply_graph)
    assert _named_potentials(short_supply_graph, cert) == dict.fromkeys(
        ["a1", "a2", "a3", "b1", "b2"], -1
    )
    # capacity_switch has minimum deficiency 0: no vertex is deficient.
    cert = dual_assignment(capacity_switch_graph)
    assert set(cert.potential.values()) == {0}


def test_tampered_potentials_are_caught(
    short_supply_graph, capacity_switch_graph, deficient_graph
):
    g = short_supply_graph
    cert = dual_assignment(g)
    a2 = VertexId(Side.A, 1)
    report = verify_certificate(g, dataclasses.replace(cert, potential={**cert.potential, a2: 0}))
    assert report.failures == (
        "critical: a2 is deficient but has potential 0",
        "critical: matched edge (a2, b2) has potentials 0 > -1",
    )
    assert report.failed_checks == ("critical",)
    assert render_certificate_report(g, cert, report).endswith("VERDICT FAIL critical\n")

    # Moving one potential by one either way, on every vertex: the verifier
    # agrees with the arc-by-arc reference, and some moves break the witness.
    broken = 0
    for g in (short_supply_graph, capacity_switch_graph, deficient_graph):
        cert = dual_assignment(g)
        for v in g.inst.all_vertices():
            for move in (-1, 1):
                moved = {**cert.potential, v: cert.potential[v] + move}
                tampered = dataclasses.replace(cert, potential=moved)
                report = verify_certificate(g, tampered)
                assert report == reference_verify(g, tampered)
                assert set(report.failed_checks) <= {"critical"}
                broken += not report.ok
    assert broken > 20


def test_a_non_critical_matching_fails_only_the_criticality_check():
    # a2 must hold 3 partners and holds none, and b1 takes a1, whose lower
    # quota is 0.  Giving b1 to a2 instead lowers the deficiency from 3 to 2,
    # so the matching is not critical: the path from a2 reaches a1, which
    # holds a surplus.  With t = 0 and top = 1, the run of a cap of 0, the
    # dual values still pass every check of popularity.
    inst = parse_instance(
        "A a1 0 1\nA a2 3 3\nB b1 0 1\nPREF a1 b1\nPREF a2 b1\nPREF b1 a1 a2\n"
    )
    a1, a2, b1 = VertexId(Side.A, 0), VertexId(Side.A, 1), VertexId(Side.B, 0)
    planted = LeveledMatching(levels={(a1, b1): 1}, max_level={a1: 1, a2: 1}, t=0, top=1)
    assert solve(inst, cap=0)[0] == planted
    g = build_cloned_graph(inst, planted)
    cert = dual_assignment(g)
    report = verify_certificate(g, cert)
    assert report.failures == ("critical: a1 holds a surplus but has potential -1",)
    assert report == reference_verify(g, cert)
    assert _named_potentials(g, cert) == {"a1": -1, "a2": -1, "b1": -1}


def test_dropping_a_matched_edge_breaks_the_witness_and_the_edge(short_supply):
    # Dropping (a3, b2) leaves a3 short of its lower quota, and the path
    # from a3 reaches b2, which has room again.  The dropped edge then joins
    # two clones that both gain by it, so it weighs 2, while the freed
    # clones carry at most 0 between them: no dual values from the levels
    # pass it, so criticality never fails alone this way.
    leveled, _ = solve(short_supply)
    a3, b2 = VertexId(Side.A, 2), VertexId(Side.B, 1)
    levels = {e: x for e, x in leveled.levels.items() if e != (a3, b2)}
    g = build_cloned_graph(short_supply, dataclasses.replace(leveled, levels=levels))
    cert = dual_assignment(g)
    report = verify_certificate(g, cert)
    assert report == reference_verify(g, cert)
    assert "critical: b2 has room but has potential -1" in report.failures
    assert "edge_inequalities: (a3.1, b2.1) has alpha sum 0 < weight 2" in report.failures


def test_a_tight_edge_to_a_parked_clone_fails_only_the_size_rule():
    # b1.1 is parked on b1's last-resort, at alpha 0.  Moving a unit of
    # alpha from a2.1 to its lifted partner b2.1 keeps every check of
    # popularity, but makes the edge (a2.1, b1.1), of weight 2, tight:
    # b1 could then take a2 in a larger popular critical matching.
    inst = parse_instance(
        "A a1 1 1\nA a2 1 1\nB b1 0 1\nB b2 1 1\n"
        "PREF a1\nPREF a2 b1 b2\nPREF b1 a2\nPREF b2 a2\n"
    )
    g = build_cloned_graph(inst, solve(inst)[0])
    cert = dual_assignment(g)
    assert verify_certificate(g, cert).ok
    a2_1, b2_1 = _clone(Side.A, 1, 1), _clone(Side.B, 1, 1)
    assert g.mstar[a2_1] == b2_1
    assert g.mstar[_clone(Side.B, 0, 1)] == _resort(Side.B, 0, 1)
    alpha = {**cert.alpha, a2_1: cert.alpha[a2_1] - 1, b2_1: cert.alpha[b2_1] + 1}
    tampered = dataclasses.replace(cert, alpha=alpha)
    report = verify_certificate(g, tampered)
    assert report.failures == (
        "largest_size: tight edge (a2.1, b1.1) joins a clone of alpha 0 to a clone or a dummy",
    )
    assert report == reference_verify(g, tampered)

    # A clone parked on a last-resort must itself carry 0: moving a unit
    # between b1.1 and its last-resort keeps the pair tight.
    b1_1, lr = _clone(Side.B, 0, 1), _resort(Side.B, 0, 1)
    alpha = {**cert.alpha, b1_1: -1, lr: 1}
    tampered = dataclasses.replace(cert, alpha=alpha)
    report = verify_certificate(g, tampered)
    assert report.failures == ("largest_size: (lr.b1.1, b1.1) parks a clone of alpha -1 != 0",)
    assert report == reference_verify(g, tampered)


def test_report_ok_is_pure_bookkeeping():
    report = CertificateReport(checks=(("zero_sum", False),), failures=("x",))
    assert not report.ok
    assert report.failed_checks == ("zero_sum",)


# ------------------------------------------------------------ rival lifting


def _assert_perfect_pairing(g, nstar):
    """Each clone and each dummy lies on exactly one edge of the lift, each
    last-resort on at most one, and every edge is one of g's.  The weight
    alone cannot see a clone dropped from a parking that weighs 0."""
    ends = Counter(u for e in nstar for u in e)
    assert set(ends) <= set(g.vertices)
    for u in g.vertices:
        assert ends[u] <= 1 if u.kind is CloneKind.LAST_RESORT else ends[u] == 1
    assert all(e in g.edges for e in nstar)


@pytest.mark.parametrize(
    "graph_name",
    ["short_supply_graph", "capacity_switch_graph", "high_quota_graph", "deficient_graph"],
)
def test_identity_lift_recovers_the_matching_lift(graph_name, request):
    g = request.getfixturevalue(graph_name)
    nstar = map_matching_to_clones(g, g.inst, g.leveled.matching, Correspondence({}))
    expected = frozenset(_canonical(u, w) for u, w in g.mstar.items())
    assert nstar == expected
    assert clone_matching_weight(g, g.inst, nstar) == 0


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


def test_lift_and_weight_refuse_an_instance_other_than_the_graphs(
    short_supply_graph, short_supply
):
    g, m = short_supply_graph, short_supply_graph.leveled.matching
    reversed_b = dataclasses.replace(
        short_supply, b_prefs=tuple(p[::-1] for p in short_supply.b_prefs)
    )
    n = parse_matching(reversed_b, "a1 b2\na2 b1\na2 b2\n")
    corr = random_correspondence(reversed_b, n, m, random.Random(0))
    # Lifted and weighed against g's instance, n would weigh -3, while its
    # vote total under the instance passed is +1.
    assert delta(reversed_b, n, m, corr) == 1
    with pytest.raises(ValueError, match="instance differs"):
        map_matching_to_clones(g, reversed_b, n, corr)
    lifted = map_matching_to_clones(g, short_supply, n, corr)
    assert clone_matching_weight(g, short_supply, lifted) == delta(short_supply, n, m, corr) == -3
    with pytest.raises(ValueError, match="instance differs"):
        clone_matching_weight(g, reversed_b, lifted)
    # An equal copy of g's instance is the same instance.
    copy = dataclasses.replace(short_supply)
    assert copy is not g.inst
    assert map_matching_to_clones(g, copy, n, corr) == lifted
    assert clone_matching_weight(g, copy, lifted) == -3


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
        _assert_perfect_pairing(g, nstar)
        value = delta(inst, n, m, corr)
        assert clone_matching_weight(g, inst, nstar) == value
        assert value <= 0


def _moves(steps):
    """Up to two (kind, pick, step) moves of cloned-graph vertices."""
    kinds = st.sampled_from([CloneKind.CLONE, CloneKind.DUMMY, CloneKind.LAST_RESORT])
    return st.lists(st.tuples(kinds, st.integers(0, 10**6), steps), max_size=2)


def _apply_moves(g, values, moves):
    values = dict(values)
    for kind, pick, step in moves:
        of_kind = [u for u in g.vertices if u.kind is kind]
        if of_kind:
            values[of_kind[pick % len(of_kind)]] += step
    return values


@settings(max_examples=80, deadline=None)
@given(
    params=st.one_of(
        st.sampled_from(["high_quota_graph", "deficient_graph"]),
        st.builds(
            GenParams,
            n_a=st.integers(2, 6),
            n_b=st.integers(2, 6),
            max_upper=st.integers(1, 4),
            lq_fraction=st.sampled_from([0.2, 0.5, 0.8]),
            edge_density=st.sampled_from([0.3, 0.6, 0.9]),
            seed=st.integers(0, 100_000),
        ),
    ),
    alpha_moves=_moves(st.integers(-3, 1)),
    level_moves=_moves(st.integers(-2, 2)),
)
# The first two examples each fail one check on some block: a same-level
# true edge that weighs 2, and a one-level-down edge.  The last two tamper
# with a lifted clone–clone pair, checked on the lift: b1.1's partner a4.1
# loses a unit of alpha, so the pair fails the edge inequality and
# tightness together, and b3.1 drops two levels below its partner a1.1.
# The fifth lowers one dummy on each side, so that clone–dummy blocks of
# both orientations fail.
@example(
    params=GenParams(n_a=5, n_b=5, max_upper=1, lq_fraction=0.5, edge_density=0.9, seed=63691),
    alpha_moves=[],
    level_moves=[(CloneKind.CLONE, 4, 1)],
)
@example(params="deficient_graph", alpha_moves=[], level_moves=[(CloneKind.CLONE, 0, 2)])
@example(params="deficient_graph", alpha_moves=[(CloneKind.CLONE, 6, -1)], level_moves=[])
@example(params="deficient_graph", alpha_moves=[], level_moves=[(CloneKind.CLONE, 11, -2)])
@example(
    params="deficient_graph",
    alpha_moves=[(CloneKind.DUMMY, 0, -1), (CloneKind.DUMMY, -1, -1)],
    level_moves=[],
)
def test_block_checks_match_the_pair_by_pair_reference(
    high_quota_graph, deficient_graph, params, alpha_moves, level_moves
):
    # Moving alpha reaches the edge inequalities, tightness and the
    # last-resort and sum checks; moving levels reaches the level checks,
    # which alpha does not touch.
    if params == "high_quota_graph":
        g = high_quota_graph
    elif params == "deficient_graph":
        g = deficient_graph
    else:
        inst = generate_random_instance(params)
        assume(inst.edges)
        g = build_cloned_graph(inst, solve(inst)[0])
    cert = dual_assignment(g)
    cert = dataclasses.replace(cert, alpha=_apply_moves(g, cert.alpha, alpha_moves))
    g = dataclasses.replace(g, level=_apply_moves(g, g.level, level_moves))
    assert verify_certificate(g, cert) == reference_verify(g, cert)


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
        _assert_perfect_pairing(g, nstar)
        assert clone_matching_weight(g, inst, nstar) == delta(inst, n, m, corr)
