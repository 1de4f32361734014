from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from popcrit import (
    Correspondence,
    GenParams,
    Matching,
    MatchingError,
    Side,
    VertexId,
    blocking_pairs,
    check_matching,
    deficiency,
    delta,
    enumerate_matchings,
    generate_random_instance,
    is_feasible,
    max_delta,
    parse_instance,
    parse_matching,
    random_correspondence,
    serialize_matching,
    validate_correspondence,
    vertex_gain,
    vote,
)

from conftest import DATA, all_correspondences, run_python


def _load(inst, name):
    return parse_matching(inst, (DATA / name).read_text())


def _swapped(corr: Correspondence) -> Correspondence:
    return Correspondence(
        {v: tuple((y, x) for x, y in listed) for v, listed in corr.pairs.items()}
    )


# ---------------------------------------------------------------- matchings


def test_deficiencies_of_the_three_reference_matchings(short_supply):
    expected = {"short_supply_m1.match": (2, 2, 0), "short_supply_m2.match": (1, 1, 0), "short_supply_m3.match": (1, 1, 0)}
    for name, (total, total_a, total_b) in expected.items():
        d = deficiency(short_supply, _load(short_supply, name))
        assert (d.total, d.total_a, d.total_b) == (total, total_a, total_b), name


def test_feasibility(short_supply, capacity_switch):
    assert not is_feasible(short_supply, _load(short_supply, "short_supply_m2.match"))
    assert is_feasible(capacity_switch, _load(capacity_switch, "capacity_switch_m1.match"))


def test_partners_and_size(short_supply):
    m = _load(short_supply, "short_supply_m2.match")
    b2 = VertexId(Side.B, 1)
    assert m.partners(b2) == {VertexId(Side.A, 1), VertexId(Side.A, 2)}
    assert m.partners(VertexId(Side.A, 0)) == {VertexId(Side.B, 0)}
    assert m.size == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("a1 b9", "unknown vertex"),
        ("b1 a1", "A-vertex then a B-vertex"),
        ("a1 b1\na1 b1", "duplicate pair"),
        ("a3 b1", "not an edge"),
        ("a1 b1\na2 b1", "above its upper quota"),
        ("a1", "expected"),
    ],
)
def test_parse_matching_errors(short_supply, text, message):
    with pytest.raises(MatchingError, match=message):
        parse_matching(short_supply, text)


def test_matching_round_trip(short_supply):
    m = _load(short_supply, "short_supply_m2.match")
    assert parse_matching(short_supply, serialize_matching(short_supply, m)) == m
    assert serialize_matching(short_supply, Matching(frozenset())) == ""


def test_check_matching_rejects_side_swap(short_supply):
    bad = Matching(frozenset({(VertexId(Side.B, 0), VertexId(Side.A, 0))}))
    with pytest.raises(MatchingError):
        check_matching(short_supply, bad)


def test_blocking_pairs_on_reference_matchings(short_supply):
    # M1 leaves a2 unmatched, but both b's are full with partners they
    # prefer over a2, so nothing blocks
    assert blocking_pairs(short_supply, _load(short_supply, "short_supply_m1.match")) == []
    empty = Matching(frozenset())
    assert blocking_pairs(short_supply, empty) == sorted(short_supply.edges)


def test_blocking_pair_by_preference_swap():
    inst = parse_instance(
        "A a1 0 1\nA a2 0 1\nB b1 0 1\nB b2 0 1\n"
        "PREF a1 b1 b2\nPREF a2 b1\nPREF b1 a1 a2\nPREF b2 a1"
    )
    crossed = parse_matching(inst, "a1 b2\na2 b1")
    assert blocking_pairs(inst, crossed) == [
        (VertexId(Side.A, 0), VertexId(Side.B, 0))
    ]
    assert blocking_pairs(inst, parse_matching(inst, "a1 b1")) == []


# --------------------------------------------------------------------- votes


def test_vote_cases(short_supply):
    a1, b1, b2 = VertexId(Side.A, 0), VertexId(Side.B, 0), VertexId(Side.B, 1)
    assert vote(short_supply, a1, b1, b2) == 1
    assert vote(short_supply, a1, b2, b1) == -1
    assert vote(short_supply, a1, b1, b1) == 0
    assert vote(short_supply, a1, b1, None) == 1
    assert vote(short_supply, a1, None, b1) == -1
    assert vote(short_supply, a1, None, None) == 0
    with pytest.raises(ValueError):
        vote(short_supply, VertexId(Side.A, 2), b1, None)


def test_validate_correspondence_accepts_exact_cover(short_supply):
    m2 = _load(short_supply, "short_supply_m2.match")
    m3 = _load(short_supply, "short_supply_m3.match")
    rng = random.Random(3)
    for _ in range(5):
        corr = random_correspondence(short_supply, m3, m2, rng)
        validate_correspondence(short_supply, m3, m2, corr)
        assert isinstance(delta(short_supply, m3, m2, corr), int)


def test_validate_correspondence_rejects_wrong_bottom_count(short_supply):
    m2 = _load(short_supply, "short_supply_m2.match")  # a1-b1, a2-b2, a3-b2
    m1 = _load(short_supply, "short_supply_m1.match")  # a1-b1, a1-b2, a3-b2
    a1, a2 = VertexId(Side.A, 0), VertexId(Side.A, 1)
    b1, b2 = VertexId(Side.B, 0), VertexId(Side.B, 1)
    good = Correspondence(
        {a1: ((b2, None),), a2: ((None, b2),), b2: ((a1, a2),)}
    )
    validate_correspondence(short_supply, m1, m2, good)
    # a1 holds one more partner in m1 than in m2, so exactly one pad
    # belongs on the y side and none on the x side
    with pytest.raises(ValueError, match="bottoms"):
        validate_correspondence(
            short_supply,
            m1,
            m2,
            Correspondence(
                {a1: ((b2, None), (None, None)), a2: ((None, b2),), b2: ((a1, a2),)}
            ),
        )
    with pytest.raises(ValueError, match="exactly once"):
        validate_correspondence(
            short_supply, m1, m2, Correspondence({a1: ((b2, None),), b2: ((a1, a2),)})
        )


def test_validate_correspondence_rejects_unknown_vertex(short_supply):
    ghost = VertexId(Side.A, 9)
    with pytest.raises(ValueError, match="unknown"):
        validate_correspondence(
            short_supply,
            Matching(frozenset()),
            Matching(frozenset()),
            Correspondence({ghost: ()}),
        )


def test_delta_matches_worked_votes(one_post):
    a = lambda i: VertexId(Side.A, i - 1)
    b = VertexId(Side.B, 0)
    m = parse_matching(one_post, "a2 b\na3 b\na5 b")
    n = parse_matching(one_post, "a1 b\na4 b\na6 b")
    side_a = {a(i): ((b, None),) for i in (2, 3, 5)}
    side_a.update({a(i): ((None, b),) for i in (1, 4, 6)})
    corr1 = Correspondence({b: ((a(2), a(1)), (a(3), a(4)), (a(5), a(6))), **side_a})
    corr2 = Correspondence({b: ((a(2), a(1)), (a(5), a(4)), (a(3), a(6))), **side_a})
    assert delta(one_post, m, n, corr1) == 1
    assert delta(one_post, m, n, corr2) == -1
    assert max_delta(one_post, m, n) == 1


def test_max_delta_on_reference_pair(capacity_switch):
    m1 = _load(capacity_switch, "capacity_switch_m1.match")
    m2 = _load(capacity_switch, "capacity_switch_m2.match")
    assert max_delta(capacity_switch, m1, m2) == -1
    assert max_delta(capacity_switch, m2, m1) == 1


def test_max_delta_is_exact_over_enumerated_correspondences(short_supply):
    m2 = _load(short_supply, "short_supply_m2.match")
    for name in ("short_supply_m1.match", "short_supply_m3.match"):
        rival = _load(short_supply, name)
        values = [
            delta(short_supply, rival, m2, corr)
            for corr in all_correspondences(short_supply, rival, m2)
        ]
        assert max(values) == max_delta(short_supply, m2, rival), name


# One A-vertex that finds all of b0..b13 acceptable, in order, so that
# gained and lost sets of up to 7 partners each fit without overlap.
_ONE_VERTEX = parse_instance(
    "\n".join(
        ["A a0 0 7"]
        + [f"B b{i} 0 1" for i in range(14)]
        + ["PREF a0 " + " ".join(f"b{i}" for i in range(14))]
        + [f"PREF b{i} a0" for i in range(14)]
    )
)


def _brute_force_gain(inst, v, new_side, old_side):
    """Best vote total over every bijection of the padded differences."""
    gained = sorted(new_side - old_side)
    lost = sorted(old_side - new_side)
    size = max(len(gained), len(lost))
    rows = gained + [None] * (size - len(gained))
    cols = lost + [None] * (size - len(lost))
    table = [[vote(inst, v, x, y) for y in cols] for x in rows]
    return max(
        sum(row[j] for row, j in zip(table, perm))
        for perm in itertools.permutations(range(size))
    )


@settings(max_examples=100, deadline=None)
@given(
    gained=st.sets(st.integers(min_value=0, max_value=13), max_size=7),
    lost=st.sets(st.integers(min_value=0, max_value=13), max_size=7),
)
@example(gained=set(range(6, 12)), lost=set(range(6)))  # every gain worse: -6
def test_vertex_gain_matches_brute_force(gained, lost):
    a0 = VertexId(Side.A, 0)
    new = frozenset(VertexId(Side.B, i) for i in gained - lost)
    old = frozenset(VertexId(Side.B, i) for i in lost)
    want = _brute_force_gain(_ONE_VERTEX, a0, new, old)
    assert vertex_gain(_ONE_VERTEX, a0, new, old) == want
    if len(new) == len(old) and new and min(new) > max(old):
        assert want == -len(new)


def test_import_loads_neither_numpy_nor_scipy():
    code = (
        "import sys, popcrit\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    )
    assert run_python(code) == "[]"


# ---------------------------------------------------------------- properties

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None)


def _instance_and_rng(seed):
    params = GenParams(n_a=3, n_b=3, max_upper=3, edge_density=0.6, seed=seed)
    inst = generate_random_instance(params)
    assume(len(inst.edges) >= 1)
    return inst, random.Random(seed ^ 0xA5)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_random_correspondence_is_always_valid(seed):
    inst, rng = _instance_and_rng(seed)
    ms = list(enumerate_matchings(inst))
    m, n = rng.choice(ms), rng.choice(ms)
    corr = random_correspondence(inst, m, n, rng)
    validate_correspondence(inst, m, n, corr)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_delta_antisymmetry_under_swapped_correspondence(seed):
    inst, rng = _instance_and_rng(seed)
    ms = list(enumerate_matchings(inst))
    m, n = rng.choice(ms), rng.choice(ms)
    corr = random_correspondence(inst, m, n, rng)
    assert delta(inst, m, n, corr) == -delta(inst, n, m, _swapped(corr))


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_max_delta_dominates_every_sampled_correspondence(seed):
    inst, rng = _instance_and_rng(seed)
    ms = list(enumerate_matchings(inst))
    m, n = rng.choice(ms), rng.choice(ms)
    bound = max_delta(inst, m, n)
    for _ in range(4):
        corr = random_correspondence(inst, n, m, rng)
        assert delta(inst, n, m, corr) <= bound


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_max_delta_is_attained_by_some_correspondence(seed):
    inst, rng = _instance_and_rng(seed)
    ms = list(enumerate_matchings(inst))
    m, n = rng.choice(ms), rng.choice(ms)
    combinations = 1
    for v in inst.all_vertices():
        diff = max(
            len(n.partners(v) - m.partners(v)), len(m.partners(v) - n.partners(v))
        )
        combinations *= math.factorial(diff)
    assume(combinations <= 200)
    values = [delta(inst, n, m, corr) for corr in all_correspondences(inst, n, m)]
    assume(values)
    assert max(values) == max_delta(inst, m, n)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_identical_matchings_never_differ(seed):
    inst, rng = _instance_and_rng(seed)
    ms = list(enumerate_matchings(inst))
    m = rng.choice(ms)
    assert max_delta(inst, m, m) == 0
    assert delta(inst, m, m, Correspondence({})) == 0
