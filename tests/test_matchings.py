from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import pickle
import random
from types import MappingProxyType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from popcrit import (
    Correspondence,
    GenParams,
    LeveledMatching,
    Matching,
    MatchingError,
    Quotas,
    Side,
    VertexId,
    blocking_pairs,
    build_cloned_graph,
    check_matching,
    check_output_properties,
    deficiency,
    delta,
    enumerate_matchings,
    generate_random_instance,
    map_matching_to_clones,
    max_delta,
    parse_instance,
    parse_matching,
    random_correspondence,
    serialize_matching,
    solve,
    validate_correspondence,
    vertex_gain,
    vote,
)

from conftest import DATA, all_correspondences, run_python
from reference_correspondence import reference_validate_correspondence


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
    assert deficiency(short_supply, _load(short_supply, "short_supply_m2.match")).total != 0
    assert deficiency(capacity_switch, _load(capacity_switch, "capacity_switch_m1.match")).total == 0


def test_partners_and_size(short_supply):
    m = _load(short_supply, "short_supply_m2.match")
    b2 = VertexId(Side.B, 1)
    assert m.partners(b2) == {VertexId(Side.A, 1), VertexId(Side.A, 2)}
    assert m.partners(VertexId(Side.A, 0)) == {VertexId(Side.B, 0)}
    assert m.size == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("a1 b9", "^line 1: unknown vertex b9$"),
        ("b1 a1", "A-vertex, B-vertex"),
        ("a1 b1\na1 b1", "duplicate pair"),
        ("a3 b1", "not an edge"),
        ("a1 b1\na2 b1", "above its upper quota"),
        ("a1", "expected"),
    ],
)
def test_parse_matching_errors(short_supply, text, message):
    with pytest.raises(MatchingError, match=message):
        parse_matching(short_supply, text)


@settings(max_examples=200, deadline=None)
@given(
    text=st.one_of(
        st.text(),
        st.lists(
            st.sampled_from(["a1", "a2", "a3", "a4", "b1", "b2", "b3", "#", "\n"]), max_size=20
        ).map(" ".join),
    )
)
def test_parse_matching_fails_only_with_a_matching_error(short_supply, text):
    try:
        parse_matching(short_supply, text)
    except MatchingError:
        pass


def test_matching_round_trip(short_supply):
    m = _load(short_supply, "short_supply_m2.match")
    assert parse_matching(short_supply, serialize_matching(short_supply, m)) == m
    assert serialize_matching(short_supply, Matching(frozenset())) == ""


def test_check_matching_rejects_side_swap(short_supply):
    bad = Matching(frozenset({(VertexId(Side.B, 0), VertexId(Side.A, 0))}))
    with pytest.raises(MatchingError):
        check_matching(short_supply, bad)


def test_pairs_naming_unknown_vertices_raise_a_matching_error(short_supply):
    m2 = _load(short_supply, "short_supply_m2.match")
    for a, b in [(9, 0), (0, 9), (9, 9)]:
        bad = Matching(frozenset({(VertexId(Side.A, a), VertexId(Side.B, b))}))
        for check in (check_matching, deficiency, blocking_pairs):
            with pytest.raises(MatchingError, match="not an edge"):
                check(short_supply, bad)
        with pytest.raises(MatchingError, match="not an edge"):
            max_delta(short_supply, m2, bad)


_NOT_A_PAIR = "matching pairs must be (A-vertex, B-vertex)"
_A1, _A2 = VertexId(Side.A, 0), VertexId(Side.A, 1)
_B1, _B2 = VertexId(Side.B, 0), VertexId(Side.B, 1)


def _solved_with(inst, pair):
    """The solver's leveled matching for inst with pair added at level 0."""
    leveled, _ = solve(inst)
    return dataclasses.replace(leveled, levels={**leveled.levels, pair: 0})


# Each public function that takes a matching checks it first, so a bad
# one raises MatchingError instead of a KeyError or IndexError, a bad
# rendering, or a plain answer.
@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda inst: check_output_properties(inst, _solved_with(inst, (_B1, _A2))),
            _NOT_A_PAIR,
        ),
        (
            lambda inst: check_output_properties(inst, _solved_with(inst, (_A2, _B1))),
            "b1 is matched above its upper quota 1",
        ),
        (
            lambda inst: serialize_matching(inst, Matching(frozenset({(_B1, _A1)}))),
            _NOT_A_PAIR,
        ),
        (
            lambda inst: serialize_matching(
                inst, Matching(frozenset({(_A1, VertexId(Side.B, 9))}))
            ),
            "(a1, unknown vertex B[9]) is not an edge of the instance",
        ),
        (
            lambda inst: random_correspondence(
                inst, _solved_with(inst, (_B1, _A2)).matching, Matching(frozenset()),
                random.Random(0),
            ),
            _NOT_A_PAIR,
        ),
        (
            lambda inst: random_correspondence(
                inst, Matching(frozenset()), _solved_with(inst, (_A2, _B1)).matching,
                random.Random(0),
            ),
            "b1 is matched above its upper quota 1",
        ),
    ],
    ids=[
        "properties_reversed_pair",
        "properties_over_quota",
        "serialize_reversed_pair",
        "serialize_unknown_vertex",
        "correspondence_reversed_pair",
        "correspondence_over_quota",
    ],
)
def test_functions_taking_a_matching_check_it_first(short_supply, call, message):
    with pytest.raises(MatchingError) as excinfo:
        call(short_supply)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "check, error, message",
    [
        (
            lambda inst, m1: check_matching(inst, Matching(frozenset({("a", "b")}))),
            MatchingError,
            _NOT_A_PAIR,
        ),
        (
            lambda inst, m1: check_matching(
                inst,
                Matching(frozenset({("a", "b"), (_A1, VertexId(Side.B, 9))})),
            ),
            MatchingError,
            _NOT_A_PAIR,
        ),
        (
            lambda inst, m1: validate_correspondence(
                inst, m1, m1, Correspondence({"x": (), VertexId(Side.A, 99): ()})
            ),
            ValueError,
            "correspondence mentions unknown vertices: "
            "{VertexId(side=<Side.A: 'A'>, index=99), 'x'}",
        ),
        (
            # a1 is listed as it must be; a2 holds nothing in m1 and b2 in m2.
            lambda inst, m1: validate_correspondence(
                inst, m1, _load(inst, "short_supply_m2.match"),
                Correspondence({_A1: ((_B2, None),), _A2: (("x", _B2), (_B1, None))}),
            ),
            ValueError,
            "correspondence at a2 does not list the x side of its partner-set "
            "difference exactly once, with bottoms padding only the shorter side",
        ),
    ],
    ids=["strings", "strings_and_ids", "unknown_keys", "mixed_side"],
)
def test_entries_that_are_not_vertex_ids_raise_the_promised_error(
    short_supply, check, error, message
):
    # Such entries do not sort with vertex ids, and strings hash by the
    # seed, so the message must be chosen without sorting them together.
    with pytest.raises(error) as raised:
        check(short_supply, _load(short_supply, "short_supply_m1.match"))
    assert str(raised.value) == message


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


def _seeded_instance_and_rng(seed):
    params = GenParams(n_a=3, n_b=3, max_upper=3, edge_density=0.6, seed=seed)
    return generate_random_instance(params), random.Random(seed ^ 0xA5)


def _instance_and_rng(seed):
    inst, rng = _seeded_instance_and_rng(seed)
    assume(len(inst.edges) >= 1)
    return inst, rng


def _seeded_rival_pair(seed):
    """A small seeded instance, two of its matchings and the rng that drew
    them; the matchings may be empty or equal."""
    inst, rng = _seeded_instance_and_rng(seed)
    ms = list(enumerate_matchings(inst))
    return inst, rng, rng.choice(ms), rng.choice(ms)


def _mutations(inst, corr):
    """Every one-step edit of corr: a pair dropped, duplicated or with its
    ends swapped, either end of a pair replaced by any vertex or bottom, and
    a (bottom, bottom) or one-sided pair added at any vertex."""
    ends = [None, *inst.all_vertices()]
    for v in inst.all_vertices():
        listed = list(corr.pairs.get(v, ()))
        edits = []
        for i, (x, y) in enumerate(listed):
            before, after = listed[:i], listed[i + 1 :]
            edits += [before + after, listed + [(x, y)], before + [(y, x)] + after]
            for u in ends:
                edits += [before + [(u, y)] + after, before + [(x, u)] + after]
        edits += [listed + [(u, None)] for u in ends]
        edits += [listed + [(None, u)] for u in ends[1:]]
        for edit in edits:
            yield Correspondence({**corr.pairs, v: tuple(edit)})


def _accepts(check, inst, m, n, corr) -> bool:
    try:
        check(inst, m, n, corr)
    except ValueError:
        return False
    return True


def test_correspondence_check_agrees_with_the_written_out_reference():
    # Each mutant is checked right after its unmutated original has passed
    # with the same arguments, and then once more, so a check that
    # remembered a pass by anything but the very objects would show.
    verdicts = {True: 0, False: 0}
    for seed in range(80):
        inst, rng, m, n = _seeded_rival_pair(seed)
        for first, second in ((m, n), (n, m)):
            corr = random_correspondence(inst, first, second, rng)
            for mutant in _mutations(inst, corr):
                validate_correspondence(inst, first, second, corr)
                want = _accepts(
                    reference_validate_correspondence, inst, first, second, mutant
                )
                for _ in range(2):
                    got = _accepts(validate_correspondence, inst, first, second, mutant)
                    assert got == want, (seed, mutant)
                verdicts[want] += 1
    assert verdicts[True] > 500 and verdicts[False] > 10_000, verdicts


def test_a_passed_correspondence_is_checked_afresh_for_other_matchings():
    verdicts = {True: 0, False: 0}
    for seed in range(80):
        inst, rng, m, n = _seeded_rival_pair(seed)
        other = rng.choice(list(enumerate_matchings(inst)))
        corr = random_correspondence(inst, n, m, rng)
        for first, second in ((m, n), (other, m), (n, other), (n, m)):
            validate_correspondence(inst, n, m, corr)
            want = _accepts(reference_validate_correspondence, inst, first, second, corr)
            got = _accepts(validate_correspondence, inst, first, second, corr)
            assert got == want, (seed, first, second)
            verdicts[want] += 1
    assert verdicts[True] > 85 and verdicts[False] > 200, verdicts


def test_a_passed_matching_is_checked_afresh_against_a_changed_instance(short_supply):
    m2 = _load(short_supply, "short_supply_m2.match")  # a1-b1, a2-b2, a3-b2
    a3 = VertexId(Side.A, 2)
    a_prefs, b_prefs = short_supply.a_prefs, short_supply.b_prefs
    without_a3_b2 = dataclasses.replace(
        short_supply,
        a_prefs=(*a_prefs[:2], ()),
        b_prefs=(b_prefs[0], tuple(u for u in b_prefs[1] if u != a3)),
    )
    b2_holds_one = dataclasses.replace(
        short_supply, b_quotas=(short_supply.b_quotas[0], Quotas(1, 1))
    )
    for inst, message in (
        (without_a3_b2, "not an edge"),
        (b2_holds_one, "above its upper quota"),
    ):
        for check in (check_matching, deficiency, blocking_pairs):
            check_matching(short_supply, m2)
            with pytest.raises(MatchingError, match=message):
                check(inst, m2)
        with pytest.raises(MatchingError, match=message):
            max_delta(inst, m2, m2)


def test_a_passed_correspondence_is_checked_afresh_against_another_instance(
    short_supply,
):
    m2 = _load(short_supply, "short_supply_m2.match")
    m3 = _load(short_supply, "short_supply_m3.match")
    corr = random_correspondence(short_supply, m3, m2, random.Random(5))
    a3 = VertexId(Side.A, 2)
    assert a3 in corr.pairs
    without_a3 = dataclasses.replace(
        short_supply,
        a_names=short_supply.a_names[:2],
        a_quotas=short_supply.a_quotas[:2],
        a_prefs=short_supply.a_prefs[:2],
        b_prefs=tuple(
            tuple(u for u in listed if u != a3) for listed in short_supply.b_prefs
        ),
    )
    for _ in range(2):
        validate_correspondence(short_supply, m3, m2, corr)
        with pytest.raises(ValueError, match="unknown vertices"):
            validate_correspondence(without_a3, m3, m2, corr)


def test_correspondence_pairs_are_a_read_only_copy():
    a1, a2 = VertexId(Side.A, 0), VertexId(Side.A, 1)
    b1, b2 = VertexId(Side.B, 0), VertexId(Side.B, 1)
    given_pairs = {a1: [[b1, None]]}
    corr = Correspondence(given_pairs)
    assert isinstance(corr.pairs, MappingProxyType)
    with pytest.raises(TypeError):
        corr.pairs[a2] = ((b2, None),)
    with pytest.raises(TypeError):
        corr.pairs[a1] = ()
    given_pairs[a1][0][0] = b2
    given_pairs[a1].append([None, b1])
    given_pairs[a2] = [(b2, None)]
    assert dict(corr.pairs) == {a1: ((b1, None),)}


def test_matching_pairs_are_always_a_frozenset():
    pairs = {(VertexId(Side.A, 0), VertexId(Side.B, 0))}
    assert type(Matching(set(pairs)).pairs) is frozenset
    assert type(Matching(list(pairs)).pairs) is frozenset
    fixed = frozenset(pairs)
    assert Matching(fixed).pairs is fixed


def test_checked_matchings_and_correspondences_survive_pickling(short_supply):
    m2 = _load(short_supply, "short_supply_m2.match")
    m3 = _load(short_supply, "short_supply_m3.match")
    corr = random_correspondence(short_supply, m3, m2, random.Random(5))
    validate_correspondence(short_supply, m3, m2, corr)
    for thing in (m2, m3, corr):
        copy = pickle.loads(pickle.dumps(thing))
        assert copy == thing and type(copy.pairs) is type(thing.pairs)
    copies = [pickle.loads(pickle.dumps(t)) for t in (m3, m2, corr)]
    assert delta(short_supply, *copies) == delta(short_supply, m3, m2, corr)


def test_unknown_vertices_of_a_correspondence_are_listed_sorted(short_supply):
    ghosts = [VertexId(Side.B, 7), VertexId(Side.A, 9), VertexId(Side.A, 8)]
    listed = ", ".join(map(repr, sorted(ghosts)))
    with pytest.raises(ValueError) as raised:
        validate_correspondence(
            short_supply,
            Matching(frozenset()),
            Matching(frozenset()),
            Correspondence({g: () for g in ghosts}),
        )
    assert str(raised.value) == (
        f"correspondence mentions unknown vertices: {{{listed}}}"
    )


def test_a_pair_of_other_than_two_entries_is_named_by_its_vertex(short_supply):
    a1, b1 = VertexId(Side.A, 0), VertexId(Side.B, 0)
    empty = Matching(frozenset())
    leveled, _ = solve(short_supply)
    g = build_cloned_graph(short_supply, leveled)
    for pair, size in (((b1, None, None), 3), ((b1,), 1)):
        corr = Correspondence({a1: (pair,)})
        message = (
            f"^correspondence at a1 lists a pair of {size} entries; "
            r"each pair must be \(x, y\)$"
        )
        for check in (
            lambda: validate_correspondence(short_supply, empty, empty, corr),
            lambda: delta(short_supply, empty, empty, corr),
            lambda: map_matching_to_clones(g, short_supply, leveled.matching, corr),
        ):
            with pytest.raises(ValueError, match=message):
                check()


# sha256 of the random correspondences below, written out as names.  The
# benchmark's audit workload reads its delta values from such draws, so
# the order in which random_correspondence draws from the rng is pinned.
RANDOM_CORRESPONDENCE_DIGEST = (
    "f0e4d898d6825c069d3fbddc0465612d3ce9511eb975a6861211d8a8413f5c95"
)


def test_random_correspondence_draws_are_pinned():
    def name(u):
        return "-" if u is None else inst.name(u)

    lines = []
    for seed in range(200):
        inst, rng, m, n = _seeded_rival_pair(seed)
        for first, second in ((m, n), (n, m), (m, n)):
            corr = random_correspondence(inst, first, second, rng)
            lines.append(
                " ".join(
                    name(v) + ":" + ",".join(f"{name(x)}/{name(y)}" for x, y in listed)
                    for v, listed in corr.pairs.items()
                )
            )
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_CORRESPONDENCE_DIGEST


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
