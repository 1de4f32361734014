from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popcrit import (
    GenParams,
    InstanceFormatError,
    Quotas,
    Side,
    VertexId,
    generate_random_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)

from conftest import DATA


def test_parse_short_supply_fields(short_supply):
    assert short_supply.a_names == ("a1", "a2", "a3")
    assert short_supply.b_names == ("b1", "b2")
    assert short_supply.quotas(VertexId(Side.A, 0)) == Quotas(1, 2)
    assert short_supply.quotas(VertexId(Side.A, 1)) == Quotas(2, 2)
    assert short_supply.quotas(VertexId(Side.B, 0)) == Quotas(0, 1)
    a1 = VertexId(Side.A, 0)
    b1, b2 = VertexId(Side.B, 0), VertexId(Side.B, 1)
    assert short_supply.pref(a1) == (b1, b2)
    assert short_supply.pref(VertexId(Side.B, 1)) == (
        VertexId(Side.A, 2),
        VertexId(Side.A, 0),
        VertexId(Side.A, 1),
    )
    assert short_supply.sum_lower(Side.A) == 4
    assert short_supply.sum_lower(Side.B) == 1
    assert len(short_supply.edges) == 5


@pytest.mark.parametrize("seed", range(8))
def test_cached_lower_sums_and_lists_match_a_recomputation(seed):
    inst = generate_random_instance(
        GenParams(n_a=5, n_b=4, max_upper=3, lq_fraction=0.5, seed=seed)
    )
    assert inst.sum_lower(Side.A) == sum(q.lower for q in inst.a_quotas)
    assert inst.sum_lower(Side.B) == sum(q.lower for q in inst.b_quotas)


def test_rank_and_degree(short_supply):
    b2 = VertexId(Side.B, 1)
    assert short_supply.rank(b2, VertexId(Side.A, 2)) == 0
    assert short_supply.rank(b2, VertexId(Side.A, 1)) == 2
    assert short_supply.degree(b2) == 3
    with pytest.raises(ValueError, match="not on the preference list"):
        short_supply.rank(VertexId(Side.B, 0), VertexId(Side.A, 2))


@pytest.mark.parametrize(
    "v, u, message",
    [
        ((Side.A, 0), (Side.B, 99), r"unknown vertex B\[99\] is not .* of a1$"),
        ((Side.A, 9), (Side.B, 0), r"^b1 is not .* of unknown vertex A\[9\]$"),
        ((Side.B, -1), (Side.A, 0), r"^a1 is not .* of unknown vertex B\[-1\]$"),
    ],
)
def test_rank_of_an_unknown_vertex_raises_a_value_error(short_supply, v, u, message):
    with pytest.raises(ValueError, match=message):
        short_supply.rank(VertexId(*v), VertexId(*u))


def test_serialize_parse_round_trip(short_supply):
    again = parse_instance(serialize_instance(short_supply))
    assert again == short_supply


@pytest.mark.parametrize(
    "text, message",
    [
        ("A a1 1", "expected 'A <name> <lower> <upper>'"),
        ("A a1 1 2\nA a1 0 1\nPREF a1", "duplicate vertex a1"),
        ("A a1 x 2\nPREF a1", "quotas must be integers"),
        ("A a1 -1 2\nPREF a1", "negative lower quota"),
        ("A a1 3 2\nPREF a1", "lower quota 3 exceeds upper quota 2"),
        ("A a1 0 1\nPREF a1\nB b1 0 1\nPREF b1", "declared after a PREF"),
        ("A a1 0 1\nPREF a1 b9", "unknown vertex b9"),
        ("A a1 0 1\nPREF a2", "unknown vertex a2"),
        ("A a1 0 1\nPREF a1\nPREF a1", "duplicate PREF line"),
        ("A a1 0 1\nB b1 0 1\nPREF a1 b1 b1\nPREF b1 a1", "duplicate preference entry"),
        ("X a1 0 1", "unknown record type"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(InstanceFormatError, match=message):
        parse_instance(text)


def test_parse_requires_pref_for_every_vertex():
    with pytest.raises(InstanceFormatError, match="missing PREF line for b1"):
        parse_instance("A a1 0 1\nB b1 0 1\nPREF a1")


def test_parse_rejects_non_mutual_preference():
    text = "A a1 0 1\nB b1 0 1\nPREF a1 b1\nPREF b1"
    with pytest.raises(InstanceFormatError, match="non-mutual"):
        parse_instance(text)


def test_parse_rejects_same_side_preference():
    text = "A a1 0 1\nA a2 0 1\nB b1 0 1\nPREF a1 a2\nPREF a2\nPREF b1"
    with pytest.raises(InstanceFormatError, match="same-side"):
        parse_instance(text)


def test_validate_reports_an_out_of_range_same_side_preference(short_supply):
    # Only an Instance built in code can hold this entry: a1 lists an
    # A-side vertex that does not exist.
    a_prefs = list(short_supply.a_prefs)
    a_prefs[0] += (VertexId(Side.A, 5),)
    inst = dataclasses.replace(short_supply, a_prefs=tuple(a_prefs))
    assert validate_instance(inst).violations == ["preference out of range on a1"]


def test_validate_reports_every_fault_parse_instance_refuses(short_supply):
    # parse_instance stops at the first of these faults, so only an
    # Instance built in code reaches validate_instance with all four.
    b_prefs = list(short_supply.b_prefs)
    b_prefs[1] += (VertexId(Side.A, 2),)
    inst = dataclasses.replace(
        short_supply,
        a_names=("a1", "a1", "a3"),
        a_quotas=(Quotas(1, 2), Quotas(2, 2), Quotas(-1, 1)),
        b_quotas=(Quotas(2, 1), Quotas(1, 2)),
        b_prefs=tuple(b_prefs),
    )
    assert validate_instance(inst).violations == [
        "duplicate vertex name a1",
        "negative quota on a3",
        "lower quota 2 exceeds upper quota 1 on b1",
        "duplicate preference entry on b2",
    ]


def test_comments_and_blank_lines_are_ignored():
    text = "# instance\nA a1 0 1  # trailing\n\nB b1 0 1\nPREF a1 b1\nPREF b1 a1\n"
    inst = parse_instance(text)
    assert inst.a_names == ("a1",)
    assert len(inst.edges) == 1


def test_validate_warns_on_lower_quota_above_degree():
    inst = parse_instance("A a1 1 2\nB b1 0 1\nPREF a1 b1\nPREF b1 a1")
    report = validate_instance(inst)
    assert report.ok
    assert not report.warnings
    inst2 = parse_instance("A a1 2 2\nB b1 0 1\nPREF a1 b1\nPREF b1 a1")
    report2 = validate_instance(inst2)
    assert report2.ok
    assert any("exceeds its degree" in w for w in report2.warnings)


def test_generator_is_deterministic_and_well_formed():
    params = GenParams(n_a=4, n_b=3, max_upper=3, seed=11)
    inst = generate_random_instance(params)
    assert inst == generate_random_instance(params)
    report = validate_instance(inst)
    assert report.ok
    for v in inst.all_vertices():
        q = inst.quotas(v)
        assert 0 <= q.lower <= q.upper <= 3


def test_generator_varies_with_seed():
    base = GenParams(n_a=4, n_b=4, seed=0)
    insts = {
        serialize_instance(generate_random_instance(GenParams(n_a=4, n_b=4, seed=s)))
        for s in range(6)
    }
    assert len(insts) > 1
    assert base  # the dataclass itself is hashable and reusable


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_identity_on_random_instances(seed):
    inst = generate_random_instance(GenParams(n_a=4, n_b=4, seed=seed))
    assert parse_instance(serialize_instance(inst)) == inst


# Words of the instance format, so that some generated text parses.
_INSTANCE_SOUP = st.lists(
    st.one_of(
        st.sampled_from(["A", "B", "PREF", "a1", "a2", "b1", "b2", "#", "\n"]),
        st.integers(min_value=-2, max_value=4).map(str),
    ),
    max_size=40,
).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(), _INSTANCE_SOUP))
def test_parse_instance_fails_only_with_a_format_error(text):
    try:
        inst = parse_instance(text)
    except InstanceFormatError:
        return
    assert parse_instance(serialize_instance(inst)) == inst


def test_fixture_files_all_parse_and_validate():
    for path in sorted(DATA.glob("*.inst")):
        inst = parse_instance(path.read_text())
        assert validate_instance(inst).ok, path.name
