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
        # int() alone reads these; the grammar is ASCII digits after an
        # optional minus sign, as serialize_instance writes them.
        ("A a1 \u0663 5\nPREF a1", "line 1: quotas must be integers"),
        ("B b1 1_0 1_2\nPREF b1", "line 1: quotas must be integers"),
        ("A a1 \uff11 \uff12\nPREF a1", "line 1: quotas must be integers"),
        ("A a1 +1 2\nPREF a1", "line 1: quotas must be integers"),
        ("A a1 --1 2\nPREF a1", "line 1: quotas must be integers"),
        ("A a1 1 -\nPREF a1", "line 1: quotas must be integers"),
        ("A a1 -1 2\nPREF a1", "negative quota on a1"),
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


def test_parse_reports_every_rule_fault_at_once():
    text = (
        "A a1 -1 2\nA a2 3 2\nB b1 0 1\n"
        "PREF a1 b1 b1\nPREF a2\nPREF b1 a1\n"
    )
    with pytest.raises(InstanceFormatError) as caught:
        parse_instance(text)
    assert str(caught.value) == (
        "negative quota on a1; duplicate preference entry on a1; "
        "lower quota 3 exceeds upper quota 2 on a2"
    )


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
    assert validate_instance(inst) == ["preference out of range on a1"]


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
    assert validate_instance(inst) == [
        "duplicate vertex name a1",
        "negative quota on a3",
        "lower quota 2 exceeds upper quota 1 on b1",
        "duplicate preference entry on b2",
    ]


@pytest.mark.parametrize(
    "bad",
    ["a 1", "a#1", "", "a\x0b1", "a,1", 'a"1'],
    ids=["space", "hash", "empty", "vertical-tab", "comma", "double-quote"],
)
def test_validate_refuses_a_name_an_instance_file_cannot_hold(short_supply, bad):
    # serialize_instance would write a file that parse_instance refuses, and
    # a comma or a double quote would need quoting in a trace CSV.
    inst = dataclasses.replace(short_supply, a_names=(bad, "a2", "a3"))
    message = f"vertex name {bad!r} must be one token without '#', ',' or '\"'"
    assert validate_instance(inst) == [message]


@pytest.mark.parametrize(
    "text, name",
    [
        # The clone of lr.b1 and b1's last-resort would both be lr.b1.1.
        (
            "A lr.b1 0 1\nA a2 0 1\nB b1 0 2\n"
            "PREF lr.b1 b1\nPREF a2 b1\nPREF b1 a2 lr.b1\n",
            "lr.b1",
        ),
        # The clone of dummy.B and side B's dummy would both be dummy.B.1.
        (
            "A dummy.B 1 1\nA a2 1 1\nB b1 1 1\nB b2 1 1\n"
            "PREF dummy.B b1\nPREF a2 b1\nPREF b1 a2 dummy.B\nPREF b2\n",
            "dummy.B",
        ),
    ],
    ids=["last-resort", "dummy"],
)
def test_validate_refuses_a_name_the_certificate_report_reserves(text, name):
    message = (
        f"vertex name {name!r} begins with a prefix the certificate report "
        f"reserves (lr. or dummy.)"
    )
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


def test_comments_and_blank_lines_are_ignored():
    text = "# instance\nA a1 0 1  # trailing\n\nB b1 0 1\nPREF a1 b1\nPREF b1 a1\n"
    inst = parse_instance(text)
    assert inst.a_names == ("a1",)
    assert len(inst.edges) == 1


@pytest.mark.parametrize(
    "field, cut, message",
    [
        (
            "a_prefs",
            lambda t: t[:-1],
            "side A has 3 names, 3 quotas and 2 preference lists",
        ),
        (
            "a_quotas",
            lambda t: t[:-1],
            "side A has 3 names, 2 quotas and 3 preference lists",
        ),
        (
            "b_names",
            lambda t: t + ("bx",),
            "side B has 3 names, 2 quotas and 2 preference lists",
        ),
    ],
    ids=["a_prefs", "a_quotas", "b_names"],
)
def test_validate_reports_a_side_of_unequal_counts(short_supply, field, cut, message):
    # Only an Instance built in code can hold such a side.  None of its
    # vertices can be read, so its counts are the one violation reported.
    changed = {field: cut(getattr(short_supply, field))}
    assert validate_instance(dataclasses.replace(short_supply, **changed)) == [message]


def test_validate_accepts_lower_quota_above_degree():
    # Such a vertex is deficient in every matching, but well formed.
    for lower in (1, 2):
        inst = parse_instance(f"A a1 {lower} 2\nB b1 0 1\nPREF a1 b1\nPREF b1 a1")
        assert validate_instance(inst) == []


def test_generator_is_deterministic_and_well_formed():
    params = GenParams(n_a=4, n_b=3, max_upper=3, seed=11)
    inst = generate_random_instance(params)
    assert inst == generate_random_instance(params)
    assert validate_instance(inst) == []
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
        assert validate_instance(inst) == [], path.name
