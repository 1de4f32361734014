"""The rounds of `popcrit solve`: the solver runs on the level ranges of
caps 2, 4, 8, ... and then the paper's range, and the first round whose
certificate proves its answer critical, popular and largest is kept.

The fixtures ``needs_*.inst`` need a later round: their first answers
are refused, and the answer kept must be the oracle's.  Every solve and
every verification goes through the names ``popcrit.cli`` imports, so the
tests record the rounds by wrapping those names.
"""

from __future__ import annotations

import random
import time

import pytest

from popcrit import (
    CertificateReport,
    GenParams,
    deficiency,
    generate_random_instance,
    max_delta,
    oracle_solve,
    parse_instance,
    serialize_matching,
    solve,
)
from popcrit import cli
from popcrit.cli import main

from conftest import DATA, load_instance

# Each fixture: the least cap whose round the certificate proves, the caps
# of the rounds run (None for the paper's range, the last one kept), and
# its oracle answer: the number of matchings, the minimum deficiency with
# its sides, the numbers of critical and of popular critical matchings,
# the largest popular critical size and its one popular critical matching.
FIXTURES = {
    "needs_cap3.inst": (
        3, [2, 4],
        (96, (0, 0, 0), 1, 1, 5), "a1 b4\na2 b1\na2 b2\na4 b2\na4 b3\n",
    ),
    "needs_cap5.inst": (
        5, [2, 4, 8],
        (314, (3, 0, 3), 1, 1, 6), "a1 b1\na2 b3\na3 b5\na3 b6\na4 b7\na5 b2\n",
    ),
    "needs_full_range.inst": (
        3, [2, None],
        (21, (0, 0, 0), 1, 1, 3), "a1 b4\na2 b2\na3 b1\n",
    ),
}


@pytest.fixture
def rounds(monkeypatch):
    """The caps of the solve calls the command makes, and the reports of
    the certificates it verifies, in the order it makes them."""
    seen = {"caps": [], "reports": []}
    solve_, verify = cli.solve, cli.verify_certificate

    def solve_recorded(inst, cap=None):
        seen["caps"].append(cap)
        return solve_(inst, cap=cap)

    def verify_recorded(g, cert):
        report = verify(g, cert)
        seen["reports"].append(report)
        return report

    monkeypatch.setattr(cli, "solve", solve_recorded)
    monkeypatch.setattr(cli, "verify_certificate", verify_recorded)
    return seen


def _agrees_with_the_oracle(inst, m) -> bool:
    result = oracle_solve(inst)
    d = deficiency(inst, m)
    return (
        (d.total, d.total_a, d.total_b)
        == (result.min_deficiency, result.min_def_a, result.min_def_b)
        and m.size == result.max_popular_size
        and any(m.pairs == p.pairs for p in result.popular_critical)
    )


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_oracle_answers_are_pinned(name):
    inst = load_instance(name)
    _, _, pinned, matching = FIXTURES[name]
    result = oracle_solve(inst)
    assert (
        result.matching_count,
        (result.min_deficiency, result.min_def_a, result.min_def_b),
        result.critical_count,
        len(result.popular_critical),
        result.max_popular_size,
    ) == pinned
    assert serialize_matching(inst, result.popular_critical[0]) == matching


@pytest.mark.parametrize("name", FIXTURES)
def test_the_rounds_keep_a_later_round_on_each_fixture(name, rounds):
    inst = load_instance(name)
    need, caps, _, _ = FIXTURES[name]
    # The certificate refuses the round one cap short of the need, and
    # proves the one at the need.
    for cap, ok in ((need - 1, False), (need, True)):
        cli._prove(inst, solve(inst, cap=cap)[0])
        assert rounds["reports"].pop().ok is ok
    rounds["caps"].clear()

    leveled, trace, proof = cli._solve_rounds(inst)
    assert rounds["caps"] == caps
    assert [report.ok for report in rounds["reports"]] == [False] * (len(caps) - 1) + [
        True
    ] * (caps[-1] is not None)
    kept = solve(inst, cap=caps[-1])[0]
    assert leveled == kept and trace.t == kept.t
    # The paper's range is kept without a proof yet; a capped round with
    # the proof that passed.
    assert (proof is None) is (caps[-1] is None)
    m = leveled.matching
    assert _agrees_with_the_oracle(inst, m)
    paper = solve(inst)[0].matching
    assert deficiency(inst, m) == deficiency(inst, paper)
    assert m.size == paper.size
    assert max_delta(inst, m, paper) == max_delta(inst, paper, m) == 0


@pytest.mark.parametrize("name", FIXTURES)
def test_the_command_certifies_and_replays_the_kept_round(name, tmp_path, capsys):
    path = str(DATA / name)
    trace, cert = tmp_path / "trace.csv", tmp_path / "cert.txt"
    argv = ["solve", path, "--emit-trace", str(trace), "--emit-certificate", str(cert)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    count = cli._solve_rounds(load_instance(name))[1].proposal_count
    assert out.endswith(f"# proposals {count}\n")
    assert cert.read_text().splitlines()[-1] == "VERDICT PASS"
    assert main(["trace", path, str(trace)]) == 0
    assert capsys.readouterr().out == f"MATCH {count} proposals\n"


def test_a_refused_round_sends_the_rounds_on(rounds, monkeypatch):
    # a2 must hold 3 partners and b1 is its only one, so s = 3 and the
    # rounds run cap 2 and then the paper's range.  The first round is
    # planted at cap 0, where b1 goes to a1 beyond a1's lower quota 0: the
    # certificate passes every check but criticality, and the rounds go on.
    inst = parse_instance(
        "A a1 0 1\nA a2 3 3\nB b1 0 1\nPREF a1 b1\nPREF a2 b1\nPREF b1 a1 a2\n"
    )
    recorded = cli.solve
    monkeypatch.setattr(
        cli, "solve", lambda inst, cap=None: recorded(inst, cap=0 if cap == 2 else cap)
    )
    leveled, _, proof = cli._solve_rounds(inst)
    assert rounds["caps"] == [0, None]
    assert rounds["reports"][0].failed_checks == ("critical",)
    assert proof is None
    assert leveled == solve(inst)[0]
    assert _agrees_with_the_oracle(inst, leveled.matching)


def test_the_paper_range_is_kept_whatever_its_report(rounds, monkeypatch, tmp_path, capsys):
    # With every report refused, the rounds run every cap below max(s, t)
    # = 9 and end with the paper's range; the command then reports FAIL.
    monkeypatch.setattr(
        cli, "verify_certificate",
        lambda g, cert: CertificateReport((("zero_sum", False),), ("x",)),
    )
    inst = load_instance("needs_cap5.inst")
    leveled, _, proof = cli._solve_rounds(inst)
    assert rounds["caps"] == [2, 4, 8, None]
    assert proof is None and leveled == solve(inst)[0]
    cert = str(tmp_path / "cert.txt")
    assert main(["solve", str(DATA / "needs_cap5.inst"), "--emit-certificate", cert]) == 2
    assert capsys.readouterr().err == "certificate FAIL: zero_sum\n"


def test_the_rounds_agree_with_the_oracle_on_a_seeded_sweep():
    # Dense lower quotas, so that max(s, t) exceeds 2 and capped rounds run;
    # at this seed 393 of the 400 answers kept come from one.
    start = time.perf_counter()
    rng = random.Random(37)
    capped = swept = 0
    while swept < 400:
        params = GenParams(
            n_a=rng.randint(3, 5), n_b=rng.randint(3, 5), max_upper=3,
            lq_fraction=rng.choice([0.8, 1.0]), edge_density=0.5,
            seed=rng.randrange(10**6),
        )
        inst = generate_random_instance(params)
        if not 1 <= len(inst.edges) <= 14:
            continue
        swept += 1
        leveled, _, proof = cli._solve_rounds(inst)
        assert _agrees_with_the_oracle(inst, leveled.matching), params
        capped += proof is not None
    assert capped > 350
    assert time.perf_counter() - start < 3.0
