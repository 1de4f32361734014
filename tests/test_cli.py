from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import fields

import pytest

from popcrit import (
    DualCertificate,
    GenParams,
    cli,
    dual_assignment,
    generate_random_instance,
    parse_instance,
    read_trace_csv,
    serialize_instance,
    solve,
)
from popcrit.cli import main

from conftest import DATA, run_interpreter
from reference_trace_csv import reference_trace_csv

SHORT_SUPPLY = str(DATA / "short_supply.inst")
CAPACITY_SWITCH = str(DATA / "capacity_switch.inst")


def test_solve_prints_matching_and_stats(capsys):
    assert main(["solve", SHORT_SUPPLY]) == 0
    out = capsys.readouterr().out
    assert out == (
        "a1 b1\na2 b2\na3 b2\n"
        "# deficiency 1 (A 1, B 0)\n"
        "# size 3\n"
        "# proposals 21\n"
    )


def test_solve_emits_trace_and_certificate(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    cert_path = tmp_path / "cert.txt"
    code = main(
        [
            "solve",
            SHORT_SUPPLY,
            "--emit-trace",
            str(trace_path),
            "--emit-certificate",
            str(cert_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert trace_path.read_text() == (DATA / "short_supply_trace.csv").read_text()
    assert cert_path.read_text() == (DATA / "short_supply_cert.txt").read_text()


def test_solve_exits_two_when_the_certificate_fails(monkeypatch, tmp_path, capsys):
    def skewed_dual(g):
        cert = dual_assignment(g)
        alpha = dict(cert.alpha)
        alpha[g.vertices[0]] += 1
        return DualCertificate(alpha, cert.potential)

    monkeypatch.setattr("popcrit.cli.dual_assignment", skewed_dual)
    cert_path = tmp_path / "cert.txt"
    assert main(["solve", SHORT_SUPPLY, "--emit-certificate", str(cert_path)]) == 2
    # a1.1 is lifted onto b1, so its pair is no longer tight.
    assert capsys.readouterr().err == "certificate FAIL: zero_sum,matched_edges_tight\n"
    last = cert_path.read_text().splitlines()[-1]
    assert last == "VERDICT FAIL zero_sum,matched_edges_tight"


def test_verify_reports_deficiency_and_blocking(capsys):
    assert main(["verify", SHORT_SUPPLY, str(DATA / "short_supply_m1.match")]) == 0
    out = capsys.readouterr().out
    assert out == "deficiency 2 (A 2, B 0)\nfeasible no\nblocking_pairs 0\n"


def test_verify_feasible_matching(capsys):
    assert main(["verify", CAPACITY_SWITCH, str(DATA / "capacity_switch_m1.match")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "deficiency 0 (A 0, B 0)"
    assert out[1] == "feasible yes"


def test_oracle_agrees_with_solver(capsys):
    assert main(["oracle", SHORT_SUPPLY]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "matchings 21",
        "min_deficiency 1 (A 1, B 0)",
        "critical 4",
        "popular_critical 2",
        "max_popular_size 3",
        "solver_deficiency 1 (A 1, B 0)",
        "solver_size 3",
        "solver_popular yes",
        "PASS",
    ]


def test_oracle_list_prints_every_popular_matching(capsys):
    assert main(["oracle", SHORT_SUPPLY, "--list"]) == 0
    out = capsys.readouterr().out
    assert "# popular_critical 1" in out
    assert "# popular_critical 2" in out
    assert "a1 b1\na2 b2\na3 b2\n" in out
    assert out.rstrip().endswith("PASS")


def test_oracle_budget_is_enforced(capsys):
    assert main(["oracle", SHORT_SUPPLY, "--budget", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_refuses_an_instance_past_the_edge_ceiling_at_any_budget(
    tmp_path, capsys
):
    # 1,600 edges: a search over 2**1600 subsets would never finish.
    inst = tmp_path / "big.inst"
    args = ["gen", "--n-a", "40", "--n-b", "40", "--edge-density", "1"]
    assert main([*args, "--out", str(inst)]) == 0
    assert main(["oracle", str(inst), "--budget", "5000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1600" in err and "64" in err


def test_gen_is_deterministic_per_seed(tmp_path, capsys):
    first = tmp_path / "one.inst"
    second = tmp_path / "two.inst"
    args = ["gen", "--n-a", "4", "--n-b", "3", "--seed", "11"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_text() == second.read_text()
    assert main(["gen", "--seed", "12", "--out", str(second)]) == 0
    assert first.read_text() != second.read_text()


def test_gen_to_stdout_then_solve(tmp_path, capsys):
    assert main(["gen", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.inst"
    path.write_text(text)
    assert main(["solve", str(path)]) == 0


def test_gen_options_are_the_generator_parameters(capsys):
    # GenParams states the parameters and their defaults once: gen with no
    # options writes GenParams()'s instance, and its options are exactly the
    # dataclass's fields and --out.
    assert main(["gen"]) == 0
    assert capsys.readouterr().out == serialize_instance(
        generate_random_instance(GenParams())
    )
    options = set(vars(cli._build_parser().parse_args(["gen"]))) - {"subcommand", "func"}
    assert options == {f.name for f in fields(GenParams)} | {"out"}


@pytest.mark.parametrize(
    "args, message",
    [
        (("--n-a", "0"), "need at least one vertex on each side"),
        (("--n-b", "0"), "need at least one vertex on each side"),
        (("--max-upper", "0"), "max_upper must be at least 1"),
        (("--lq-fraction", "1.5"), "lq_fraction must lie in [0, 1]"),
        (("--edge-density", "0"), "edge_density must lie in (0, 1]"),
        (
            ("--n-a", "100000000", "--n-b", "2"),
            "n_a * n_b must be at most 1,000,000 vertex pairs",
        ),
    ],
    # "--n-a-0-need at least ...": each argument joined, as separate
    # parameters would be.
    ids=lambda value: "-".join(value) if isinstance(value, tuple) else None,
)
def test_gen_refuses_a_bad_parameter(args, message, capsys):
    assert main(["gen", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_trace_replay_matches(tmp_path, capsys):
    assert main(["trace", SHORT_SUPPLY, str(DATA / "short_supply_trace.csv")]) == 0
    assert capsys.readouterr().out == "MATCH 21 proposals\n"


def test_special_names_are_traced_bare_and_replayed(tmp_path, capsys):
    # Legal names that look special in a trace CSV: `-` and `^` as in the
    # rejected column, a header word, a quote csv does not use, a non-ASCII
    # letter.
    path = DATA / "special_names.inst"
    trace_path = tmp_path / "trace.csv"
    assert main(["solve", str(path), "--emit-trace", str(trace_path)]) == 0
    capsys.readouterr()
    inst = parse_instance(path.read_text())
    assert {"-", "^", "x^1", "seq", "'", "é"} == set(inst.a_names + inst.b_names)
    trace = solve(inst)[1]
    assert trace_path.read_text() == reference_trace_csv(inst, trace)
    assert main(["trace", str(path), str(trace_path)]) == 0
    assert capsys.readouterr().out == f"MATCH {trace.proposal_count} proposals\n"


def test_trace_replay_detects_divergence(tmp_path, capsys):
    lines = (DATA / "short_supply_trace.csv").read_text().splitlines()
    row = lines[5].split(",")
    row[4] = "b2" if row[4] == "b1" else "b1"
    lines[5] = ",".join(row)
    mutated = tmp_path / "mutated.csv"
    mutated.write_text("\n".join(lines) + "\n")
    assert main(["trace", SHORT_SUPPLY, str(mutated)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "MISMATCH at proposal 5"
    assert out[1].startswith("expected ")
    assert out[2].startswith("actual   ")


# The recorded trace of short_supply has a header and 21 rows.
_RECORDED = (DATA / "short_supply_trace.csv").read_text().splitlines()


@pytest.mark.parametrize(
    "lines, verdict",
    [
        # Shorter: only the fresh trace has row 20.
        (_RECORDED[:20], ["MISMATCH at proposal 20", "actual   " + _RECORDED[20]]),
        # Longer: only the recording has row 22.
        (_RECORDED + ["22,a1,0,2,b1,1,-,1"], ["MISMATCH at proposal 22", "expected 22,a1,0,2,b1,1,-,1"]),
        # The last row differs.
        (
            _RECORDED[:-1] + [_RECORDED[-1] + "0"],
            ["MISMATCH at proposal 21", "expected " + _RECORDED[-1] + "0", "actual   " + _RECORDED[-1]],
        ),
        # A header without rows.
        (_RECORDED[:1], ["MISMATCH at proposal 1", "actual   " + _RECORDED[1]]),
    ],
    ids=["shorter", "longer", "last_row", "header_only"],
)
def test_trace_replay_reports_the_first_differing_row(lines, verdict, tmp_path, capsys):
    recorded = tmp_path / "recorded.csv"
    recorded.write_text("\n".join(lines) + "\n")
    assert main(["trace", SHORT_SUPPLY, str(recorded)]) == 2
    assert capsys.readouterr().out.splitlines() == verdict


@pytest.mark.parametrize("row", [0, 3], ids=["bad_header", "mismatch"])
def test_trace_with_a_csv_error_after_a_mismatch_exits_one(row, tmp_path, capsys):
    # The header or row 3 differs, and the file holds a field above csv's
    # 131,072-character limit further on: the whole recording is read
    # before any verdict.
    lines = list(_RECORDED)
    lines[row] = lines[row].replace("a", "z")
    lines[20] = "20," + "x" * 200_000
    recorded = tmp_path / "recorded.csv"
    recorded.write_text("\n".join(lines) + "\n")
    assert main(["trace", SHORT_SUPPLY, str(recorded)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trace is not valid CSV: field larger than field limit (131072)\n"
    # read_trace_csv reads the recording through the same reader.
    with pytest.raises(ValueError) as exc:
        read_trace_csv(recorded.read_text())
    assert captured.err == f"error: {exc.value}\n"


def test_trace_reports_a_bad_header_before_solving(monkeypatch, tmp_path, capsys):
    def unexpected(inst, cap=None):
        raise AssertionError("solved before the recorded header was checked")

    monkeypatch.setattr("popcrit.cli.solve", unexpected)
    recorded = tmp_path / "recorded.csv"
    recorded.write_text("\n".join(["seq,a"] + _RECORDED[1:]) + "\n")
    assert main(["trace", SHORT_SUPPLY, str(recorded)]) == 1
    assert capsys.readouterr().err.startswith("error: trace header must be ")


def test_trace_replay_holds_no_row_lists(tmp_path, capsys):
    # The kept round has 21,524 proposals, a 0.7 MB CSV.  Reading both
    # traces into row lists, as the command once did, peaks at 19.8 MB
    # under tracemalloc (Python 3.11); comparing two streams of rows, the
    # fresh one read back block by block, peaks at 12.0 MB, most of it the
    # instance and the certificates of the rounds.
    inst = generate_random_instance(GenParams(n_a=1000, n_b=1000, edge_density=0.01, seed=1))
    (tmp_path / "big.inst").write_text(serialize_instance(inst))
    assert main(["solve", str(tmp_path / "big.inst"), "--emit-trace", str(tmp_path / "big.csv")]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["trace", str(tmp_path / "big.inst"), str(tmp_path / "big.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "MATCH 21524 proposals\n"
    assert peak < 16 * 2**20


def test_trace_with_an_oversized_field_exits_one(tmp_path, capsys):
    # csv.reader refuses fields above its 131,072-character limit.
    huge = tmp_path / "huge.csv"
    huge.write_text("seq,a,level,c_a,b,c_b,rejected,matching_size\n1," + "x" * 200_000 + "\n")
    assert main(["trace", SHORT_SUPPLY, str(huge)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exits_one(capsys):
    assert main(["solve", "no_such_file.inst"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_running_out_of_memory_exits_one(monkeypatch, capsys):
    # The command is replaced, so no memory is actually exhausted.
    def exhausted(inst, cap=None):
        raise MemoryError

    monkeypatch.setattr("popcrit.cli.solve", exhausted)
    assert main(["solve", SHORT_SUPPLY]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_the_module_runs_as_a_program_with_each_exit_code(tmp_path):
    def run(*argv):
        return run_interpreter("-m", "popcrit.cli", *argv)

    solved = run("solve", SHORT_SUPPLY)
    assert solved.returncode == 0
    assert solved.stdout.endswith("# proposals 21\n")
    missing = run("solve", str(tmp_path / "missing.inst"))
    assert missing.returncode == 1
    assert missing.stderr.startswith("error:")
    tampered = tmp_path / "tampered.csv"
    tampered.write_text(
        (DATA / "short_supply_trace.csv").read_text().replace("b1", "b2", 1)
    )
    replayed = run("trace", SHORT_SUPPLY, str(tampered))
    assert replayed.returncode == 2
    assert replayed.stdout.startswith("MISMATCH at proposal ")


def test_invalid_matching_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.match"
    bad.write_text("a3 b1\n")
    assert main(["verify", SHORT_SUPPLY, str(bad)]) == 1
    assert "not an edge" in capsys.readouterr().err


def test_an_invalid_matching_is_reported_alike_under_every_hash_seed(
    tmp_path, monkeypatch
):
    # Each vertex accepts only its own partner, and the matching pairs
    # every vertex with another's: three bad pairs, so a message naming
    # whichever comes first in set order would change with the hash seed.
    inst = tmp_path / "own.inst"
    inst.write_text(
        "".join(f"A a{i} 0 1\nB b{i} 0 1\n" for i in (1, 2, 3))
        + "".join(f"PREF a{i} b{i}\nPREF b{i} a{i}\n" for i in (1, 2, 3))
    )
    bad = tmp_path / "crossed.match"
    bad.write_text("a1 b2\na2 b3\na3 b1\n")
    errors = set()
    for seed in range(8):
        monkeypatch.setenv("PYTHONHASHSEED", str(seed))
        out = run_interpreter("-m", "popcrit.cli", "verify", str(inst), str(bad))
        assert out.returncode == 1
        errors.add(out.stderr)
    assert errors == {"error: (a1, b2) is not an edge of the instance\n"}


def test_invalid_instance_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.inst"
    bad.write_text("A a1 2 1\nB b1 0 1\nPREF a1 b1\nPREF b1 a1\n")
    assert main(["solve", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bogus"], ["solve"], []])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    capsys.readouterr()


def test_the_parser_built_once_prints_what_fresh_parsers_print(
    monkeypatch, capsys
):
    runs = [
        ["solve"],
        ["solve", SHORT_SUPPLY],
        ["oracle", CAPACITY_SWITCH, "--list"],
        ["verify", SHORT_SUPPLY, str(DATA / "short_supply_m1.match")],
    ]

    def run_all():
        printed = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            printed.append((code, *capsys.readouterr()))
        return printed

    assert cli._build_parser() is cli._build_parser()
    reused = run_all()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert run_all() == reused
    assert [code for code, _, _ in reused] == [1, 0, 0, 0]


# sha256 of the stdout of `popcrit solve --emit-trace` and of the trace CSV
# for `popcrit gen` instances, recorded before the solver moved to int ids.
# They pin the paper's range: the command's rounds are replaced by the one
# round of library `solve(inst)`, so they hold while that stays as it was.
SOLVE_DIGESTS = [
    (
        ["--n-a", "6", "--n-b", "5", "--seed", "1"],
        "d78109a31e40fa905917e6042a19b9eb2f2419339343c19213c0451a891f546d",
        "ee2c342456c5198ece4ebb479286308c52c33958466cd01331fed26d0a084e84",
    ),
    (
        ["--n-a", "10", "--n-b", "10", "--edge-density", "0.4", "--seed", "2"],
        "b203d90213ab2a36b85c8584896fa78efac93f1ac819ff8a8a5d414ec8552752",
        "2aacd08dc118eb537722e686ea05c87c7e145476b784391ecc830f53af378fcf",
    ),
    (
        ["--n-a", "12", "--n-b", "8", "--max-upper", "4", "--lq-fraction", "0.8", "--seed", "3"],
        "63b44726b3ec0838e9b1aa9bb1a68bfdf499d048fb46495b62f3c2a7da0e7d51",
        "5783863f867b671be847be878d0d83d071cc2aef843b57ee37aac227fb95ea0b",
    ),
    (
        ["--n-a", "8", "--n-b", "12", "--max-upper", "2", "--lq-fraction", "0.3",
         "--edge-density", "0.6", "--seed", "4"],
        "dc1a4e7ca4d51b7f2fe4f4f5245d16961498c7e360a54f8583724b31568f20d5",
        "952ebf33363d9c38e32d15cd505684e4d54712e8a60ac040543fc21df7b5f4fb",
    ),
    (
        ["--n-a", "20", "--n-b", "20", "--edge-density", "0.2", "--seed", "5"],
        "d6df778f95d1415c1a5219dd09127e2b209ce950537a3cd541739e50fe8f8c23",
        "adb31ebba9a104e447621027a9d9b8ba35ecdfd7699c3dc3ffb39620c7e23f7c",
    ),
    (
        ["--n-a", "15", "--n-b", "15", "--max-upper", "5", "--lq-fraction", "1.0",
         "--edge-density", "0.3", "--seed", "6"],
        "c484267225975eaa18a2bc7e4b72b3d2f4551d0c2399cf8dac114e6a9cf7f95d",
        "f8d2a9f9c005fb4a66bf4335a0039561e29d1e21b209a39c5175063204caefcf",
    ),
]

# The same for the round `popcrit solve` keeps.  The first instance has
# s = t = 2, so its only round is the paper's range.
KEPT_ROUND_DIGESTS = [
    (SOLVE_DIGESTS[0][0], *SOLVE_DIGESTS[0][1:]),
    (
        SOLVE_DIGESTS[1][0],
        "8c69033555b135b07a84eb53faa302cd3c46985b4bcf35dafb3bc4d7a36ccd00",
        "1cb5aff9063bc7ba8a2aa15e60fc487ccedd9712c6a45458024d2cd58cfac78a",
    ),
    (
        SOLVE_DIGESTS[2][0],
        "f11368846dbd7d1bbe114eb8e395369d52b50ab7a3f9a4859a7e325ed7e6df41",
        "dd65139ecfab5374bb11a240f3ce46da6f21c4d6f06536d0ee5b5f610d569e04",
    ),
    (
        SOLVE_DIGESTS[3][0],
        "a794a131f7d468cc617e9dcf159187d8ecfe268e267188660df512fe55d85f4e",
        "e0eb73f48d73382494bebcc845c6ab838de6a6e62767502e0f2ed6d7e24f5d19",
    ),
    (
        SOLVE_DIGESTS[4][0],
        "991d8e82e794b7a1feafa2d692ea934f6e9aa55884b6c91e161f9c9896dcf011",
        "ffe8be45332a6055187be47ee149878a1e9e388146a58f45fb0d05e0f3832e49",
    ),
    (
        SOLVE_DIGESTS[5][0],
        "9166c32de220e03adfd0616edd19fca353d84acbfa23c4779b7237c1429eb555",
        "fdfd1a3773d72305ab89e8fffd8cef79e1924a39b3fe2075f754e382a0eef0e5",
    ),
]


def _solve_digests(gen_args, tmp_path, capsys) -> tuple[str, str]:
    """sha256 of the stdout of `popcrit solve --emit-trace` on a `popcrit
    gen` instance, and of its trace CSV."""
    inst, trace = tmp_path / "gen.inst", tmp_path / "trace.csv"
    assert main(["gen", *gen_args, "--out", str(inst)]) == 0
    assert main(["solve", str(inst), "--emit-trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(trace.read_bytes()).hexdigest()


@pytest.mark.parametrize("gen_args, stdout_digest, trace_digest", SOLVE_DIGESTS)
def test_solve_output_matches_pinned_digests(
    gen_args, stdout_digest, trace_digest, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "_solve_rounds", lambda inst: (*solve(inst), None))
    assert _solve_digests(gen_args, tmp_path, capsys) == (stdout_digest, trace_digest)


@pytest.mark.parametrize("gen_args, stdout_digest, trace_digest", KEPT_ROUND_DIGESTS)
def test_solve_output_of_the_kept_round_matches_pinned_digests(
    gen_args, stdout_digest, trace_digest, tmp_path, capsys
):
    assert _solve_digests(gen_args, tmp_path, capsys) == (stdout_digest, trace_digest)


def test_solve_traces_a_quota_beyond_64_bits(tmp_path, capsys):
    # The trace stores no quota, so an upper quota of 10**20 is rendered,
    # never packed into a fixed-width integer.
    path, trace = tmp_path / "huge.inst", tmp_path / "trace.csv"
    path.write_text("A a1 0 100000000000000000000\nB b1 0 1\nPREF a1 b1\nPREF b1 a1\n")
    assert main(["solve", str(path), "--emit-trace", str(trace)]) == 0
    assert capsys.readouterr().out.endswith("# proposals 2\n")
    assert trace.read_text() == (
        "seq,a,level,c_a,b,c_b,rejected,matching_size\n"
        "1,a1,0,100000000000000000000,b1,1,-,1\n"
        "2,a1,1,100000000000000000000,b1,1,-,1\n"
    )


def test_oracle_answers_for_a_quota_beyond_64_bits(tmp_path, capsys):
    path = tmp_path / "huge.inst"
    path.write_text("A a1 0 100000000000000000000\nB b1 0 1\nPREF a1 b1\nPREF b1 a1\n")
    assert main(["oracle", str(path), "--list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "matchings 2",
        "min_deficiency 0 (A 0, B 0)",
        "critical 2",
        "popular_critical 1",
        "max_popular_size 1",
        "solver_deficiency 0 (A 0, B 0)",
        "solver_size 1",
        "solver_popular yes",
        "# popular_critical 1",
        "a1 b1",
        "PASS",
    ]


# An A vertex and a B vertex without capacity; each once crashed the solver.
ZERO_UPPER_QUOTA = [
    "A a1 0 0\nA a2 0 1\nB b1 0 1\nPREF a1 b1\nPREF a2 b1\nPREF b1 a1 a2\n",
    "A a1 1 1\nB b1 0 0\nPREF a1 b1\nPREF b1 a1\n",
]


@pytest.mark.parametrize("text", ZERO_UPPER_QUOTA, ids=["side_a", "side_b"])
def test_vertex_with_upper_quota_zero_solves_and_certifies(text, tmp_path, capsys):
    path, cert = tmp_path / "zero.inst", tmp_path / "cert.txt"
    path.write_text(text)
    assert main(["solve", str(path), "--emit-certificate", str(cert)]) == 0
    assert "VERDICT PASS" in cert.read_text().splitlines()
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.endswith("\nPASS\n")


# sha256 of the stdout of `popcrit oracle --list` for `popcrit gen`
# instances of at most 14 edges; the first four list two or three popular
# critical matchings, so the digests also pin the order they are listed in.
ORACLE_DIGESTS = [
    (
        ["--n-a", "3", "--n-b", "4", "--lq-fraction", "1.0", "--edge-density", "0.9", "--seed", "1"],
        "ad4167f54a3cb5e5b1964bb8670dac637c18229d5629d57c94bd7cdea303d7db",
    ),
    (
        ["--n-a", "5", "--n-b", "5", "--max-upper", "2", "--seed", "5"],
        "aa1159b6250e3327ac6d579c6fdadf5eaf8a58dedbf02ee978ccc18d33b94791",
    ),
    (
        ["--n-a", "5", "--n-b", "5", "--max-upper", "2", "--seed", "3"],
        "7f1aab61b4d81e1cf5021bce3975c8a2a99913bf1075f65a5059ffb75e45d632",
    ),
    (
        ["--n-a", "4", "--n-b", "5", "--max-upper", "2", "--lq-fraction", "0.8",
         "--edge-density", "0.6", "--seed", "4"],
        "d9e266a1ba1f9dda7380c52bb861b6c17df8beceb3df9951db5d91839b262367",
    ),
    (
        ["--n-a", "5", "--n-b", "4", "--lq-fraction", "0.3", "--edge-density", "0.55", "--seed", "3"],
        "ffe1ce7a9034c3c23b9c49d54ab321b8b49dd09d74b8973c23b1b2b29d55b4d0",
    ),
    (
        ["--n-a", "5", "--n-b", "5", "--seed", "1"],
        "4f0e21cff440118e58507b7435999da1b8e3ae88d83a1da0e6ce56597d7ca13d",
    ),
]


@pytest.mark.parametrize("gen_args, digest", ORACLE_DIGESTS)
def test_oracle_list_matches_pinned_digests(gen_args, digest, tmp_path, capsys):
    inst = tmp_path / "gen.inst"
    assert main(["gen", *gen_args, "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["oracle", str(inst), "--list"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
