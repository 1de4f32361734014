from __future__ import annotations

import pytest

from popcrit.cli import main

from conftest import DATA

SHORT_SUPPLY = str(DATA / "short_supply.inst")
CAPACITY_SWITCH = str(DATA / "capacity_switch.inst")


def test_solve_prints_matching_and_stats(capsys):
    assert main(["solve", SHORT_SUPPLY]) == 0
    out = capsys.readouterr().out
    assert out == (
        "a1 b1\na2 b2\na3 b2\n"
        "# deficiency 1 (A 1, B 0)\n"
        "# size 3\n"
        "# proposals 31\n"
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


def test_trace_replay_matches(tmp_path, capsys):
    assert main(["trace", SHORT_SUPPLY, str(DATA / "short_supply_trace.csv")]) == 0
    assert capsys.readouterr().out == "MATCH 31 proposals\n"


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


def test_trace_with_an_oversized_field_exits_one(tmp_path, capsys):
    # csv.reader refuses fields above its 131,072-character limit.
    huge = tmp_path / "huge.csv"
    huge.write_text("seq,a,level,c_a,b,c_b,rejected,matching_size\n1," + "x" * 200_000 + "\n")
    assert main(["trace", SHORT_SUPPLY, str(huge)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exits_one(capsys):
    assert main(["solve", "no_such_file.inst"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_matching_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.match"
    bad.write_text("a3 b1\n")
    assert main(["verify", SHORT_SUPPLY, str(bad)]) == 1
    assert "not an edge" in capsys.readouterr().err


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
