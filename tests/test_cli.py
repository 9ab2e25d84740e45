"""End-to-end tests of the command line interface.

Everything runs in-process through click's CliRunner, so exit codes and
both output streams are observable without spawning subprocesses.
"""

import csv
import hashlib
import io
import json
import os
import sys

import pytest
from click.testing import CliRunner

import davlab.bounds
from davlab.cli import ENV_BUDGET_SECONDS, cli, main


def run(args, env=None):
    return CliRunner().invoke(cli, args, env=env)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------- involutions


def test_involutions_lists_splits():
    res = run(["involutions", "--n", "12", "--format", "csv"])
    assert res.exit_code == 0
    assert csv_rows(res.stdout) == [
        ["n", "s", "n1", "n2", "status"],
        ["12", "5", "3", "4", "ok"],
        ["12", "7", "4", "3", "ok"],
    ]


def test_involutions_empty_for_prime():
    res = run(["involutions", "--n", "7"])
    assert res.exit_code == 0
    assert "(no rows)" in res.stdout


def test_involutions_marks_missing_splits():
    # 24 has six square roots of 1 besides +-1 but only two admit a
    # coprime factorization with both parts >= 3.
    res = run(["involutions", "--n", "24", "--format", "csv"])
    assert res.exit_code == 0
    assert csv_rows(res.stdout) == [
        ["n", "s", "n1", "n2", "status"],
        ["24", "5", "", "", "no_valid_split"],
        ["24", "7", "8", "3", "ok"],
        ["24", "11", "", "", "no_valid_split"],
        ["24", "13", "", "", "no_valid_split"],
        ["24", "17", "3", "8", "ok"],
        ["24", "19", "", "", "no_valid_split"],
    ]


def test_involutions_rejects_bad_modulus():
    res = run(["involutions", "--n", "1"])
    assert res.exit_code == 2


# ---------------------------------------------------------------------- table


def test_table_scan_to_30():
    res = run(["table", "--n-max", "30", "--format", "csv"])
    assert res.exit_code == 0
    rows = csv_rows(res.stdout)
    assert rows[0] == ["n", "s", "n1", "n2", "lower", "exact", "upper"]
    assert len(rows) == 15
    assert rows[1] == ["12", "5", "3", "4", "5", "", "8"]
    assert rows[-1] == ["30", "19", "10", "3", "6", "", "9"]
    # Rows are sorted by (n, s) and every bracket is consistent.
    keys = [(int(r[0]), int(r[1])) for r in rows[1:]]
    assert keys == sorted(keys)
    assert all(int(r[4]) <= int(r[6]) for r in rows[1:])


def test_table_empty_below_first_split():
    res = run(["table", "--n-max", "11", "--format", "csv"])
    assert res.exit_code == 0
    assert csv_rows(res.stdout) == [
        ["n", "s", "n1", "n2", "lower", "exact", "upper"]
    ]


def test_table_exact_fills_column():
    res = run(["table", "--n-max", "15", "--exact", "--format", "csv"])
    assert res.exit_code == 0
    rows = csv_rows(res.stdout)[1:]
    assert [(r[0], r[1], r[5]) for r in rows] == [
        ("12", "5", "5"),
        ("12", "7", "7"),
        ("15", "4", "6"),
        ("15", "11", "6"),
    ]
    for r in rows:
        assert int(r[4]) <= int(r[5]) <= int(r[6])


def test_table_bound_violation_exits_4(monkeypatch):
    monkeypatch.setattr(davlab.bounds, "upper_bound", lambda split: 3)
    res = run(["table", "--n-max", "12", "--exact"])
    assert res.exit_code == 4
    assert "bound violation" in res.stderr


# ---------------------------------------------------------------------- exact


def test_exact_pm1():
    res = run(["exact", "--n", "8", "--weights", "pm1", "--format", "json"])
    assert res.exit_code == 0
    (row,) = json.loads(res.stdout)["rows"]
    assert row == {
        "n": 8,
        "weights": "1|7",
        "constant": 4,
        "exhaustive": True,
        "witness_count": 8,
        "witnesses": None,
    }


def test_exact_pm1_count_at_60():
    # the count comes from the class-level cores; no witness is built
    res = run(["exact", "--n", "60", "--weights", "pm1", "--format", "json"])
    assert res.exit_code == 0
    (row,) = json.loads(res.stdout)["rows"]
    assert (row["constant"], row["witness_count"]) == (6, 521728)


def test_exact_weight_families():
    res = run(["exact", "--n", "12", "--weights", "range:3", "--format", "json"])
    assert json.loads(res.stdout)["rows"][0]["constant"] == 4
    res = run(["exact", "--n", "12", "--weights", "onestwo:5", "--format", "json"])
    row = json.loads(res.stdout)["rows"][0]
    assert row["weights"] == "1|5"
    assert row["constant"] == 5
    assert row["witness_count"] == 68


def test_exact_witness_listing():
    res = run(
        ["exact", "--n", "4", "--weights", "1,3", "--witnesses",
         "--format", "json"]
    )
    (row,) = json.loads(res.stdout)["rows"]
    assert row["constant"] == 3
    assert row["witness_count"] == 2
    assert row["witnesses"] == "1 2|2 3"


@pytest.mark.parametrize("args, digest", [
    (["exact", "--n", "36", "--weights", "pm1", "--witnesses",
      "--format", "json"],
     "ef262c9c4043cd6ecfcf3ce509a88f371063a4afceb23c9615503fb4ba41c377"),
    (["exact", "--n", "12", "--weights", "onestwo:5", "--witnesses"],
     "625226c968aec04a0c0bda395ad9ac5e742cbe687b3db1ccb8fd618ff797d773"),
])
def test_exact_witness_listing_bytes(args, digest):
    # the listings byte for byte, in order: a change to the witness order or
    # to their formatting shows here
    res = run(args)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_exact_qr_warns_off_closed_form():
    res = run(["exact", "--n", "9", "--weights", "qr", "--format", "json"])
    assert res.exit_code == 0
    assert "not odd squarefree" in res.stderr
    row = json.loads(res.stdout)["rows"][0]
    assert row["weights"] == "1|4|7"
    assert row["constant"] == 5


def test_exact_usage_errors():
    assert run(["exact", "--n", "1", "--weights", "one"]).exit_code == 2
    assert run(["exact", "--n", "12", "--weights", "onestwo:3"]).exit_code == 2
    assert run(["exact", "--n", "12", "--weights", "range:0"]).exit_code == 2
    assert run(["exact", "--n", "12", "--weights", "bogus"]).exit_code == 2
    assert run(["exact", "--n", "12", "--weights", "0,1"]).exit_code == 2


def test_exact_truncation_exits_3():
    res = run(
        ["exact", "--n", "30", "--weights", "one", "--max-nodes", "50",
         "--format", "json"]
    )
    assert res.exit_code == 3
    assert "lower estimate" in res.stderr
    row = json.loads(res.stdout)["rows"][0]
    assert row["exhaustive"] is False
    assert row["constant"].startswith(">=")


# ------------------------------------------------------------------- classify


def test_classify_dihedral_3():
    res = run(["classify", "--n", "3", "--s", "2", "--length", "3",
               "--format", "csv"])
    assert res.exit_code == 0
    rows = csv_rows(res.stdout)[1:]
    assert len(rows) == 7
    assert sum(1 for r in rows if r[0] == "claimed") == 6
    assert [r[1] for r in rows if r[0] == "other"] == ["x xy xy^2"]


def test_classify_dihedral_5_claimed_only():
    res = run(["classify", "--n", "5", "--s", "4", "--length", "5",
               "--format", "csv"])
    rows = csv_rows(res.stdout)[1:]
    assert len(rows) == 20
    assert all(r[0] == "claimed" for r in rows)


def test_classify_semidirect_12():
    res = run(["classify", "--n", "12", "--s", "5", "--length", "12",
               "--format", "json"])
    rows = json.loads(res.stdout)["rows"]
    assert len(rows) == 48
    assert all(r["family"] == "claimed" for r in rows)
    res = run(["classify", "--n", "12", "--s", "5", "--length", "13",
               "--format", "csv"])
    assert csv_rows(res.stdout) == [["family", "sequence"]]


def test_classify_usage_errors():
    assert run(["classify", "--n", "12", "--s", "3", "--length", "5"]).exit_code == 2
    assert run(["classify", "--n", "4", "--s", "3", "--length", "0"]).exit_code == 2


def test_classify_truncation_exits_3():
    res = run(["classify", "--n", "12", "--s", "5", "--length", "12",
               "--max-nodes", "10", "--format", "csv"])
    assert res.exit_code == 3
    assert "may be incomplete" in res.stderr


# ------------------------------------------------------- formats and plumbing


def test_csv_json_carry_identical_fields():
    as_csv = run(["table", "--n-max", "30", "--format", "csv"])
    as_json = run(["table", "--n-max", "30", "--format", "json"])
    header, *rows = csv_rows(as_csv.stdout)
    parsed = json.loads(as_json.stdout)["rows"]
    assert len(rows) == len(parsed)
    for line, obj in zip(rows, parsed):
        for name, cell in zip(header, line):
            want = "" if obj[name] is None else str(obj[name])
            assert cell == want


def test_output_file_matches_stdout(tmp_path):
    target = tmp_path / "table.csv"
    direct = run(["table", "--n-max", "30", "--format", "csv"])
    res = run(["table", "--n-max", "30", "--format", "csv",
               "--output", str(target)])
    assert res.exit_code == 0
    assert res.stdout == ""
    assert target.read_text() == direct.stdout
    # The write-then-rename dance leaves no temporaries behind.
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def run_main(monkeypatch, capsys, args):
    """main() as the console script runs it: (exit code, stderr)."""
    monkeypatch.setattr(sys, "argv", ["davlab", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    return exc.value.code, capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, err = run_main(monkeypatch, capsys,
                         ["involutions", "--n", "24", "--output", str(target)])
    assert code == 2
    assert "Traceback" not in err
    assert str(target) in err
    assert list(tmp_path.iterdir()) == []


def test_failed_rename_exits_2_and_cleans_up(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "x.txt"
    code, err = run_main(monkeypatch, capsys,
                         ["involutions", "--n", "24", "--output", str(target)])
    assert code == 2
    assert "Traceback" not in err
    assert "Permission denied" in err
    # the written temporary is removed
    assert list(tmp_path.iterdir()) == []


def test_budget_env_validation():
    res = run(["exact", "--n", "8", "--weights", "pm1"],
              env={ENV_BUDGET_SECONDS: "abc"})
    assert res.exit_code == 2
    assert "must be a number" in res.stderr
    res = run(["exact", "--n", "8", "--weights", "pm1"],
              env={ENV_BUDGET_SECONDS: "0"})
    assert res.exit_code == 2
    assert "must be positive" in res.stderr


def test_budget_env_is_effective():
    res = run(["exact", "--n", "30", "--weights", "one"],
              env={ENV_BUDGET_SECONDS: "0.000001"})
    assert res.exit_code == 3
    assert "lower estimate" in res.stderr
    # An explicit flag overrides the environment.
    res = run(["exact", "--n", "30", "--weights", "one",
               "--budget-seconds", "60"],
              env={ENV_BUDGET_SECONDS: "0.000001"})
    assert res.exit_code == 0


def test_thread_count_never_changes_output():
    for args in (
        ["table", "--n-max", "30", "--exact", "--format", "csv"],
        ["classify", "--n", "12", "--s", "5", "--length", "12",
         "--format", "csv"],
    ):
        one = run(args + ["--threads", "1"])
        eight = run(args + ["--threads", "8"])
        assert one.exit_code == eight.exit_code == 0
        assert one.stdout == eight.stdout


def test_help_smoke():
    res = run(["--help"])
    assert res.exit_code == 0
    for name in ("involutions", "table", "exact", "classify"):
        assert name in res.stdout
