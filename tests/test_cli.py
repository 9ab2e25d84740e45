"""End-to-end tests of the command line interface.

Everything but one process-level check of the console script runs
in-process through click's CliRunner, so exit codes and both output streams
are observable without spawning subprocesses.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import types

import pytest
from click.testing import CliRunner

import davlab.bounds
import davlab.cli
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


def test_table_truncation_exits_3_with_a_note():
    # the rows, with their ">=" cells, byte for byte as they were before the
    # table printed a note
    res = run(["table", "--n-max", "40", "--exact", "--max-nodes", "200"])
    assert res.exit_code == 3
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == (
        "a2f8730f5186aa0abd1ad6be26eab7172a1f760f26f9c97f44b272ea998dd756")
    assert ">=" in res.stdout
    assert res.stderr == (
        "search truncated; exact cells marked >= are lower estimates\n")


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
    # a script's __main__ has no package, so click names the program
    # "davlab" however pytest itself was started
    monkeypatch.setitem(sys.modules, "__main__", types.ModuleType("__main__"))
    with pytest.raises(SystemExit) as exc:
        main()
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("args, digest", [
    (["exact", "--n", "5000", "--weights", "one"],
     "dcb2d03b92e5a5b1f6a01bae5cb0962d854d9fe1a3823c1ef2bfcbf66c780927"),
    (["classify", "--n", "12", "--s", "3", "--length", "5"],
     "f53331cdabe1e3a51c80f1dc2d71b6384efdad8db21f553c9a3002a183e1b6ff"),
    (["classify", "--n", "2", "--s", "1", "--length", "1"],
     "3c063b70bca99c7e52064f399c52eedc7be2f9ed69b02b2b4b07178cffcce998"),
    (["classify", "--n", "12", "--s", "5", "--length", "40"],
     "e541e9dbe6bf7e3a6267a72b06bb29427b1526ca7e0d04f586112e4a8a3c2a3f"),
    (["involutions", "--n", "1"],
     "bc40ac87a3590f3ce6425b572e2322ed52d9e4ee9b46a5486044dc3717137163"),
    (["exact", "--n", "12", "--weights", "pm1", "--threads", "0"],
     "58a23946966abf89308048bbe451c71c5e935664e2762b7554add318153881c2"),
    (["exact", "--n", "12", "--weights", "pm1", "--max-nodes", "0"],
     "7da8bdb9c61535ad6a10572776906b1e65c5fda50570866950ed20297b994dd1"),
    (["exact", "--n", "12", "--weights", "pm1", "--budget-seconds", "-1"],
     "dfcad7e4a5c4ac21bad6c62fd173402d9189f01ec870f3a9bc76090502f1879b"),
    (["exact", "--n", "1", "--weights", "one"],
     "23d20a5fdf5712b57dd304145652a19f7df7c8c527f1a3b63cbd87a09319c785"),
    (["exact", "--n", "12", "--weights", "bogus"],
     "e5c45177fdc8db76a406fa8332683f84fe15f1119db8488c173503260242c560"),
])
def test_usage_errors_alike_in_runner_and_main(args, digest, monkeypatch,
                                               capsys):
    # each rejected input exits 2 with the subcommand's usage lines, and
    # CliRunner and the console script print the same bytes; the digests
    # pin those bytes (TooLargeError, the library's ValueErrors, the
    # SearchBudget checks and the command bodies' own usage errors)
    res = CliRunner().invoke(cli, args, prog_name="davlab")
    code, err = run_main(monkeypatch, capsys, args)
    assert (code, err) == (res.exit_code, res.stderr)
    assert code == 2
    assert err.startswith(f"Usage: davlab {args[0]} [OPTIONS]\n")
    assert hashlib.sha256(err.encode()).hexdigest() == digest


def test_bound_violation_alike_in_runner_and_main(monkeypatch, capsys):
    monkeypatch.setattr(davlab.bounds, "upper_bound", lambda split: 3)
    args = ["table", "--n-max", "12", "--exact"]
    res = run(args)
    assert run_main(monkeypatch, capsys, args) == (res.exit_code, res.stderr)
    assert res.exit_code == 4
    assert res.stderr == ("bound violation: exact constant 5 escapes [5, 3] "
                          "for (n=12, s=5)\n")


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


def test_unwritable_output_alike_in_runner_and_main(tmp_path, monkeypatch,
                                                    capsys):
    args = ["involutions", "--n", "24",
            "--output", str(tmp_path / "missing" / "x.txt")]
    res = run(args)
    assert run_main(monkeypatch, capsys, args) == (res.exit_code, res.stderr)
    assert res.exit_code == 2


def test_interrupt_exits_130_in_runner_and_main(monkeypatch, capsys):
    def interrupt(n):
        raise KeyboardInterrupt

    monkeypatch.setattr(davlab.cli, "involutions", interrupt)
    args = ["involutions", "--n", "24"]
    res = run(args)
    assert run_main(monkeypatch, capsys, args) == (res.exit_code, res.stderr)
    assert res.exit_code == 130


def test_console_script_process_matches_runner():
    # the path the benchmark's set-up run times, in a fresh interpreter
    src = os.path.dirname(os.path.dirname(davlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def script(*args):
        return subprocess.run(
            [sys.executable, "-c", "from davlab.cli import main; main()",
             "involutions", *args],
            env=env, capture_output=True, text=True, timeout=60)

    proc = script("--n", "24")
    assert proc.returncode == 0
    assert proc.stdout == run(["involutions", "--n", "24"]).stdout
    assert script("--n", "1").returncode == 2


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
