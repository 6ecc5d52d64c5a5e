import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from comaxlab import cli
from comaxlab.grid import Chain
from comaxlab.report import VerificationReport
from comaxlab.tnorms import TNorm

SRC = Path(__file__).resolve().parents[1] / "src"

RAMP0_JSON = {"vP": "0", "prefix": [], "alpha": "1", "beta": "0"}
RAMP1_JSON = {"vP": "1", "prefix": [], "alpha": "1", "beta": "0"}


def run_cli(*args, cwd=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "comaxlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_comonotone_check_finding_with_witness(tmp_path):
    a = write_json(tmp_path / "ramp0.json", RAMP0_JSON)
    b = write_json(tmp_path / "ramp1.json", RAMP1_JSON)
    out = tmp_path / "report.json"
    result = run_cli("comonotone-check", a, b, "--output", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["status"] == "finding"
    assert report["counts"]["non_comonotone_pairs"] == 1
    witness = report["witnesses"][0]
    assert witness["points"] == ["isolated", "seq(2)"]
    assert witness["product"] == "-1/4"


def test_comonotone_check_witness_names_the_limit(tmp_path):
    # f rises to 1 at seq(1) and ends at 0; g sits at 0 there and ends at 1.
    a = write_json(tmp_path / "f.json", {"vP": "0", "prefix": ["1"], "alpha": "0", "beta": "0"})
    b = write_json(tmp_path / "g.json", {"vP": "0", "prefix": ["0"], "alpha": "0", "beta": "1"})
    result = run_cli("comonotone-check", a, b)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["status"] == "finding"
    witness = report["witnesses"][0]
    assert witness["points"] == ["seq(1)", "limit"]
    assert witness["product"] == "-1"


def test_comonotone_check_pass_for_comonotone_files(tmp_path):
    a = write_json(tmp_path / "ramp1.json", RAMP1_JSON)
    b = write_json(tmp_path / "const.json", {"vP": "1/3", "prefix": [], "alpha": "0", "beta": "1/3"})
    result = run_cli("comonotone-check", a, b)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["status"] == "pass"
    assert report["counts"]["comonotone_pairs"] == 1


def test_malformed_function_file_exits_2(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"vP": "3/2", "prefix": [], "alpha": "0", "beta": "0"})
    ok = write_json(tmp_path / "ok.json", RAMP1_JSON)
    result = run_cli("comonotone-check", bad, ok)
    assert result.returncode == 2
    assert "outside [0,1]" in result.stderr


def test_bad_grid_flag_exits_2():
    result = run_cli("finite-census", "--grid", "0,nonsense,1")
    assert result.returncode == 2


def test_empty_grid_entry_exits_2():
    result = run_cli("finite-census", "--grid", "0,,1")
    assert result.returncode == 2
    assert "empty grid entry" in result.stderr
    assert result.stdout == ""


# A denominator past Python's 4,300-digit limit for converting a string to int.
LONG_RATIONAL = "1/" + "7" * 5000


def test_over_long_grid_entry_exits_2_with_one_short_line(capsys):
    assert cli.main(["finite-census", "--grid", f"0,{LONG_RATIONAL},1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --grid: "), captured.err
    assert "too many digits" in lines[0] and len(lines[0]) < 100


def test_over_long_function_value_exits_2_with_one_line(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {**RAMP1_JSON, "vP": LONG_RATIONAL})
    ok = write_json(tmp_path / "ok.json", RAMP1_JSON)
    assert cli.main(["comonotone-check", bad, ok]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), captured.err


def assert_one_cut_error_line(err, head, length):
    """One ``error:`` line: the message's first 200 characters and the message's length."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {head}"), err[:300]
    assert len(lines[0]) == len("error: ") + 200 + len(f"... ({length} characters)")
    assert lines[0].endswith(f"... ({length} characters)")


def test_long_malformed_grid_gives_one_cut_error_line(capsys):
    entry = "1/" + "7" * 3000 + "x"
    assert cli.main(["finite-census", "--grid", f"0,{entry},1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"--grid: not a rational: {entry!r}"
    assert_one_cut_error_line(captured.err, message[:200], len(message))


@pytest.mark.parametrize(
    "value, shown",
    [("1" + "0" * 3999, "1000"), ([0] * 3000, "[0, 0")],
    ids=["4000-digit-integer", "list-of-3000-zeros"],
)
def test_long_function_value_gives_one_cut_error_line(tmp_path, capsys, value, shown):
    bad = write_json(tmp_path / "bad.json", {**RAMP1_JSON, "vP": value})
    ok = write_json(tmp_path / "ok.json", RAMP1_JSON)
    assert cli.main(["comonotone-check", bad, ok]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = captured.err.splitlines()[0]
    assert shown in line
    length = int(line.rpartition("(")[2].split()[0])
    assert length > len(str(value))
    assert_one_cut_error_line(captured.err, f"{bad}: ", length)


def test_large_refused_count_gives_one_cut_error_line_and_the_exact_count(tmp_path, capsys):
    out = tmp_path / "refused.json"
    assert cli.main(["finite-census", "--n", "8", "--output", str(out)]) == 2
    required = 3 ** 3**8
    message = f"functional enumeration needs {required} items, over the budget of 10000000"
    assert_one_cut_error_line(capsys.readouterr().err, message[:200], len(message))
    assert json.loads(out.read_text())["counts"] == {"required": required, "budget": 10**7}


@pytest.mark.parametrize(
    "grid, reason",
    [
        ("0,1/2,1/3,1", "strictly increasing"),
        ("0,1/2,1/2,1", "strictly increasing"),
        ("1/2,1", "start at 0 and end at 1"),
        ("0,1/2", "start at 0 and end at 1"),
    ],
)
def test_grid_not_a_chain_exits_2_with_one_line(grid, reason, capsys):
    assert cli.main(["verify-counterexample", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert reason in lines[0]


OUT_OF_RANGE = [
    ("verify-counterexample", "--seed", "-1", "seed must be nonnegative"),
    ("verify-counterexample", "--samples", "0", "samples must be positive"),
    ("verify-counterexample", "--prefix-max", "0", "prefix-max must be positive"),
    ("verify-counterexample", "--budget", "0", "budget must be positive"),
    ("verify-counterexample", "--jobs", "0", "jobs must be positive"),
    ("finite-census", "--seed", "-1", "seed must be nonnegative"),
    ("finite-census", "--n", "0", "n must be positive"),
    ("finite-census", "--budget", "0", "budget must be positive"),
    ("integral-properties", "--seed", "-1", "seed must be nonnegative"),
    ("integral-properties", "--n", "0", "n must be positive"),
    ("integral-properties", "--budget", "0", "budget must be positive"),
    ("tnorm-axioms", "--seed", "-1", "seed must be nonnegative"),
    ("tnorm-axioms", "--budget", "0", "budget must be positive"),
    ("comonotone-check", "--seed", "-1", "seed must be nonnegative"),
    ("explore-problem1", "--seed", "-1", "seed must be nonnegative"),
    ("explore-problem1", "--samples", "0", "samples must be positive"),
    ("explore-problem1", "--prefix-max", "0", "prefix-max must be positive"),
    ("explore-problem1", "--budget", "0", "budget must be positive"),
]


@pytest.mark.parametrize(
    "subcommand, flag, value, message", OUT_OF_RANGE, ids=[" ".join(a[:3]) for a in OUT_OF_RANGE]
)
def test_out_of_range_flag_exits_2_with_one_line(subcommand, flag, value, message, capsys):
    # comonotone-check refuses the flag before it opens a file.
    files = ["a.json", "b.json"] if subcommand == "comonotone-check" else []
    assert cli.main([subcommand, *files, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


DROPPED = [
    ("verify-counterexample", "--n", "2"),
    ("finite-census", "--samples", "10"),
    ("finite-census", "--prefix-max", "2"),
    ("finite-census", "--jobs", "2"),
    ("integral-properties", "--samples", "10"),
    ("integral-properties", "--prefix-max", "2"),
    ("integral-properties", "--jobs", "1"),
    ("tnorm-axioms", "--samples", "10"),
    ("tnorm-axioms", "--prefix-max", "2"),
    ("tnorm-axioms", "--n", "2"),
    ("tnorm-axioms", "--jobs", "1"),
    ("comonotone-check", "--samples", "10"),
    ("comonotone-check", "--prefix-max", "2"),
    ("comonotone-check", "--grid", "0,1"),
    ("comonotone-check", "--n", "2"),
    ("comonotone-check", "--budget", "10"),
    ("comonotone-check", "--jobs", "1"),
    ("explore-problem1", "--n", "2"),
    ("explore-problem1", "--jobs", "1"),
]


@pytest.mark.parametrize("subcommand, flag, value", DROPPED, ids=[" ".join(a[:2]) for a in DROPPED])
def test_flag_the_subcommand_does_not_read_exits_2(subcommand, flag, value, capsys):
    files = ["a.json", "b.json"] if subcommand == "comonotone-check" else []
    with pytest.raises(SystemExit) as info:
        cli.main([subcommand, *files, flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


NINES = "9" * 3000
LONG_USAGE_ERRORS = [
    (["finite-census", "--n", f"{NINES}x"], f"argument --n: invalid int value: '{NINES}x'"),
    (["finite-census", "--bogus", NINES], f"unrecognized arguments: --bogus {NINES}"),
    (["a" * 3000], "argument subcommand: invalid choice: '" + "a" * 3000 + "'"),
]


@pytest.mark.parametrize(
    "argv, message", LONG_USAGE_ERRORS, ids=["invalid-int", "unrecognized-flag", "long-subcommand"]
)
def test_long_usage_error_gives_the_usage_and_one_cut_error_line(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: comaxlab") and len(captured.err) < 600
    line = captured.err.splitlines()[-1]
    length = int(line.rpartition("(")[2].split()[0])
    assert length >= len(message)
    assert_one_cut_error_line(line, message[:200], length)


def test_unknown_function_key_exits_2(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"vP": "1", "prefx": ["0"], "alpha": "1", "beta": "0"})
    ok = write_json(tmp_path / "ok.json", RAMP1_JSON)
    result = run_cli("comonotone-check", bad, ok)
    assert result.returncode == 2
    assert "unknown keys" in result.stderr


def test_non_utf8_function_file_exits_2_with_one_line(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"vP": "1", "prefix": [], "alpha": "1", "beta": "0", "note": "\xe9"}')
    ok = write_json(tmp_path / "ok.json", RAMP1_JSON)
    result = run_cli("comonotone-check", str(bad), ok)
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), result.stderr
    assert "can't decode" in lines[0]


def test_deeply_nested_function_file_exits_2_with_one_line(tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    ok = write_json(tmp_path / "ok.json", RAMP1_JSON)
    result = run_cli("comonotone-check", str(bad), ok)
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), result.stderr
    assert "recursion" in lines[0]


def test_duplicate_function_key_exits_2(tmp_path):
    bad = tmp_path / "dup.json"
    bad.write_text('{"vP": "0", "alpha": "0", "beta": "0", "vP": "1"}', encoding="utf-8")
    ok = write_json(tmp_path / "ok.json", RAMP1_JSON)
    result = run_cli("comonotone-check", str(bad), ok)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"error: {bad}: duplicate key 'vP'" in result.stderr


# How to make a bad function file at a path, and what its error line says.
BAD_FILES = {
    "missing": (lambda path: None, "No such file or directory"),
    "directory": (Path.mkdir, "Is a directory"),
    "malformed-json": (
        lambda path: path.write_text('{"vP": "0", "alpha": ', encoding="utf-8"),
        "not valid JSON: Expecting value: line 1 column 22 (char 21)",
    ),
}


@pytest.mark.parametrize("make_bad, reason", list(BAD_FILES.values()), ids=list(BAD_FILES))
def test_unreadable_function_file_exits_2_with_one_line(tmp_path, make_bad, reason):
    bad = tmp_path / "bad.json"
    make_bad(bad)
    ok = write_json(tmp_path / "ok.json", RAMP1_JSON)
    result = run_cli("comonotone-check", str(bad), ok)
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), result.stderr
    assert reason in lines[0]
    assert lines[0].count(str(bad)) == 1, result.stderr


def test_census_report_and_exit_zero(tmp_path):
    out = tmp_path / "census.json"
    result = run_cli("finite-census", "--grid", "0,1", "--n", "2", "--output", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert report["counts"]["total"] == 16
    assert report["config_echo"]["subcommand"] == "finite-census"


def test_budget_refusal_reports_exact_count_and_exits_2(tmp_path):
    out = tmp_path / "refused.json"
    result = run_cli(
        "finite-census", "--grid", "0,1/2,1", "--n", "3",
        "--budget", "1000000", "--output", str(out),
    )
    assert result.returncode == 2
    report = json.loads(out.read_text())
    assert report["status"] == "inconclusive"
    assert report["counts"]["required"] == 3**27
    assert report["counts"]["budget"] == 10**6
    assert report["witnesses"][0]["kind"] == "budget_refusal"


@pytest.mark.parametrize("subcommand", ["verify-counterexample", "explore-problem1"])
def test_sequence_suite_budget_refusal_exits_2(subcommand, tmp_path):
    out = tmp_path / "refused.json"
    # 100 family functions at the default grid and prefix-max: 5,050 pairs.
    result = run_cli(subcommand, "--budget", "5049", "--output", str(out))
    assert result.returncode == 2
    report = json.loads(out.read_text())
    assert report["status"] == "inconclusive"
    assert report["counts"] == {"required": 5050, "budget": 5049}
    assert report["witnesses"][0]["kind"] == "budget_refusal"


OVERSIZED = [
    # Counts with 9,392, 15,634 and about 4,770 digits.
    ("finite-census", "--n", "9"),
    ("integral-properties", "--n", "15"),
    ("verify-counterexample", "--prefix-max", "5000"),
    ("explore-problem1", "--prefix-max", "5000"),
    # Counts that could not be built in memory at all.
    ("finite-census", "--n", "1000000000000"),
    ("integral-properties", "--n", "1000000000000"),
    ("verify-counterexample", "--prefix-max", "1000000000000"),
    ("finite-census", "--grid", "0,1", "--n", "70"),
    ("explore-problem1", "--prefix-max", str(10**30)),
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=" ".join)
def test_oversized_count_is_refused_without_the_count(argv, tmp_path):
    out = tmp_path / "refused.json"
    result = run_cli(*argv, "--output", str(out), timeout=60)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert "more than 10**4300" in lines[0]
    report = json.loads(out.read_text())
    assert report["status"] == "inconclusive"
    assert report["counts"] == {"budget": 10**7, "required_digits_over": 4300}
    assert report["witnesses"][0]["kind"] == "budget_refusal"


def test_count_below_the_digit_cap_is_refused_with_the_exact_count(tmp_path):
    out = tmp_path / "refused.json"
    # 2 ** (2 ** 13) has 2,467 digits.
    result = run_cli("finite-census", "--grid", "0,1", "--n", "13", "--output", str(out))
    assert result.returncode == 2
    assert json.loads(out.read_text())["counts"] == {"required": 2**8192, "budget": 10**7}


def test_tnorm_axioms_budget_refusal_exits_2(tmp_path):
    out = tmp_path / "refused.json"
    # A 5-point grid needs 5 + 25 + 75 + 125 = 230 checks per norm.
    result = run_cli("tnorm-axioms", "--grid", "0,1/4,1/2,3/4,1", "--budget", "229",
                     "--output", str(out))
    assert result.returncode == 2
    report = json.loads(out.read_text())
    assert report["status"] == "inconclusive"
    assert report["counts"] == {"required": 230, "budget": 229}
    assert report["witnesses"] == [{"kind": "budget_refusal", "what": "t-norm axiom checks"}]
    assert run_cli("tnorm-axioms", "--grid", "0,1/4,1/2,3/4,1", "--budget", "230").returncode == 0
    assert run_cli("tnorm-axioms", "--budget", "1").returncode == 2


# One run of each subcommand, and one refusal, with the exit code each gives.
SEEDED = [
    (("verify-counterexample", "--grid", "0,1", "--prefix-max", "1", "--samples", "20"), 0),
    (("finite-census", "--grid", "0,1"), 0),
    (("integral-properties", "--grid", "0,1"), 0),
    (("tnorm-axioms", "--grid", "0,1"), 0),
    (("comonotone-check", "ramp0.json", "ramp1.json"), 0),
    (("explore-problem1", "--grid", "0,1", "--prefix-max", "1", "--samples", "20"), 0),
    (("finite-census", "--n", "9"), 2),
]


@pytest.mark.parametrize("argv, code", SEEDED, ids=[" ".join(a) for a, _ in SEEDED])
def test_every_report_carries_the_run_seed(argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "ramp0.json", RAMP0_JSON)
    write_json(tmp_path / "ramp1.json", RAMP1_JSON)
    assert cli.main([*argv, "--seed", "7", "--output", "report.json"]) == code
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == report["config_echo"]["seed"] == 7


def test_tnorm_axioms_subcommand():
    result = run_cli("tnorm-axioms", "--grid", "0,1/4,1/2,3/4,1")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["status"] == "pass"
    for norm in ("minimum", "product", "lukasiewicz"):
        assert report["counts"][f"{norm}_violations"] == 0


def test_integral_properties_subcommand():
    result = run_cli("integral-properties", "--grid", "0,1/2,1", "--n", "2")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["status"] == "pass"
    assert report["counts"]["capacities"] == 9


@pytest.mark.parametrize("norm", ["product", "lukasiewicz"])
def test_integral_properties_other_norms(norm):
    result = run_cli("integral-properties", "--grid", "0,1/2,1", "--n", "2", "--norm", norm)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["status"] == "pass"
    assert report["claim_id"] == f"integral-properties-{norm}-n2"


def test_verify_counterexample_deterministic_bytes(tmp_path):
    args = ("verify-counterexample", "--samples", "120", "--seed", "9")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(*args, "--output", str(out1)).returncode == 0
    assert run_cli(*args, "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_counterexample_jobs_invariant(tmp_path):
    out1 = tmp_path / "j1.json"
    out4 = tmp_path / "j4.json"
    base = ("verify-counterexample", "--samples", "80", "--seed", "2")
    assert run_cli(*base, "--jobs", "1", "--output", str(out1)).returncode == 0
    assert run_cli(*base, "--jobs", "4", "--output", str(out4)).returncode == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_jobs_above_the_cpu_count_keep_report_bytes(tmp_path):
    # --jobs 8 cuts one shard per usable CPU, at most eight, and merges them in order.
    out1 = tmp_path / "j1.json"
    out8 = tmp_path / "j8.json"
    base = ("verify-counterexample", "--samples", "80", "--seed", "5", "--grid", "0,1/2,1")
    assert run_cli(*base, "--jobs", "1", "--output", str(out1)).returncode == 0
    assert run_cli(*base, "--jobs", "8", "--output", str(out8)).returncode == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_explore_problem1_inconclusive():
    result = run_cli("explore-problem1", "--samples", "40")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["status"] == "inconclusive"
    assert report["counts"]["candidates_found"] == 0


def test_report_is_newline_terminated_with_sorted_keys(tmp_path):
    out = tmp_path / "r.json"
    run_cli("finite-census", "--grid", "0,1", "--n", "1", "--output", str(out))
    text = out.read_text()
    assert text.endswith("\n")
    report = json.loads(text)
    assert list(report) == sorted(report)


def test_exit_code_1_on_failing_report(monkeypatch, capsys):
    def fake_suite(**kwargs):
        return VerificationReport(
            claim_id="verify-counterexample",
            status="fail",
            counts={},
            witnesses=[{"kind": "forced"}],
        )

    monkeypatch.setattr(cli, "counterexample_suite", fake_suite)
    code = cli.main(["verify-counterexample", "--samples", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "fail"


# A written report, a refusal past the digit cap, and a refusal with
# the exact count 4,294,967,296, each to a missing directory and to a
# directory.  The written report's cases keep the target as their id.
UNWRITABLE = [
    pytest.param(argv, target, id=f"{prefix}{name}")
    for prefix, argv in [
        ("", ("tnorm-axioms",)),
        ("finite-census --n 9-", ("finite-census", "--n", "9")),
        ("finite-census --grid 0,1 --n 5-", ("finite-census", "--grid", "0,1", "--n", "5")),
    ]
    for name, target in [("missing-directory", "missing/x.json"), ("directory", ".")]
]


@pytest.mark.parametrize("argv, target", UNWRITABLE)
def test_unwritable_output_exits_2_with_one_line(tmp_path, argv, target):
    result = run_cli(*argv, "--output", str(tmp_path / target))
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --output: "), result.stderr
    assert list(tmp_path.iterdir()) == []


# A non-default value of every flag, as typed and as its suite receives it.
FLAG_VALUES = {
    "seed": ("7", 7),
    "samples": ("3", 3),
    "prefix_max": ("1", 1),
    "grid": ("0,1/3,1", (Fraction(0), Fraction(1, 3), Fraction(1))),
    "n": ("3", 3),
    "budget": ("12345", 12345),
    "jobs": ("3", 3),
    "norm": ("product", TNorm.PRODUCT),
    "files": (["a.json", "b.json"], ["a.json", "b.json"]),
}
# The function each subcommand hands its flags to.
SUITES = {
    "verify-counterexample": "counterexample_suite",
    "finite-census": "functional_census",
    "integral-properties": "integral_property_suite",
    "tnorm-axioms": "axiom_suite",
    "comonotone-check": "_run_comonotone_check",
    "explore-problem1": "normalized_search",
}
# Subcommands that take --seed but never read it.
SEEDLESS = {"finite-census", "tnorm-axioms", "comonotone-check"}


@pytest.mark.parametrize("subcommand", list(cli.SUBCOMMANDS))
def test_every_flag_reaches_its_suite(subcommand, monkeypatch, capsys):
    real = getattr(cli, SUITES[subcommand])
    received = {}

    def fake(*args, **kwargs):
        for name, value in inspect.signature(real).bind(*args, **kwargs).arguments.items():
            if isinstance(value, Chain):
                name, value = "grid", value.values
            received[name] = value
        return VerificationReport(claim_id=subcommand, status="pass")

    monkeypatch.setattr(cli, SUITES[subcommand], fake)
    flags, _ = cli.SUBCOMMANDS[subcommand]
    argv, expected = [subcommand], {}
    for flag in flags:
        typed, value = FLAG_VALUES[flag]
        if flag == "files":
            argv += typed
        else:
            assert typed != str(cli.DEFAULTS.get(flag, TNorm.MINIMUM.value))
            argv += [f"--{flag.replace('_', '-')}", typed]
        if not (flag == "seed" and subcommand in SEEDLESS):
            expected[flag] = value
    assert cli.main(argv) == 0
    assert received == expected
    assert json.loads(capsys.readouterr().out)["seed"] == 7
