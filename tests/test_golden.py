"""Report bytes of the subcommands, pinned by sha256.

A refactor or a speed-up of either model must leave these reports
byte for byte as they are; a deliberate format change updates the
digests and says so in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from comaxlab import cli

GOLDEN = [
    (
        ("finite-census",),
        "cdb98c0edb5468965406fa2da4e1b56f17a6500e517ef4c318b9891f326c9931",
    ),
    (
        ("finite-census", "--grid", "0,1", "--n", "4"),
        "fb8e6a5433dbfe5d0743336ebe28ad75470af2dff60e83c7ae954e7b27cf026e",
    ),
    (
        ("integral-properties", "--n", "2"),
        "fddfcf5a8a380ccc9f2d48acb25f60430784e50e53adbf788d1b67c4afb8bb98",
    ),
    (
        ("integral-properties", "--n", "2", "--norm", "product"),
        "4e4f6ef06bc54fbc561ce36d05fe8270ba6f2613f4ed13eb1578020b4732c81a",
    ),
    (
        ("integral-properties", "--n", "2", "--norm", "lukasiewicz"),
        "48bb3fdb50aca37bf131bf08ed1b14532772a6118bf639b91b4f8cef4380ba60",
    ),
    (
        ("integral-properties", "--n", "3"),
        "e3402f01cce8d35eba6b42c4c297db36e4fddb2fa7c8cbe9001f27e2128dc663",
    ),
    (
        ("verify-counterexample", "--grid", "0,1/3,2/3,1", "--samples", "200"),
        "853f1e43b881535320f1505595d96c1ba2c81d6639a28be1934dfe34f4f38f8c",
    ),
    (
        ("verify-counterexample", "--grid", "0,1/2,1", "--samples", "5000"),
        "3431d7a30922dc5267ea9ecc895bb4642555141346b3682aca8ee903a63fcf13",
    ),
    (
        ("verify-counterexample", "--samples", "500"),
        "041a9a69e7ab14818cf07a5501a518fb0c1efd1614dd85c2e2cff9fe9b7b6180",
    ),
    (
        ("verify-counterexample", "--grid", "0,1/4,1/2,3/4,1", "--samples", "100"),
        "1c440344a6e10c30e59bd4918e3a88b411a8b890da4fef5d2c2e8eb89466ba33",
    ),
    (
        ("explore-problem1", "--samples", "300"),
        "8e0cd7a7e1b963a969ba4edab085cfd4d90cbd168c2c231d2af519d49bff9b78",
    ),
    # Longer heads than the default --prefix-max 2.
    (
        ("verify-counterexample", "--prefix-max", "4", "--samples", "300"),
        "ce1cda54d3177ec6bbc19289d0a7683c68b4c1c6c3a4974c86e485f1a600c6a1",
    ),
    (
        ("explore-problem1", "--prefix-max", "3", "--samples", "200"),
        "c2005e3514a1286e562ff340d05aa28cf18c52c5b046443810d114235dc76d61",
    ),
    # A grid where a candidate built on the step functional
    # (limit-join-step-1/3) survives normalization and is screened.
    (
        ("explore-problem1", "--grid", "0,1/3,2/3,1", "--samples", "300", "--seed", "3"),
        "67086d52c9bcadbd8f55c2bb0d0a205d57086432b61197e2a3499457cbc6cb27",
    ),
    (
        ("integral-properties", "--n", "3", "--norm", "product"),
        "c2a3f910bef1c18b6957b973a141e754c0827d066a2437772112759aedc56959",
    ),
    (
        ("integral-properties", "--n", "3", "--norm", "lukasiewicz", "--grid", "0,1/3,2/3,1"),
        "6a4388e37304593f0ad19afc4fe7c27da1c6a73ba9bcc50e6a3c5abfd690b89c",
    ),
    # Product leaves the grid, so homogeneity samples off-chain
    # functions whose denominators differ from the capacities'.
    (
        ("integral-properties", "--n", "2", "--norm", "product",
         "--grid", "0,1/4,1/2,3/4,1", "--seed", "5"),
        "8f0ddeae4977a1ab4856fc55566fe9b14c02a1acae500c075757a203032eb921",
    ),
    # Lukasiewicz does not close the chain 0,3/5,1, so it samples too.
    (
        ("integral-properties", "--n", "2", "--norm", "lukasiewicz", "--grid", "0,3/5,1"),
        "2c17f5c730d20d2673b02b5b3af187da87250235f492c9121c1e048140ff8493",
    ),
    # Product leaves this grid inside associativity.
    (
        ("tnorm-axioms", "--grid", "0,1/3,1/2,1"),
        "6c8c1374c089b5f2bf21acc71cae63a0330809d1078d9fa1e941d9eff56f87a9",
    ),
    # The 17-point grid k/16 of the acceptance criterion and the bench.
    (
        ("tnorm-axioms", "--grid", ",".join(str(Fraction(k, 16)) for k in range(17))),
        "23cd70686b3f30d2881482d4fb68dea1247442c09ae379e1a41a76641062e378",
    ),
    # Seeds these subcommands echo but never read.
    (
        ("finite-census", "--seed", "7"),
        "7de02f2002b8ef65dd6d1c7b62e786246fc4301887bc804e646df01600505f6c",
    ),
    (
        ("tnorm-axioms", "--seed", "3"),
        "384818c0a9cb86aa27c2936c50c3bc41fe82a8182c1daa19a9c85008bfa123fd",
    ),
]

# Witnesses deep in the tail (seq(61), seq(63)) and a redundant prefix
# entry in r79.json, which loading must trim.
FUNCTION_FILES = {
    "r59.json": {"vP": "59/60", "prefix": [], "alpha": "1", "beta": "0"},
    "r61.json": {"vP": "61/62", "prefix": [], "alpha": "1", "beta": "0"},
    "r79.json": {"vP": "79/80", "prefix": ["0"], "alpha": "1", "beta": "0"},
    "fall.json": {"vP": "0", "prefix": ["1/7"], "alpha": "-1/2", "beta": "1"},
}
COMONOTONE_CHECK_DIGEST = "e0a8c496c2b7d1fdfe783b276951f4324140e9dfa6992527a8de0b1129507c8f"
# The seed is echoed but never read.
COMONOTONE_CHECK_SEED3_DIGEST = "2c5e11d6d05b82155929ed5f364049fb14503466d6a71c5ece553ae3a8e1719a"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_bytes_are_pinned(argv, digest, capsys):
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_traced_integral_step_writes_the_untraced_bytes(tmp_path):
    # bench/traced.py wraps every property checker and the integral; the report must not change.
    root = Path(__file__).resolve().parents[1]
    args = ["integral-properties", "--n", "3", "--norm", "product"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    trace = tmp_path / "trace.json"
    plain = subprocess.run(
        [sys.executable, "-m", "comaxlab.cli", *args],
        env=env, capture_output=True, timeout=120, check=True,
    )
    traced = subprocess.run(
        [sys.executable, str(root / "bench" / "traced.py"), str(trace), "cli", *args],
        env=env, capture_output=True, timeout=120, check=True,
    )
    assert traced.stdout == plain.stdout
    stats = json.loads(trace.read_text(encoding="utf-8"))["stats"]
    assert stats["integral.tnorm_integral"]["calls"] == 36_765
    assert stats["properties.is_scale_homogeneous"]["calls"] == 129


def _load_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _parsed(argv):
    """The parsed flags of a CLI run; --jobs is left out, the bytes do not depend on it."""
    args = vars(cli._build_parser().parse_args(list(argv)))
    del args["jobs"]
    return args


def test_bench_digests_equal_the_pins(monkeypatch):
    # The bench pins its CLI steps' bytes as well; a byte change must move both lists.
    workloads = _load_workloads(monkeypatch)
    pins = [(_parsed(argv), digest) for argv, digest in GOLDEN]
    steps = [
        step
        for workload in workloads.WORKLOADS.values()
        for step in (*workload.steps, *([workload.reference] if workload.reference else []))
        if step.kind == "cli"
    ]
    assert len(steps) == 8
    for step in steps:
        args = _parsed(step.argv(workloads.DEFAULT_SEED)[2:])
        pinned = [digest for parsed, digest in pins if parsed == args]
        assert pinned == [step.digest], step.name


@pytest.fixture
def function_files(tmp_path, monkeypatch):
    # The report echoes the file paths, so they are given relative to tmp_path.
    monkeypatch.chdir(tmp_path)
    for name, data in FUNCTION_FILES.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    return list(FUNCTION_FILES)


def test_comonotone_check_bytes_are_pinned(function_files, capsys):
    assert cli.main(["comonotone-check", *function_files]) == 0
    assert sha256(capsys.readouterr().out) == COMONOTONE_CHECK_DIGEST


def test_comonotone_check_bytes_with_a_seed_are_pinned(function_files, capsys):
    assert cli.main(["comonotone-check", *function_files, "--seed", "3"]) == 0
    assert sha256(capsys.readouterr().out) == COMONOTONE_CHECK_SEED3_DIGEST
