"""Package-level contracts: what ``import comaxlab`` loads, and a clean entry point.

Both run in a fresh interpreter, so modules other tests have imported
cannot hide a submodule the package fails to load.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run with bench/ on the path: every traced name must resolve after the
# package import alone, except the entry point, which the traced runner
# imports itself before installing the tracer.
RESOLVE_TRACED_NAMES = """
import sys
import comaxlab
import layers
from tracing import Tracer

names = layers.TIMED + layers.SPANNED + layers.CALLS_ONLY + layers.SHARDS
missing = []
for name in names:
    module, attr = name.split(".")
    if module != "cli" and not hasattr(sys.modules.get(f"comaxlab.{module}"), attr):
        missing.append(name)
assert not missing, missing
from comaxlab import cli
layers.install(Tracer())
print(len(names))
"""


def run_python(*args):
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_every_traced_name_resolves_after_import_comaxlab():
    result = run_python("-c", RESOLVE_TRACED_NAMES)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0


# The flags each subcommand's --help lists besides --output: its row of the flag table.
HELP_FLAGS = {
    "verify-counterexample": {"--seed", "--samples", "--prefix-max", "--grid", "--budget", "--jobs"},
    "finite-census": {"--seed", "--grid", "--n", "--budget", "--jobs"},
    "integral-properties": {"--seed", "--grid", "--n", "--budget", "--norm"},
    "tnorm-axioms": {"--seed", "--grid", "--budget"},
    "comonotone-check": {"--seed"},
    "explore-problem1": {"--seed", "--samples", "--prefix-max", "--grid", "--budget"},
}


def test_cli_help_runs_without_warnings():
    result = run_python("-W", "error", "-m", "comaxlab.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert "verify-counterexample" in result.stdout
    for subcommand, flags in HELP_FLAGS.items():
        result = run_python("-W", "error", "-m", "comaxlab.cli", subcommand, "--help")
        assert result.returncode == 0, result.stderr
        listed = set(re.findall(r"^ +(--[a-z-]+)", result.stdout, re.MULTILINE))
        assert listed == flags | {"--output"}, subcommand
