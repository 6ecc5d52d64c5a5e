"""Run one workload step with the tracer installed.

Usage: python3 bench/traced.py TRACE_OUT cli <comaxlab arguments...>
       python3 bench/traced.py TRACE_OUT oracle <oracle arguments...>

The step writes its report to stdout exactly as the untraced step does;
the tracer's aggregates and spans go to TRACE_OUT as JSON.  The exit
code is the step's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers
import oracle
from comaxlab import cli
from tracing import Tracer


def main(argv: list[str]) -> int:
    trace_out, kind, *args = argv
    tracer = Tracer()
    layers.install(tracer)
    # Look cli.main up only now: install() has replaced it.
    entry = cli.main if kind == "cli" else tracer.wrap("oracle.main", oracle.main, span=True)
    try:
        code = entry(args)
    except SystemExit as exc:  # argparse reports bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    Path(trace_out).write_text(json.dumps(tracer.export()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
