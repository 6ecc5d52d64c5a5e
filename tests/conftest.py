import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run the fan-out inline, forking nothing; return the worker counts asked of it.

    Shards then run in the test's own process, so a monkeypatch of the
    module they call is seen by every shard.
    """
    sizes = []

    def inline_fan_out(worker, shard_args, workers):
        sizes.append(workers)
        return [worker(args) for args in shard_args]

    monkeypatch.setattr("comaxlab.parallel._fork_shards", inline_fan_out)
    return sizes
