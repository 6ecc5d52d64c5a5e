import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap in an inline pool that starts no process; return the sizes asked of it.

    Shards then run in the test's own process, so a monkeypatch of the
    module they call is seen by every shard.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    return sizes
