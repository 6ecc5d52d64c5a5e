"""Report bytes of the finite-model subcommands, pinned by sha256.

A refactor or a speed-up of the finite model must leave these reports
byte for byte as they are; a deliberate format change updates the
digests and says so in CHANGES.md.
"""

import hashlib

import pytest

from comaxlab import cli

GOLDEN = [
    (
        ("finite-census",),
        "cdb98c0edb5468965406fa2da4e1b56f17a6500e517ef4c318b9891f326c9931",
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
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_bytes_are_pinned(argv, digest, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
