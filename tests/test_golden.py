"""Golden outputs: exit code and sha256 of stdout for exact-arithmetic CLI
commands, pinned in tests/golden.json.

Each command runs in-process through cli.main.  Only exact outputs are
pinned (p-adic certificates, auxiliary audits, sieve tables and exact
counts); float FFT and np.exp outputs are left out, since their last bits
may change with the numpy build.  A change that alters one of these
outputs on purpose re-records its entry and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ilab.cli import main

MANIFEST = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


@pytest.mark.parametrize(
    "case", MANIFEST, ids=[f"{i:02d}-{'-'.join(c['argv'][:2])}" for i, c in enumerate(MANIFEST)]
)
def test_stdout_and_exit_code_are_pinned(capsys, case):
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
