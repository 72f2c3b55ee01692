"""The printed Gram and inverse Gram matrices of every sweep case must
match the stdout digests the benchmark records in perfbench/reference.json
(read only here), so a change to either matrix or its printing shows in
the tests."""

import hashlib
import json
from pathlib import Path

import pytest

from swfloer.cli import SWEEP, main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
DIGESTS = json.loads(REFERENCE.read_text())["digests"]


@pytest.mark.parametrize("command", ["gram", "umatrix"])
def test_printed_matrix_matches_reference(command, capsys):
    for g, r in SWEEP:
        assert main([command, "--g", str(g), "--r", str(r)]) == 0
        out = capsys.readouterr().out.encode()
        want = DIGESTS[f"{command} g{g} r{r} v0"]
        assert [hashlib.sha256(out).hexdigest(), len(out)] == want, (g, r)
