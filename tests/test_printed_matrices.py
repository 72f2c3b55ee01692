"""The stdout of every command the cli-cold benchmark can draw must match
the digest recorded in perfbench/reference.json, so a change to any
printed output shows in the tests.  The command lines come from
perfbench/run.py (pool_keys, pool_argv), which is only read: bytecode is
not written there, and table files go to a temporary directory."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from swfloer.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((BENCH / "reference.json").read_text())["digests"]


def load_run():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling inputs.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return run


RUN = load_run()
KEYS = RUN.pool_keys()


def test_pool_covers_the_reference():
    assert sorted(KEYS) == sorted(DIGESTS)


@pytest.mark.parametrize("command", RUN.COMMANDS)
def test_printed_matrix_matches_reference(command, tmp_path, capsys):
    for key in KEYS:
        if key.split()[0] != command:
            continue
        assert main(RUN.pool_argv(key, tmp_path)) == 0, key
        out = capsys.readouterr().out.encode()
        assert [hashlib.sha256(out).hexdigest(), len(out)] == DIGESTS[key], key
