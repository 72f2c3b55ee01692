"""The stdout of every command the cli-cold benchmark can draw must match
the digest recorded in perfbench/reference.json, so a change to any
printed output shows in the tests.  The command lines come from
perfbench/run.py (pool_keys, pool_argv), which is only read: bytecode is
not written there, and table files go to a temporary directory.

The genus-6 outputs, which the benchmark does not draw, are held to the
digests in tests/data/genus6.json the same way.  Pool command lines with
hostile tokens spliced in must end in an exit code, never a traceback."""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from swfloer.cli import main

from helpers import deadline

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((BENCH / "reference.json").read_text())["digests"]
GENUS6 = json.loads((Path(__file__).resolve().parent / "data" / "genus6.json")
                    .read_text())["digests"]


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


def digest(capsys):
    """sha256 and byte length of the stdout captured since the last read."""
    out = capsys.readouterr().out.encode()
    return [hashlib.sha256(out).hexdigest(), len(out)]


def test_pool_covers_the_reference():
    assert sorted(KEYS) == sorted(DIGESTS)


@pytest.mark.parametrize("command", RUN.COMMANDS)
def test_printed_matrix_matches_reference(command, tmp_path, capsys):
    for key in KEYS:
        if key.split()[0] != command:
            continue
        assert main(RUN.pool_argv(key, tmp_path)) == 0, key
        assert digest(capsys) == DIGESTS[key], key


@pytest.mark.parametrize("command", sorted({k.split()[0] for k in GENUS6}))
def test_genus_six_output_matches_recorded_digest(command, capsys):
    for line in GENUS6:
        if line.split()[0] == command:
            assert main(line.split()) == 0, line
            assert digest(capsys) == GENUS6[line], line


HOSTILE = ["1/0", "2.5", "x^-1", "1_0", "\u0663", "12345678901234567890",
           "-98765432109876543210"]


def mutate(rng, argv):
    """argv with one or two tokens replaced, deleted or inserted.  The
    command name is kept, and a replacement hits an option's value (the
    part after = in --flag=value), so that some mutants get past the
    parser into the commands."""
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        values = [i for i in range(1, len(argv))
                  if "=" in argv[i] or not argv[i].startswith("--")]
        op = rng.choice(["replace", "delete", "insert"])
        if op == "replace" and values:
            i = rng.choice(values)
            flag = argv[i].partition("=")[0] + "=" if "=" in argv[i] else ""
            argv[i] = flag + rng.choice(HOSTILE)
        elif op == "delete" and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        else:
            argv.insert(rng.randint(1, len(argv)), rng.choice(HOSTILE))
    return argv


def test_mutated_pool_commands_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20)
    for _ in range(100):
        argv = mutate(rng, RUN.pool_argv(rng.choice(KEYS), tmp_path))
        with deadline(10, f"swfloer {argv}"):
            code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
