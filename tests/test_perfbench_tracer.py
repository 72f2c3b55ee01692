"""The benchmark's span tracer patches package names from outside, and its
child interpreter reads package attributes; every name either one uses
must still exist, or benchmark runs break."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from swfloer import checks, cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
TRACER = BENCH / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
    assert targets
    for modname, attr in targets:
        module = importlib.import_module("swfloer." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(module, cls_name).__dict__, (modname, attr)
        else:
            assert callable(getattr(module, attr)), (modname, attr)


def load_child():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))  # child.py imports its sibling tracer.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_child",
                                                      BENCH / "child.py")
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return child


def test_child_size_counters_read_the_package(tmp_path):
    # the per-layer size counters of the benchmark at (5, 1), read in
    # process through the attributes child.py uses
    assert load_child().sizes(tmp_path / "sizes.json") == 0
    assert json.loads((tmp_path / "sizes.json").read_text()) == {
        "swpair.monomials.g5r1": 1291,
        "swpair.dim.g5r1": 244,
        "swpair.radical_dim.g5r1": 1046,
        "swpair.mixed_dim.g5r1": 1,
        "swpair.gram_nnz.g5r1": 471,
        "glueadj.umatrix_nnz.g5r1": 471,
    }


# child.py times the checks by rewriting cli.CHECKS in place, so the list
# the verify command runs must be that very list.
def test_cli_registry_is_the_checks_registry():
    assert cli.CHECKS is checks.CHECKS
    assert cli.SWEEP is checks.SWEEP
    assert cli.check_gluing_cap is checks.check_gluing_cap


def run_child(*argv):
    """child.py in a fresh interpreter without bytecode, as the benchmark
    starts it; it writes only the result files named in argv."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-B", str(BENCH / "child.py"),
                           *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_child_sweep_times_every_check(tmp_path):
    # nine checks per case over the ten cases, and the two global ones
    p = run_child("sweep", str(tmp_path / "sweep.json"))
    assert p.returncode == 0, p.stderr
    assert len(json.loads((tmp_path / "sweep.json").read_text())["ops"]) == 92
    assert sum(line.startswith("PASS ") for line in p.stdout.splitlines()) \
        == 11


def test_child_traces_lazily_imported_names(tmp_path):
    # the command imports universal_matrix after the tracer patched it
    summary = tmp_path / "summary.json"
    p = run_child("cli", str(summary), str(tmp_path / "spans.tsv.gz"), "--",
                  "umatrix", "--g", "3", "--r", "1")
    assert p.returncode == 0, p.stderr
    calls = json.loads(summary.read_text())["calls"]
    assert calls.get("glueadj.universal_matrix", 0) >= 1
    assert calls.get("swpair.PairingQuotient.init", 0) >= 1
