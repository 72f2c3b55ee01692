"""The benchmark's span tracer patches package names from outside, and its
child interpreter reads package attributes; every name either one uses
must still exist, or benchmark runs break."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
