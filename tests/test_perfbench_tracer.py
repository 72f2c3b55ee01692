"""The benchmark's span tracer patches package names from outside; every
name it targets must still exist, or traced benchmark runs break."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
