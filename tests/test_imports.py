"""Every name a package module imports is used in that module, the
quotient route's modules import nothing from the presentation route,
only swpair reads the weight-block layout of a PairingQuotient, no module
imports dataclasses, and each command loads only the modules it runs.

The package __init__ only re-exports, and ``from __future__`` imports
are directives, so both are exempt.  A name counts as used when it
appears as a bare name anywhere in the module, so a name used only in a
quoted annotation reads as unused; with postponed annotations no quote
is needed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swfloer"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List\nx: List = 1\n") \
        == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# The pairing-radical route (and the algebra under it) must not know the
# relation polynomials, so that the two constructions of the ring stay
# independent checks of each other.
LOWER = ("qlinalg", "extalg", "swpair")
UPPER = {"symprod", "floerring", "glueadj", "checks", "cli"}


def package_imports(source: str):
    """Names of the package modules a module imports, relative or absolute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if not (module + ".").startswith("swfloer."):
                    continue
                module = module[len("swfloer."):]
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("swfloer."))
    return out


def test_scan_finds_package_imports():
    source = ("from .symprod import BiPoly\nfrom . import cli\n"
              "import swfloer.glueadj\nfrom swfloer.floerring import x\n"
              "from swfloer import extalg\nimport os\nfrom typing import List\n")
    assert package_imports(source) == {"symprod", "cli", "glueadj", "floerring",
                                       "extalg"}


@pytest.mark.parametrize("name", LOWER)
def test_quotient_route_imports_no_presentation_module(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert package_imports(source) & UPPER == set()


# Only swpair knows how the basis splits into torus-weight blocks; every
# other module asks PairingQuotient questions in basis coordinates.
BLOCK_LAYOUT = {"weight_groups", "_weight_blocks"}


def block_layout_reads(source: str):
    return sorted((n.lineno, n.attr) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in BLOCK_LAYOUT)


def test_scan_finds_a_block_layout_read():
    assert block_layout_reads("cols = ring.weight_groups[w]\nx = ring.dim\n") \
        == [(1, "weight_groups")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "swpair.py"],
                         ids=lambda p: p.name)
def test_only_swpair_reads_the_block_layout(path):
    assert block_layout_reads(path.read_text(encoding="utf-8")) == []


# dataclasses imports inspect, ast, dis and tokenize, a large share of the
# cold start of a one-shot command; records are NamedTuples instead.
def top_level_imports(source: str):
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add((node.module or "").split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_dataclasses(path):
    assert "dataclasses" not in top_level_imports(
        path.read_text(encoding="utf-8"))


# -- the modules each command loads ----------------------------------------
#
# Each probe is a fresh interpreter started with -B, as a cold command
# runs; in this process every module is loaded already, which would hide
# a handler that needs a module it does not import.

PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from swfloer import cli
if sys.argv[1:]:
    with redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    if code:
        sys.exit(code)
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "swfloer")))
"""


def loaded_modules(*argv):
    """The swfloer modules a fresh interpreter loads to import the cli and
    run the command argv, if one is given."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    p = subprocess.run([sys.executable, "-B", "-c", PROBE, *argv], env=env,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    return set(json.loads(p.stdout))


def test_importing_the_cli_loads_no_computation():
    assert loaded_modules() == {"swfloer", "swfloer.cli", "swfloer.errors"}


@pytest.mark.parametrize("argv, absent", [
    (["sp-nf", "--g", "3", "--d", "1", "--k", "0", "--expr", "e"],
     {"swpair", "floerring", "glueadj", "checks"}),
    (["floer-dim", "--g", "3", "--r", "1"], {"glueadj", "checks"}),
    (["gram", "--g", "3", "--r", "1"], {"glueadj", "checks"}),
], ids=["sp-nf", "floer-dim", "gram"])
def test_command_loads_only_what_it_runs(argv, absent):
    assert {f"swfloer.{name}" for name in absent} & loaded_modules(*argv) \
        == set()
