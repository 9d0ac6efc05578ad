"""Every module-level import in the package modules is used there, every
module-level function and class is referenced by the package or the
benchmark, or exported in `feec.__all__`, no package module reads the
process environment, none imports `dataclasses`, and importing the CLI
leaves every `functools.cache` in the package empty.

No linter runs on this code, and moving a function between modules tends to
leave its imports, or the function itself, behind; these checks catch them
with the standard `ast`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import feec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "feec"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound_names(statements):
    """Names bound by the imports among module-level statements (and `if` blocks)."""
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.If):
            yield from _bound_names(node.body + node.orelse)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in _bound_names(tree.body) if name not in used]


def test_detector_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .forms import PolyForm, Key\n"
        "def f(w: PolyForm):\n"
        "    import sys\n"
        "    return osp.join(sys.argv[0])\n"
    )
    assert unused_imports(source) == ["os", "Key"]


@pytest.mark.parametrize("name", MODULES)
def test_module_level_imports_are_used(name):
    assert unused_imports((PACKAGE / name).read_text()) == []


def _defined_names(source):
    tree = ast.parse(source)
    return [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _referenced_names(source):
    """Names read, attributes taken, names imported, and the dotted parts of string constants."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # the benchmark's tracer names its targets as "Class.method" strings
            yield from node.value.split(".")


def unused_helpers(defining, referencing):
    """Module-level defs and classes of `defining` sources named nowhere in `referencing`."""
    used = {name for source in referencing for name in _referenced_names(source)}
    return [name for source in defining for name in _defined_names(source) if name not in used]


def test_detector_flags_an_unused_helper():
    module = (
        "def imported(): pass\n"
        "def traced(): pass\n"
        "def called(): pass\n"
        "def attribute(): pass\n"
        "def unused():\n"
        "    return called()\n"
        "class Unused:\n"
        "    def method(self):\n"
        "        return self.attribute\n"
    )
    caller = "from pkg.mod import imported\nTARGETS = ('mod.traced',)\n"
    assert unused_helpers([module], [module, caller]) == ["unused", "Unused"]


def unreferenced_helpers(root, exported):
    """Module-level defs and classes of root/src/feec that neither the package nor perfbench names.

    References from the tests, and the re-exports in `__init__.py`, do not
    count: a helper that only tests use must be in `exported` (the package's
    `__all__`).
    """
    package = root / "src" / "feec"
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    defining = [p.read_text() for p in modules if p.name != "__main__.py"]
    referencing = [p.read_text() for p in modules + sorted((root / "perfbench").rglob("*.py"))]
    return [name for name in unused_helpers(defining, referencing) if name not in exported]


def test_detector_ignores_references_from_tests(tmp_path):
    for folder in ("src/feec", "perfbench", "tests"):
        (tmp_path / folder).mkdir(parents=True)
    (tmp_path / "src/feec/mod.py").write_text(
        "def tested(): pass\n"
        "def exported(): pass\n"
        "def reexported(): pass\n"
        "def benched(): pass\n"
        "def called(): pass\n"
        "def caller():\n"
        "    return called()\n"
    )
    (tmp_path / "src/feec/__init__.py").write_text("from .mod import exported, reexported\n__all__ = ['exported']\n")
    (tmp_path / "perfbench/run.py").write_text("from feec.mod import benched, caller\n")
    (tmp_path / "tests/test_mod.py").write_text("from feec.mod import tested, exported, reexported, benched\n")
    assert unreferenced_helpers(tmp_path, {"exported"}) == ["tested", "reexported"]


def test_module_level_helpers_are_referenced():
    assert unreferenced_helpers(ROOT, set(feec.__all__)) == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Names in the source through which it could read the process environment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.extend(alias.name for alias in node.names)
    return [name for name in found if name in ENVIRONMENT_NAMES]


def test_detector_flags_an_environment_read():
    source = (
        "import os\n"
        "from os import getenv as get\n"
        "def f():\n"
        "    return os.environ.get('A'), get('B')\n"
    )
    assert environment_reads(source) == ["getenv", "environ"]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_reads_no_environment(name):
    # every setting arrives as a command-line argument or a function parameter
    assert environment_reads((PACKAGE / name).read_text()) == []


def imported_modules(source: str) -> list[str]:
    """Absolute module names the source imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return found


def test_detector_lists_imported_modules():
    source = (
        "import os.path, json as js\n"
        "from . import forms\n"
        "from .dataclasses import x\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
    )
    assert imported_modules(source) == ["os.path", "json", "dataclasses"]


def test_package_does_not_import_dataclasses():
    # records are NamedTuples or small slotted classes; `dataclasses` was most of the cold start
    modules = sorted(p.name for p in PACKAGE.glob("*.py"))
    assert [name for name in modules if "dataclasses" in imported_modules((PACKAGE / name).read_text())] == []


def test_cli_import_leaves_dataclasses_unloaded():
    # -S: no site hooks run, so only the package's own imports can load the module
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, feec.cli; print('dataclasses' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert run.stdout == "False\n"


CACHE_SIZES = """
import sys, feec.cli
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] != "feec":
        continue
    for attr, value in vars(module).items():
        # the cached methods of the package's own classes too
        members = vars(value).items() if isinstance(value, type) and value.__module__ == name else ()
        for label, obj in [(attr, value), *((f"{attr}.{a}", v) for a, v in members)]:
            if hasattr(obj, "cache_info"):
                print(f"{name}.{label}", obj.cache_info().currsize)
"""


def test_cli_import_fills_no_cache():
    # the benchmark fails a request whose process starts with a filled feec cache, and a
    # table filled at import would be paid by every command whether it reads the table or not
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-S", "-c", CACHE_SIZES],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    sizes = dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())
    assert {"feec.combinat._multiindices", "feec.forms._psi", "feec.forms.FaceRef.to_local"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size != "0"} == {}
