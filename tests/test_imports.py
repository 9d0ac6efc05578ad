"""Every module-level import in the package modules is used there.

No linter runs on this code, and moving a function between modules tends to
leave its imports behind; this check catches them with the standard `ast`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "feec"
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
