"""Every name a gevspec module imports is read in that module.

The package __init__ re-exports what it imports, so it is not checked;
a __future__ import is a compiler directive, not a name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gevspec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str):
    """The names bound by an import in source that no expression reads;
    an attribute chain such as np.fft reads its first name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .quantize import RealGrid, assemble_weyl  # noqa: F401\n"
              "x = np.zeros(RealGrid(4.0, 8).n_points)\n")
    assert unread_imports(source) == ["assemble_weyl", "os"]
