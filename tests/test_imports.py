"""No package module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import gapcount

PACKAGE = Path(gapcount.__file__).parent

# (module, name) imported on purpose though unused, with the reason
ALLOWED_UNUSED = {
    ("harness", "assemble_dense"): "bench/selftest.py checks its traced binding",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")
                                          if path.stem != "__init__"))
def test_module_imports_no_unused_name(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    allowed = sorted(name for mod, name in ALLOWED_UNUSED if mod == module)
    assert unused == allowed


def test_unused_import_detection():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.linalg\nfrom os import path, sep\n"
              "def f():\n    return np.ones(1), scipy.linalg.norm, sep\n")
    assert unused_imports(source) == ["path"]
