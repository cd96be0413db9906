"""No package module imports a name it never uses, and package code reaches
every public function and class the package defines."""

import ast
from pathlib import Path

import pytest

import gapcount

PACKAGE = Path(gapcount.__file__).parent

# (module, name) imported on purpose though unused, with the reason
ALLOWED_UNUSED = {
    ("harness", "assemble_dense"): "bench/selftest.py checks its traced binding",
}

# (module, name) of a public function or class that no package code reaches,
# with the reason it stays in the package
ALLOWED_UNREACHED = {
    ("operators", "localized_piece"):
        "the term builder of matrix-free cross-term counts (ROADMAP item 2)",
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


def unreached_definitions(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) of every public top-level function or class that no
    top-level statement of any module references outside its own definition.

    A reference is a Name or an Attribute with that name; imports, and so
    the re-exports of __init__, are not references.  Sorted.
    """
    defined = []
    referenced = set()
    for module, tree in trees.items():
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append((module, own))
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    referenced.add(name)
    return sorted(item for item in defined if item[1] not in referenced)


def test_every_public_definition_is_reached_by_package_code():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert unreached_definitions(trees) == sorted(ALLOWED_UNREACHED)


def test_unreached_definition_detection():
    trees = {
        "a": ast.parse("def f():\n    return f()\n\ndef g():\n    return H\n\n"
                       "class H:\n    pass\n\nclass K:\n    pass\n\n"
                       "def _private():\n    pass\n"),
        "b": ast.parse("from a import K\nimport a\na.g()\n"),
    }
    assert unreached_definitions(trees) == [("a", "K"), ("a", "f")]
