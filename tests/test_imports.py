"""No package module imports a name it never uses, and package code reaches
every public function, class, method and property the package defines."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import gapcount

PACKAGE = Path(gapcount.__file__).parent

# (module, name) imported on purpose though unused, with the reason
ALLOWED_UNUSED = {
    ("harness", "assemble_dense"): "bench/selftest.py checks its traced binding",
}

# (module, name) of a public definition that no package code reaches, with
# the reason it stays in the package
ALLOWED_UNREACHED: dict[tuple[str, str], str] = {}


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


def _references(node: ast.AST) -> Counter:
    """Names read inside node: every Name and every attribute of an Attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def unreached_definitions(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """Public definitions that no code of any module references outside
    their own definition, sorted.

    A definition is a public top-level function or class, named (module,
    name), or a public method or property of a top-level class, named
    (module, "Class.member").  A reference is a Name or an Attribute with
    the bare name, wherever it stands; imports, and so the re-exports of
    __init__, are not references.  Dataclass fields are not definitions.
    """
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined.append((module, node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{member.name}", member.name, member)
                            for member in node.body
                            if isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")]
    referenced = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted((module, qualified) for module, qualified, name, node in defined
                  if referenced[name] == _references(node)[name])


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
        "c": ast.parse("class M:\n    x: int = 0\n\n"
                       "    @property\n    def p(self):\n        return self.p\n\n"
                       "    def q(self):\n        return self.r()\n\n"
                       "    def r(self):\n        return 0\n\n"
                       "    def _s(self):\n        pass\n\nM().q\n"),
    }
    assert unreached_definitions(trees) == [("a", "K"), ("a", "f"), ("c", "M.p")]
