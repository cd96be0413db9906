"""No package module imports a name it never uses, package code reaches
every public function, class, method and property the package defines,
only the studies with a quadrature law load QUADPACK, and only the dense
spectrum and the Krylov steps call a LAPACK spectral driver."""

import ast
import os
import subprocess
import sys
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


# ---------------------------------------------------------------------------
# counting boundary: a count is certified by a Krylov straddle or by inertia
# ---------------------------------------------------------------------------

SPECTRAL_DRIVERS = frozenset({"eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals"})

# (module, top-level function) allowed to call a spectral driver: the dense
# spectrum of the flow-trace plot, and the Krylov run's Rayleigh-Ritz step
# (eigh of the projection) and deflating QR step (svd of the block's R)
SPECTRAL_CALLERS = {
    ("spectra", "hermitian_eigenvalues"),
    ("spectra", "_ritz_verdicts"),
    ("spectra", "_block_lanczos"),
}


def spectral_driver_callers(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, top-level definition) of every call of a spectral driver,
    by bare name or as an attribute (np.linalg.svd, scipy.linalg.eigh);
    a call outside any definition is named by its module and "<module>"."""
    callers = set()
    for module, tree in trees.items():
        for node in tree.body:
            name = getattr(node, "name", "<module>")
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None)
                if called in SPECTRAL_DRIVERS:
                    callers.add((module, name))
    return callers


def test_only_the_dense_spectrum_and_krylov_steps_call_spectral_drivers():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert spectral_driver_callers(trees) == SPECTRAL_CALLERS


def test_spectral_driver_caller_detection():
    trees = {"a": ast.parse("import numpy as np\nfrom scipy.linalg import svd\n"
                            "def f(a):\n    return np.linalg.eigvalsh(a)\n\n"
                            "def g(a):\n    return svd(a)\n\n"
                            "class C:\n    def h(self, a):\n        return np.linalg.qr(a)\n\n"
                            "np.linalg.eigh(1)\n")}
    assert spectral_driver_callers(trees) == {("a", "f"), ("a", "g"), ("a", "<module>")}


# ---------------------------------------------------------------------------
# import boundary: QUADPACK loads only where a law needs a quadrature
# ---------------------------------------------------------------------------

_GRID = "grid.n_points = 12\ngrid.box_side = 16.0\nmodel.mass = 1.0\nmodel.gap_point = 0.0\n"
_GAUSSIAN = "potential.kind = gaussian\npotential.amplitude = 4.0\npotential.width = 1.0\n"
_POWER = "potential.kind = powerdecay\npotential.exponent = 1.0\npotential.psi_constant = 2.0\n"
BOX = ("study = box\n" + _GRID + "box.corner_x = 0.0\nbox.corner_y = 0.0\nbox.side = 1.0\n"
       "box.tau = 0.5\nbox.betas = 2, 4\n")
CROSSTERM = ("study = crossterm\n" + _GRID + _POWER + "alpha.values = 2, 4\n"
             "localization.eps1 = 0.3\nlocalization.eps2 = 0.8\n")
FLOW_TRACE = "study = flow-trace\n" + _GRID + _GAUSSIAN + "flow.t_values = 0, 1\n"
WEYL = "study = weyl\n" + _GRID + _GAUSSIAN + "alpha.values = 2, 4\n"
THEOREM2 = "study = theorem2\n" + _GRID + _POWER + "alpha.values = 2, 4\nlocalization.eps2 = 1.0\n"

# builds a config from each argument after the first, runs the first config's
# study if the first argument is "run", and prints whether QUADPACK is loaded
_PROBE = """
import sys
from gapcount import cli
from gapcount.config import ExperimentConfig
from gapcount.harness import run_study
configs = [ExperimentConfig.from_text(text) for text in sys.argv[2:]]
if sys.argv[1] == "run":
    run_study(configs[0])
print("scipy.integrate" in sys.modules)
"""


def _quadpack_loaded(*texts: str, run: bool = False) -> bool:
    """Whether scipy.integrate is loaded after the probe, in a fresh
    interpreter: this one loaded it already, through tests/oracles.py."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PROBE, "run" if run else "build", *texts],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip() == "True"


def test_studies_without_a_quadrature_law_never_load_quadpack():
    assert not _quadpack_loaded(BOX, CROSSTERM, FLOW_TRACE, run=True)


@pytest.mark.parametrize("text", [WEYL, THEOREM2], ids=["weyl", "theorem2"])
def test_law_studies_load_quadpack_while_their_config_is_built(text):
    # so the import is paid during set-up, not inside the study
    assert _quadpack_loaded(text)
