"""Package layout: modules reach each other only through public names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hmflab as H

SRC = Path(H.__file__).resolve().parent


def private_imports(path: Path) -> list:
    """(line, module, name) of every `_`-prefixed name a module imports from within the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("hmflab")):
            found += [(node.lineno, node.module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_imports_across_modules():
    offenders = {p.name: private_imports(p) for p in sorted(SRC.glob("*.py"))}
    offenders = {name: hits for name, hits in offenders.items() if hits}
    assert not offenders, f"private names imported across modules: {offenders}"


def test_checker_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nfrom .simulate import Trajectory, _rhs\n"
                     "from hmflab.grids import _lagrange_weights\nfrom .grids import make_grid\n")
    assert private_imports(probe) == [(2, "simulate", "_rhs"), (3, "hmflab.grids", "_lagrange_weights")]


ROOT = SRC.parent.parent
# where an exported name must be used, besides the package's own modules
CALLERS = (*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py")


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _defines(stmt, name: str) -> bool:
    """Whether a top-level statement is ``name``'s definition or the ``__all__`` list."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    return _is_all(stmt)


def references(tree: ast.Module, skip: str = "") -> set:
    """Names a module refers to: Name ids, Attribute attrs and string constants (the
    tracer looks functions up by name), outside ``__all__`` and the definition of ``skip``."""
    found = set()
    for stmt in tree.body:
        if _defines(stmt, skip):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def exports_without_caller(package: Path, callers) -> list:
    """(module, name) of every ``__all__`` entry of ``package``'s modules that is referenced
    neither in its own module outside its definition, nor in another module of the
    package (``__init__.py`` aside), nor in one of the ``callers`` files."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}
    outside = set().union(*(references(ast.parse(p.read_text(), filename=str(p))) for p in callers))
    found = []
    for module, tree in trees.items():
        names = next((ast.literal_eval(stmt.value) for stmt in tree.body if _is_all(stmt)), [])
        seen = outside.union(*(references(other) for name, other in trees.items() if name != module))
        found += [(module, name) for name in names if name not in seen and name not in references(tree, skip=name)]
    return found


def test_every_export_has_a_caller():
    # a public name that only unit tests reach is surface without a use
    missing = exports_without_caller(SRC, CALLERS)
    assert not missing, f"exported names that nothing in src/, demos/, perfbench/ or test_acceptance.py uses: {missing}"


def test_checker_sees_exports_without_caller(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import unused\nunused()\n")
    (package / "a.py").write_text(
        '__all__ = ["self_used", "unused", "recursive", "by_attr", "by_string", "by_name", "Klass"]\n'
        "def self_used(): pass\ndef unused(): pass\ndef recursive(): return recursive()\n"
        "def by_attr(): pass\ndef by_string(): pass\ndef by_name(): pass\n"
        'class Klass:\n    def m(self) -> "Klass": return self\nself_used()\n')
    (package / "b.py").write_text('__all__ = ["by_name", "orphan"]\nfrom .a import by_name\nby_name()\n'
                                  "def orphan(): pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text('import pkg\npkg.a.by_attr()\nTARGETS = (("a", "by_string"),)\n')
    assert exports_without_caller(package, [caller]) == [("a", "unused"), ("a", "recursive"), ("a", "Klass"),
                                                         ("b", "orphan")]


MATRIX_PRODUCTS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def matrix_products(path: Path) -> list:
    """(line, what) of every `@` and numpy matrix product in a module: BLAS sums in
    an order that depends on the thread count, so the package sums with ufunc reductions."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_matrix_products():
    offenders = {p.name: matrix_products(p) for p in sorted(SRC.glob("*.py"))}
    offenders = {name: hits for name, hits in offenders.items() if hits}
    assert not offenders, f"matrix products in src/hmflab: {offenders}"


def test_checker_sees_matrix_products(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nimport numpy\n@decorator\ndef f(a, b):\n    c = a @ b\n    c @= b\n"
                     "    return np.dot(a, b) + numpy.matmul(a, b) + np.tensordot(a, b, 1)\n"
                     "g = [np.inner, np.vdot]\nh = a.dot(b) + np.add.reduce(a * b)\n")
    assert matrix_products(probe) == [(5, "@"), (6, "@"), (7, "np.dot"), (7, "np.tensordot"),
                                      (7, "numpy.matmul"), (8, "np.inner"), (8, "np.vdot")]


def scipy_imports(path: Path) -> list:
    """(line, module) of every import of scipy or one of its submodules in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, node.module))
    return found


def test_no_scipy_imports():
    # numpy alone runs the package: scipy.fft added 26 MB and 0.25 s to every
    # import of hmflab, and with scipy.interpolate a run that transforms a
    # table peaked 43 MB higher
    offenders = {p.name: scipy_imports(p) for p in sorted(SRC.glob("*.py"))}
    offenders = {name: hits for name, hits in offenders.items() if hits}
    assert not offenders, f"scipy imports in src/hmflab: {offenders}"


def test_checker_sees_scipy_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np, scipy\nimport scipy.fft as sp_fft\nfrom scipy.interpolate import CubicSpline\n"
                     "from scipy import special\nfrom .scipy_like import x\nimport scipyx\n"
                     "def f():\n    from scipy.linalg import solve\n")
    assert scipy_imports(probe) == [(1, "scipy"), (2, "scipy.fft"), (3, "scipy.interpolate"), (4, "scipy"),
                                    (8, "scipy.linalg")]


RUN_PATHS = """
import sys
import numpy as np
import hmflab as H
import hmflab.cli
v = np.linspace(-12.0, 12.0, 241)
prof = H.tabulated(v, H.profile_values(H.maxwellian(1.0), v))
kernel = H.InteractionKernel((0.5,))
assert H.penrose_check(kernel, prof).stable
cfg = H.SimConfig(grid=H.make_grid(1, 4.0, 81, 1), kernel=kernel, profile=prof,
                  perturbations=(H.Perturbation(1),), epsilon=0.02, dt=0.05, t_final=0.5)
traj = H.run(cfg)
H.weak_limit_profile(traj.snapshots[-1], prof, 0.02)
print(cfg.n_steps, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_paths_import_no_scipy():
    # a tabulated background reaches every numerical path that once took scipy:
    # the chirp-z scan, the spline rule, the inverse transform and the stage rows
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", RUN_PATHS], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "10 []"
