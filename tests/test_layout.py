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


def test_import_leaves_scipy_signal_out():
    # scipy.signal adds ~0.9 s to every process that imports hmflab, and
    # scipy.interpolate ~0.3 s that only tabulated profiles need
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, hmflab; print([m for m in ('scipy.signal', 'scipy.interpolate') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
