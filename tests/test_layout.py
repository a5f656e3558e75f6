"""Package layout: modules reach each other only through public names."""

import ast
import importlib
import importlib.util
import inspect
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


def _resolve(node, roots: dict):
    """The object an attribute chain starting at one of ``roots`` (name -> object) names,
    None for any other expression; AttributeError where a link of the chain is missing."""
    if isinstance(node, ast.Name):
        return roots.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, roots)
        return None if owner is None else getattr(owner, node.attr)
    return None


def surface_reached(tree: ast.Module, roots: dict) -> tuple:
    """(references, misses) of what ``tree`` reaches through ``roots``: each attribute chain
    from a root, and each keyword a call through such a chain passes, is a reference; a
    missing link, or a keyword outside the callee's signature (without ``**kwargs``), a miss."""
    refs, misses = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            try:
                if _resolve(node, roots) is not None:
                    refs.add(ast.unparse(node))
            except AttributeError:
                misses.add(f"no {ast.unparse(node)}")
        elif isinstance(node, ast.Call):
            try:
                callee = _resolve(node.func, roots)
            except AttributeError:
                continue                    # the missing link is the attribute's miss
            if callee is None:
                continue
            params = inspect.signature(callee).parameters
            takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
            for kw in (kw.arg for kw in node.keywords if kw.arg is not None):
                refs.add(f"{ast.unparse(node.func)}({kw}=)")
                if not takes_any and kw not in params:
                    misses.add(f"{ast.unparse(node.func)} takes no {kw}=")
    return refs, sorted(misses)


def load_perfbench(name: str, monkeypatch):
    """perfbench/<name>.py as a module, registered in sys.modules for the test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_surface_resolves(tmp_path, monkeypatch):
    # the benchmark calls hmflab by name and passes keywords and config keys that
    # removing a public name or an option can break, while its files stay as they are
    workloads = load_perfbench("workloads", monkeypatch)
    roots = {name: obj for name, obj in vars(workloads).items()
             if inspect.ismodule(obj) and obj.__name__.split(".")[0] == "hmflab"}
    assert set(roots) == {"H", "cli", "grids"}
    path = ROOT / "perfbench" / "workloads.py"
    refs, misses = surface_reached(ast.parse(path.read_text(), filename=str(path)), roots)
    assert not misses, misses
    assert {"H.run", "cli.parse_config", "grids.write_series_csv", "H.scattering_limit(up_to=)",
            "H.scattering_limit(carry=)", "H.SpectralField(real_valued=)", "H.growth_rate(n=)"} <= refs
    targets = load_perfbench("tracer", monkeypatch).TARGETS
    absent = [(module, func) for module, func, *_ in targets
              if not hasattr(importlib.import_module(f"hmflab.{module}"), func)]
    assert not absent, f"traced functions hmflab lacks: {absent}"
    for w in workloads.WORKLOADS.values():
        out = tmp_path / w.name
        out.mkdir()
        params, parsed = workloads.setup(w, 1, 0, out)
        assert set(parsed) == set(w.configs(params)), w.name


def test_checker_sees_surface_misses():
    import hmflab as H
    tree = ast.parse("H.run(cfg)\nH.penrose_check(k, p, n_tau=5, scan=None)\nH.gone()\nH.InteractionKernel.nope\n"
                     "x.y(z=1)\nH.SpectralField(g, v, real_valued=False)\nH.maxwellian(1.0).T\n")
    refs, misses = surface_reached(tree, {"H": H})
    assert misses == ["H.penrose_check takes no scan=", "no H.InteractionKernel.nope", "no H.gone"]
    assert refs == {"H.run", "H.penrose_check", "H.penrose_check(n_tau=)", "H.penrose_check(scan=)",
                    "H.InteractionKernel", "H.SpectralField", "H.SpectralField(real_valued=)", "H.maxwellian"}


MATRIX_PRODUCTS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def matrix_products(path: Path) -> list:
    """(line, what) of every `@`, numpy matrix product and einsum that may take
    ``optimize`` in a module: BLAS sums in an order that depends on the thread
    count, and an optimized einsum may hand its contraction to tensordot, so the
    package sums with ufunc reductions and einsum's own C loop."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "einsum"
              and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")):
            # a ** splat may carry optimize too
            found += [(node.lineno, f"{node.func.value.id}.einsum({kw.arg or '**'}=)")
                      for kw in node.keywords if kw.arg in ("optimize", None)]
    return sorted(found)


def test_no_matrix_products():
    offenders = {p.name: matrix_products(p) for p in sorted(SRC.glob("*.py"))}
    offenders = {name: hits for name, hits in offenders.items() if hits}
    assert not offenders, f"matrix products in src/hmflab: {offenders}"


def test_checker_sees_matrix_products(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nimport numpy\n@decorator\ndef f(a, b):\n    c = a @ b\n    c @= b\n"
                     "    return np.dot(a, b) + numpy.matmul(a, b) + np.tensordot(a, b, 1)\n"
                     "g = [np.inner, np.vdot]\nh = a.dot(b) + np.add.reduce(a * b)\n"
                     "e = np.einsum('ij,jk->ik', a, b, out=c) + np.einsum('ij,jk', a, b, optimize=False)\n"
                     "e = numpy.einsum('ij,jk', a, b, optimize='greedy') + np.einsum('i', a, **kw) + x.einsum(a)\n")
    assert matrix_products(probe) == [(5, "@"), (6, "@"), (7, "np.dot"), (7, "np.tensordot"),
                                      (7, "numpy.matmul"), (8, "np.inner"), (8, "np.vdot"),
                                      (10, "np.einsum(optimize=)"), (11, "np.einsum(**=)"),
                                      (11, "numpy.einsum(optimize=)")]


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


def stencil_statements(path: Path) -> list:
    """(function, line, what) of every floor call (``math.floor``, ``np.floor`` or a bare
    ``floor``) and every ``_lagrange_weights`` call in a module, with the name of the
    innermost function around it (None at module level): the two halves of a stencil
    statement, a read position's floor and the Lagrange weights taken at its fraction."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("floor", "_lagrange_weights"):
                found.append((function, node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_one_stencil_statement():
    # one function floors a read position and takes the Lagrange weights at its
    # fraction; every read, pointwise or a whole-row shift, takes its taps from it
    found = {p.name: stencil_statements(p) for p in sorted(SRC.glob("*.py"))}
    found = {name: [(function, what) for function, _, what in hits] for name, hits in found.items() if hits}
    assert found == {"grids.py": [("_stencil", "floor"), ("_stencil", "_lagrange_weights")]}, found


def test_checker_sees_stencil_statements(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nimport numpy as np\nfrom math import floor\n"
                     "def read(x):\n    f = math.floor(x)\n    return _lagrange_weights(x - f)\n"
                     "def plan(x):\n    def inner(y):\n        return np.floor(y)\n    return floor(x) + inner(x)\n"
                     "g = [grids._lagrange_weights(0.5), round(2.5), x // 1, math.ceil(2.5), h.floor_of(3)]\n")
    assert stencil_statements(probe) == [("read", 5, "floor"), ("read", 6, "_lagrange_weights"),
                                         ("inner", 9, "floor"), ("plan", 10, "floor"),
                                         (None, 11, "_lagrange_weights")]


def ladder_plan_reads(path: Path) -> list:
    """(function, line) of every read of ``_ladder_plan`` in a module, a bare name or an
    attribute, with the name of the innermost function around it (None at module level);
    the function's own definition is no read."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if ((isinstance(node, ast.Name) and node.id == "_ladder_plan")
                or (isinstance(node, ast.Attribute) and node.attr == "_ladder_plan")):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_one_ladder_statement():
    # one function takes the Sobolev ladder's tables: the stacked ladder, of which
    # norm_ladder and sobolev_norm are the one-field case
    found = {p.name: ladder_plan_reads(p) for p in sorted(SRC.glob("*.py"))}
    found = {name: [function for function, _ in hits] for name, hits in found.items() if hits}
    assert found == {"grids.py": ["norm_ladders"]}, found


def test_checker_sees_ladder_statements(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import functools\n@functools.lru_cache\ndef _ladder_plan(grid, q):\n    return grid\n"
                     "def ladders(g):\n    return _ladder_plan(g, 3)\n"
                     "def other(g):\n    plan = grids._ladder_plan\n    return (lambda: plan(g, 1))()\n"
                     "tables = [_ladder_plan, _ladder_plans, ladder_plan]\n")
    assert ladder_plan_reads(probe) == [("ladders", 6), ("other", 8), (None, 10)]
