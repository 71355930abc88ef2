"""Source-level rules for the taucalc package."""

import ast
import ctypes
import importlib.machinery
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from taucalc import (GridFunction, TwoByTwoSystem, build_grid, chain,
                     chain_eigenvalues, general_solution, linear_map,
                     resolvent)
from taucalc.calculus import (shift, step_quotient, tau_antiderivative,
                              tau_derivative, tau_integral)
from taucalc.chain import (apply_A, apply_Astar, bands_AAstar,
                           factorization_residual, tridiag_apply)
from taucalc.grid import GROUP, INTERVAL, OrbitGrid
from taucalc.hilbert import (adjoint_shift, inner_product,
                             weight_from_pearson)
from taucalc.scenarios import qhahn_chain

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "taucalc").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    # a helper another module needs is part of the package API: name it publicly
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# public top-level functions and classes that no package or command-line
# code calls, each with the reason it stays public; the reservations name
# the ROADMAP.md item that gives them a caller
PUBLIC_WITHOUT_CALLER = {
    ("calculus.py", "tau_exponential"):
        "reserved: the paper's first-order solutions in a criterion",
    ("calculus.py", "solve_linear_first_order"):
        "reserved: the paper's first-order solutions in a criterion",
    ("riccati.py", "system_from_second_order"):
        "reserved: a second eigen-solve path through the three-point equation",
    ("covariance.py", "affine_change"):
        "reserved: equivariance end to end",
    ("covariance.py", "powerlaw_change"):
        "reserved: equivariance end to end",
    ("io.py", "write_level_csv"):
        "wrapped by perfbench/tracing.py as an io.write span",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_without_caller(paths):
    """(file, name) of every public top-level function or class of
    ``paths`` that no code in ``paths`` refers to outside its own
    definition, by its name or as an attribute of a module imported with
    ``from . import <module>``; and (file, "Class.method") of every public
    method of a class of ``paths`` whose name no code in ``paths`` reads
    as an attribute outside the method itself."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    defined = {(f, node.name) for f, tree in trees.items() for node in tree.body
               if isinstance(node, FUNCTIONS + (ast.ClassDef,))
               and not node.name.startswith("_")}
    methods = {(f, top.name, node) for f, tree in trees.items()
               for top in tree.body if isinstance(top, ast.ClassDef)
               for node in top.body if isinstance(node, FUNCTIONS)
               and not node.name.startswith("_")}
    used, read = set(), Counter()
    for tree in trees.values():
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level
                   and node.module is None for alias in node.names}
        for top in tree.body:
            own = getattr(top, "name", None)
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, ast.Name) or isinstance(
                         node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in modules} - {own}
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    for _, _, method in methods:
        read.subtract(node.attr for node in ast.walk(method)
                      if isinstance(node, ast.Attribute)
                      and node.attr == method.name)
    return sorted([(f, name) for f, name in defined if name not in used]
                  + [(f, f"{cls}.{method.name}") for f, cls, method in methods
                     if read[method.name] <= 0])


def test_every_public_function_has_a_caller():
    # a helper only tests call lives in tests/, beside them or in an oracle
    assert public_without_caller(SOURCES) == sorted(PUBLIC_WITHOUT_CALLER)


def test_surface_rule_sees_public_functions_without_caller(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def used():\n    return unused_here\n\n"
        "def unused():\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def _private():\n    pass\n\n"
        "class Reached:\n    def read(self):\n        return 1\n\n"
        "    def again(self):\n        return self.again()\n\n"
        "    def _private(self):\n        pass\n\n"
        "class Alone:\n    def used(self):\n        return Alone()\n")
    (pkg / "b.py").write_text(
        "from . import a as mod\nfrom .a import used\n\n"
        "def run(x):\n    return used() + x.unused + mod.Reached().read()\n")
    (pkg / "__init__.py").write_text(
        "from .a import Alone, unused\n__all__ = ['unused', 'run']\n")
    assert public_without_caller(sorted(pkg.glob("*.py"))) == [
        ("a.py", "Alone"), ("a.py", "Alone.used"), ("a.py", "Reached.again"),
        ("a.py", "recursive"), ("a.py", "unused"), ("b.py", "run")]


def test_cli_import_leaves_scipy_unloaded(src_env):
    # scipy is imported where the eigen-solve needs it, not at start-up
    code = "import sys, taucalc.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=src_env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


EIGEN_RUN = """\
import sys
from taucalc import chain
from taucalc.scenarios import qhahn_chain
{before}
values = chain.chain_eigenvalues(qhahn_chain(depth=60, n_levels=1).levels[0],
                                 count=3)
print(values.tobytes().hex(), "scipy.linalg" in sys.modules)
{after}
"""


def eigen_run(src_env, before="", after=""):
    """The lines a child interpreter prints: the eigenvalues of a q-Hahn
    level as hex and whether scipy.linalg was loaded after the solve, run
    between ``before`` and ``after``, then what ``after`` prints."""
    code = EIGEN_RUN.format(before=before, after=after)
    return subprocess.run([sys.executable, "-c", code], env=src_env,
                          check=True, capture_output=True,
                          text=True).stdout.split()


def test_eigen_solve_leaves_scipy_linalg_unloaded(src_env):
    # the eigen-solve loads scipy's compiled cython_lapack from its own
    # file; scipy.linalg, imported later, binds that same module
    after = ("import scipy.linalg\n"
             "print(scipy.linalg.cython_lapack.__pyx_capi__"
             " is chain._cython_lapack().__pyx_capi__)")
    assert eigen_run(src_env, after=after)[1:] == ["False", "True"]


def test_eigen_solve_reads_the_same_lapack_after_scipy_linalg(src_env):
    alone, loaded = eigen_run(src_env), eigen_run(src_env, "import scipy.linalg")
    assert loaded == [alone[0], "True"]


def test_eigen_solve_names_a_missing_lapack_extension(monkeypatch):
    # nothing else is tried: the error names the module and the files
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".missing.so"])
    monkeypatch.delitem(sys.modules, "scipy.linalg.cython_lapack",
                        raising=False)
    chain._cython_lapack.cache_clear()
    try:
        with pytest.raises(ImportError,
                           match=r"scipy\.linalg\.cython_lapack: .*"
                                 r"cython_lapack\.missing\.so") as exc:
            chain._cython_lapack()
        assert exc.value.name == "scipy.linalg.cython_lapack"
    finally:
        chain._cython_lapack.cache_clear()


def scipy_linalg_imports(path):
    """Line of every import of scipy.linalg or a module under it, by an
    import statement or by a call of ``import_module`` or ``__import__``
    with the module's name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("import_module", "__import__")):
            names = [getattr(node.args[0], "value", None)]
        else:
            continue
        if any(isinstance(n, str) and (n + ".").startswith("scipy.linalg.")
               for n in names):
            found.append(node.lineno)
    return found


def test_no_scipy_linalg_import():
    # scipy.linalg's package imports some 85 modules and 24 MB; the
    # eigen-solve loads the one extension it needs from its own file
    assert [(p.name, line) for p in SOURCES
            for line in scipy_linalg_imports(p)] == []


def test_scipy_linalg_rule_sees_its_imports(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (
            ("from scipy.linalg.cython_lapack import __pyx_capi__", [1]),
            ("import scipy.linalg as la", [1]),
            ("from scipy import linalg", [1]),
            ("import importlib\nm = importlib.import_module('scipy.linalg')",
             [2]),
            ("m = __import__('scipy.linalg.cython_lapack')", [1]),
            ("import scipy\nfrom scipy import special", []),
            ("import scipy.linalgebra", []),
            ("name = 'scipy.linalg.cython_lapack'", []),
            ("from .linalg import solve", [])):
        path.write_text(code + "\n")
        assert scipy_linalg_imports(path) == hits


def name_uses(path, name):
    """Line of every use of ``name`` in ``path``: as a bare name, as an
    attribute, or imported from a module."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(
                encoding="utf-8")))
            if getattr(node, "id", getattr(node, "attr", None)) == name
            or isinstance(node, ast.ImportFrom)
            and any(alias.name == name for alias in node.names)]


def test_eigen_solve_is_not_the_golub_kahan_bisection():
    # chain_eigenvalues bisects the factor's own L D L^T at order N with
    # dlarrb; the order-2N Golub-Kahan solve is the test oracle alone
    assert [(p.name, line) for p in SOURCES
            for line in name_uses(p, "eigvalsh_tridiagonal")] == []


def test_name_rule_sees_eigvalsh_tridiagonal(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (("from scipy.linalg import eigvalsh_tridiagonal", [1]),
                       ("import scipy\nw = scipy.linalg.eigvalsh_tridiagonal(e)",
                        [2]),
                       ("f = eigvalsh_tridiagonal", [1]),
                       ("from scipy.linalg import eigh_tridiagonal", []),
                       ("x = 'eigvalsh_tridiagonal'", [])):
        path.write_text(code + "\n")
        assert name_uses(path, "eigvalsh_tridiagonal") == hits


@pytest.mark.parametrize("name, restype, addresses", [
    pytest.param("dlarrb", None, 17, id="dlarrb"),
    pytest.param("dlar1v", None, 21, id="dlar1v"),
    pytest.param("dlaneg", ctypes.c_int, 6, id="dlaneg"),
])
def test_eigen_solve_builds_its_lapack_binding_once(monkeypatch, name,
                                                    restype, addresses):
    level = qhahn_chain(depth=60, n_levels=1).levels[0]
    built, cfunctype = [], ctypes.CFUNCTYPE
    monkeypatch.setattr(ctypes, "CFUNCTYPE",
                        lambda *types: built.append(types) or cfunctype(*types))
    binding = getattr(chain, f"_{name}")
    binding.cache_clear()
    first = chain_eigenvalues(level, count=3)
    assert np.array_equal(chain_eigenvalues(level, count=3), first)
    # other modules imported on the first call make prototypes of their own
    prototype = (restype, *[ctypes.c_void_p] * addresses)
    assert built.count(prototype) == 1 and binding.cache_info().misses == 1


@pytest.mark.parametrize("name, signature", [
    pytest.param("dlarrb", "void (int *, d *)", id="dlarrb"),
    pytest.param("dlar1v", "void (int *, d *)", id="dlar1v"),
    # dlaneg's arguments, with no result
    pytest.param("dlaneg", "void (int *, d *, d *, d *, d *, int *)",
                 id="dlaneg"),
])
def test_eigen_solve_refuses_a_binding_of_another_signature(monkeypatch,
                                                           name, signature):
    # the addresses are passed unchecked, so the C signature is checked
    # when the binding is built
    monkeypatch.setattr(chain, f"_{name.upper()}_SIGNATURE", signature)
    binding = getattr(chain, f"_{name}")
    binding.cache_clear()
    try:
        with pytest.raises(ImportError, match=f"{name} has signature"):
            binding()
    finally:
        binding.cache_clear()


# per-branch loops that remain outside grid.py; a new orbit recursion goes
# through OrbitGrid.suffix_scan, outward_scan or the one 2x2 walk
# (mobius_scan, suffix_products) instead of its own loop
BRANCH_LOOPS_ALLOWED = set()


def branch_loops(path):
    """(file, enclosing function) of every ``for`` over .slices/.branches."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.For, ast.AsyncFor)) and any(
                    isinstance(n, ast.Attribute)
                    and n.attr in ("slices", "branches")
                    for n in ast.walk(child.iter)):
                found.append((path.name, func))
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_no_new_per_branch_loops():
    loops = [loop for path in SOURCES if path.name != "grid.py"
             for loop in branch_loops(path)]
    assert set(loops) <= BRANCH_LOOPS_ALLOWED
    assert len(loops) == len(BRANCH_LOOPS_ALLOWED)


# gridfn alone decides the dtype of a function's values: float64, or
# complex128 once a complex value enters, and every operation elsewhere
# computes in the dtype of its operands; each (file, function) outside
# gridfn.py that names a complex type, with the reason
COMPLEX_DTYPE_ALLOWED = {
    ("scenarios.py", "squared_weight_product"):
        "symmetric_qpochhammer's complex beta: beta = sqrt(beta^2) is "
        "imaginary where beta^2 < 0, and the product is then still real",
}

COMPLEX_TYPES = ("complex", "complex64", "complex128", "cdouble", "csingle",
                 "clongdouble", "complexfloating")


def complex_dtype_sites(path):
    """(file, enclosing function) of every complex type named outside an
    annotation (``dtype=complex``, ``astype(complex)``, ``complex(x)``,
    ``np.complex128``, ``dtype="complex128"``) and of every ``+ 0j`` or
    ``- 0j``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hints = {id(n) for node in ast.walk(tree)
             for hint in (getattr(node, "annotation", None),
                          getattr(node, "returns", None)) if hint is not None
             for n in ast.walk(hint)}
    found = []

    def names_complex(node):
        if isinstance(node, ast.keyword):
            return (node.arg == "dtype" and isinstance(node.value, ast.Constant)
                    and str(node.value.value).startswith("complex"))
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, (ast.Add, ast.Sub)) and any(
                isinstance(v, ast.Constant) and isinstance(v.value, complex)
                and v.value == 0 for v in (node.left, node.right))
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return name in COMPLEX_TYPES and id(node) not in hints

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                visit(child, child.name)
                continue
            if names_complex(child):
                found.append((path.name, func))
            visit(child, func)

    visit(tree, None)
    return found


def test_value_dtype_is_decided_in_gridfn():
    sites = {site for path in SOURCES if path.name != "gridfn.py"
             for site in complex_dtype_sites(path)}
    assert sites == set(COMPLEX_DTYPE_ALLOWED)


def test_dtype_rule_sees_complex_types(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (
            ("a = np.zeros(n, dtype=complex)", [("mod.py", None)]),
            ("def f(x):\n    return x.astype(complex)", [("mod.py", "f")]),
            ("def f(x):\n    return x + 0j", [("mod.py", "f")]),
            ("y = 0j - x", [("mod.py", None)]),
            ("y = np.empty(n, np.complex128)", [("mod.py", None)]),
            ("y = complex(x)", [("mod.py", None)]),
            ("y = np.asarray(x, dtype='complex128')", [("mod.py", None)]),
            ("class C:\n    def m(self):\n        return np.cdouble(1)",
             [("mod.py", "m")]),
            ("def f(c: complex = 0.0) -> complex:\n    return c", []),
            ("c: complex | None = None", []),
            ("y = x * 1j + 2j", []),
            ("y = np.zeros(n, dtype=float)", []),
            ("ok = np.iscomplexobj(x)", []),
            ("msg = 'complex data'", [])):
        path.write_text(code + "\n")
        assert complex_dtype_sites(path) == hits


# gridfn alone decides when a GridFunction copies an array and when it
# keeps one: its constructor copies a writable array and keeps a
# read-only one, and GridFunction.fresh freezes an array its caller has
# just made and hands over.  Every other place that freezes an array,
# with the reason: a whole file (function None) or a (file, function)
FREEZE_ALLOWED = {
    ("gridfn.py", None): "the copy-or-keep rule: the constructor and "
                         "GridFunction.fresh",
    ("grid.py", None): "points, steps, masks and plans shared by every "
                       "function on a grid",
    ("maps.py", None): "the scale walk a map keeps for the grids built on it",
    ("riccati.py", "ResolventResult.__post_init__"):
        "the resolvent's matrix stack, kept on its result",
    ("riccati.py", "_family"):
        "the t-independent parts of a solution family, kept on its system",
}


def scoped_sites(path, hit):
    """(file, enclosing class and function, dotted) of every node for
    which ``hit(node)`` holds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, *FUNCTIONS)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if hit(child):
                found.append((path.name, scope))
            visit(child, scope)

    visit(tree, None)
    return found


def freeze_sites(path):
    """(file, enclosing class and function, dotted) of every ``setflags``
    call and every assignment to ``flags.writeable``."""
    def freezes(node):
        if isinstance(node, ast.Call):
            return getattr(node.func, "attr", None) == "setflags"
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [getattr(node, "target", None)])
        return any(getattr(t, "attr", None) == "writeable" for t in targets)

    return scoped_sites(path, freezes)


def test_arrays_are_frozen_in_gridfn():
    sites = {(name, None) if (name, None) in FREEZE_ALLOWED else (name, scope)
             for path in SOURCES for name, scope in freeze_sites(path)}
    assert sites == set(FREEZE_ALLOWED)


def test_freeze_rule_sees_setflags_and_writeable(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (
            ("a.setflags(write=False)", [("mod.py", None)]),
            ("def f(a):\n    a.setflags(False)", [("mod.py", "f")]),
            ("class C:\n    def m(self):\n        self.a.setflags(write=0)",
             [("mod.py", "C.m")]),
            ("def f(a):\n    a.flags.writeable = False", [("mod.py", "f")]),
            ("def f(a):\n    a.flags.writeable: bool = False",
             [("mod.py", "f")]),
            ("def f(a):\n    return a.flags.writeable", []),
            ("def f(g, a):\n    return GridFunction.fresh(g, a)", [])):
        path.write_text(code + "\n")
        assert freeze_sites(path) == hits


# riccati's one tail rule: the points a suffix product or sum may read
# start from the live scan, the mask of points with a valid point at or
# after them on their branch, which only the tail helper runs
def live_scan_sites(path):
    """(file, enclosing class and function, dotted) of every
    ``suffix_scan`` call whose first argument is ``logical_or``."""
    def live_scan(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "suffix_scan"
                and bool(node.args)
                and (getattr(node.args[0], "attr", None)
                     or getattr(node.args[0], "id", None)) == "logical_or")

    return scoped_sites(path, live_scan)


def test_live_scan_runs_in_the_tail_helper_alone():
    sites = [site for path in SOURCES for site in live_scan_sites(path)]
    assert sites == [("riccati.py", "_tail")]


def test_live_scan_rule_sees_its_calls(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (
            ("live = grid.suffix_scan(np.logical_or, m)", [("mod.py", None)]),
            ("def f(g, m):\n    return g.suffix_scan(logical_or, m)",
             [("mod.py", "f")]),
            ("class C:\n    def m(self, v):\n"
             "        return self.grid.suffix_scan(np.logical_or, v[0])",
             [("mod.py", "C.m")]),
            ("def f(g, m):\n    return g.suffix_scan(np.logical_and, m)", []),
            ("def f(g, m):\n    return g.suffix_scan(np.add, m)", []),
            ("def f(m):\n    return np.logical_or.accumulate(m)", [])):
        path.write_text(code + "\n")
        assert live_scan_sites(path) == hits


# a defaulted tolerance nothing sets is a constant of the method, not a
# choice for the caller; the CLI sets run_criteria's override
TOLERANCE_PARAMETERS_ALLOWED = {("validation.py", "run_criteria", "tol_override")}


def defaulted_tolerances(path):
    """(file, function, parameter) of every defaulted parameter whose name
    contains ``tol`` in a public module-level function or public method."""
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("_")):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
            found += [(path.name, node.name, a.arg) for a in defaulted
                      if "tol" in a.arg]
    return found


def test_no_unused_tolerance_parameters():
    found = {t for path in SOURCES for t in defaulted_tolerances(path)}
    assert found == TOLERANCE_PARAMETERS_ALLOWED


def test_tolerance_rule_sees_defaulted_tolerances(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (
            ("def f(x, tol=1e-9):\n    pass", [("mod.py", "f", "tol")]),
            ("def f(x, *, rel_tol=1e-3):\n    pass",
             [("mod.py", "f", "rel_tol")]),
            ("class C:\n    def m(self, tol_a=1.0, b=2):\n        pass",
             [("mod.py", "m", "tol_a")]),
            ("def f(x, tol):\n    pass", []),
            ("def f(x, *, tol):\n    pass", []),
            ("def _f(x, tol=1e-9):\n    pass", []),
            ("def f(x, depth=3):\n    pass", [])):
        path.write_text(code + "\n")
        assert defaulted_tolerances(path) == hits


POINTWISE = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
             ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(node):
    """``node`` and the nodes below it, skipping nested comprehensions and
    lambdas (they evaluate a map pointwise and carry no iterate from one
    step to the next) and nested functions (their loops count alone)."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, POINTWISE):
            yield from own_nodes(child)


# ufuncs whose running scan composes a scale step x -> q x (or its inverse)
SCALE_UFUNCS = ("multiply", "divide", "true_divide")


def scale_scan(node):
    """Whether ``node`` is a running product or quotient: a call of
    ``<multiply|divide|true_divide>.accumulate`` or of ``cumprod``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    return node.func.attr == "cumprod" or (
        node.func.attr == "accumulate" and isinstance(owner, ast.Attribute)
        and owner.attr in SCALE_UFUNCS)


def map_loops(path):
    """Line of every ``for``/``while`` loop that itself calls ``.forward``
    or ``.inverse``, and of every running product or quotient (an orbit of
    x -> q x made by ``ufunc.accumulate``)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text(
                      encoding="utf-8")))
                  if scale_scan(node)
                  or isinstance(node, (ast.For, ast.AsyncFor, ast.While))
                  and any(isinstance(n, ast.Call)
                          and isinstance(n.func, ast.Attribute)
                          and n.func.attr in ("forward", "inverse")
                          for n in own_nodes(node)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_map_iteration_outside_maps(path):
    # an orbit is walked once, by maps.limit_point (step by step, or as
    # running products for a scale map); grids cut their points from that
    # walk instead of iterating tau again
    if path.name != "maps.py":
        assert map_loops(path) == []


def test_map_loop_rule_sees_iteration(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (("for _ in range(n):\n    x = tau.forward(x)", [1]),
                       ("while x > 0:\n    x = m.inverse(x) - 1", [1]),
                       ("for x in xs:\n    ys.append(f(g.tau.forward(x)))", [1]),
                       ("ys = [tau.forward(x) for x in xs]", []),
                       ("for m in ms:\n    ys = [m.forward(x) for x in xs]", []),
                       ("for x in xs:\n    ys.append(step(x))", []),
                       ("w = np.multiply.accumulate(np.full(n, q))", [1]),
                       ("x = 1\nnp.divide.accumulate(w, out=w)", [2]),
                       ("w = np.true_divide.accumulate(w)", [1]),
                       ("w = np.cumprod(np.full(n, q))", [1]),
                       ("w = steps.cumprod()", [1]),
                       ("ok = np.logical_and.accumulate(mask)", []),
                       ("out = ufunc.accumulate(rev, axis=-1)", []),
                       ("s = np.cumsum(steps)", [])):
        path.write_text(code + "\n")
        assert map_loops(path) == hits


def ladder_steps(path):
    """Line of every call of ``advance_level``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(
                encoding="utf-8")))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "advance_level"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_ladder_lives_in_chain(path):
    # a chain is built by chain.build_chain, which stamps each level with
    # its step data and advances it; no other module walks the ladder
    if path.name != "chain.py":
        assert ladder_steps(path) == []


def test_ladder_rule_sees_advance_calls(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (("lvl = advance_level(lvl, h)", [1]),
                       ("lvl = chain.advance_level(lvl, h)", [1]),
                       ("for k in ks:\n    x = f(advance_level(x, h))", [2]),
                       ("levels = build_chain(lvl, 3, h, step)", []),
                       ("step = advance_level", [])):
        path.write_text(code + "\n")
        assert ladder_steps(path) == hits


def product_operands(node):
    """The operands of a product ``a * b * ...``, however it nests."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return product_operands(node.left) + product_operands(node.right)
    return [node]


def pearson_left_sides(path):
    """Line of every ``shift(...)`` call, bare or as an attribute, whose
    argument is a product with a ``.rho`` operand: T(B rho), the left side
    of the Pearson recursion."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(
                encoding="utf-8")))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "shift"
            and node.args and isinstance(node.args[0], ast.BinOp)
            and any(isinstance(op, ast.Attribute) and op.attr == "rho"
                    for op in product_operands(node.args[0]))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_pearson_residual_lives_in_hilbert(path):
    # the recursion T(B rho) = eta rho is checked by hilbert.pearson_residual
    # alone; every gate reads that one residual
    if path.name != "hilbert.py":
        assert pearson_left_sides(path) == []


def test_pearson_rule_sees_left_sides(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (("r = shift(level.B * level.w.rho)", [1]),
                       ("r = shift(w.rho * B)", [1]),
                       ("r = calculus.shift(g * B * w.rho, 1)", [1]),
                       ("x = 1\nd = shift(B * w.rho) - eta * w.rho", [2]),
                       ("r = shift(g * level.eta)", []),
                       ("r = shift(level.w.rho)", []),
                       ("r = shift(B + w.rho)", []),
                       ("r = level.eta * level.w.rho", [])):
        path.write_text(code + "\n")
        assert pearson_left_sides(path) == hits


# every Python file of the repository but the benchmark harness, which has
# its own command line, and hidden or build directories
PYTHON_FILES = sorted(
    p for p in ROOT.rglob("*.py")
    if not any(part in ("perfbench", "build") or part.startswith(".")
               for part in p.relative_to(ROOT).parts))


def argparse_imports(path):
    """Line of every ``import argparse`` or ``from argparse import ...``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(
                encoding="utf-8")))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "argparse"
                    for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "argparse"]


def test_one_command_line_front_end():
    # taucalc.cli is the one command line; an example or a check goes into
    # a test or a validation criterion, not into a second argparse program
    assert [p.relative_to(ROOT).as_posix() for p in PYTHON_FILES
            if argparse_imports(p)] == ["src/taucalc/cli.py"]


def test_front_end_rule_sees_argparse_imports(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (("import argparse", [1]),
                       ("from argparse import ArgumentParser", [1]),
                       ("import os\nimport sys, argparse as ap", [2]),
                       ("def main():\n    import argparse", [2]),
                       ("import argparse_extra", []),
                       ("from .argparse import parser", []),
                       ("x = 'import argparse'", [])):
        path.write_text(code + "\n")
        assert argparse_imports(path) == hits


PLAN_SOURCES = ("has_next", "neighbour_mask", "interior")


def rebuilt_plans(path):
    """Line of every ``np.flatnonzero(...)`` whose argument reads a grid
    mask (``.has_next``, ``.neighbour_mask(...)`` or ``.interior(...)``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "flatnonzero"
                and any(isinstance(n, ast.Attribute) and n.attr in PLAN_SOURCES
                        for arg in node.args for n in ast.walk(arg))):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_index_plan_rebuilt_outside_grid(path):
    # the indices of a grid mask are a per-grid plan: take them from
    # OrbitGrid.neighbour_index, interior_index or reach
    if path.name != "grid.py":
        assert rebuilt_plans(path) == []


def test_plan_rule_sees_rebuilt_indices(tmp_path):
    path = tmp_path / "mod.py"
    for line, hits in (("n = np.flatnonzero(grid.has_next)", [1]),
                       ("n = np.flatnonzero(~g.has_next)", [1]),
                       ("n = np.flatnonzero(g.neighbour_mask(-1) & m)", [1]),
                       ("n = np.flatnonzero(g.interior(2))", [1]),
                       ("n = np.flatnonzero(pole)", []),
                       ("n = g.neighbour_index(1)", [])):
        path.write_text(line + "\n")
        assert rebuilt_plans(path) == hits


def counting_plans(monkeypatch):
    """Count each plan's builds (by key), and record the (grid, outward)
    of each build of the one walk-layout builder."""
    builds, layouts = Counter(), []
    plan, layout = OrbitGrid._plan, OrbitGrid._walk_layout

    def counted_plan(self, key, build, *args):
        def counted(*build_args):
            builds[key] += 1
            return build(*build_args)
        return plan(self, key, counted, *args)

    def counted_layout(self, outward):
        layouts.append((self, outward))
        return layout(self, outward)

    monkeypatch.setattr(OrbitGrid, "_plan", counted_plan)
    monkeypatch.setattr(OrbitGrid, "_walk_layout", counted_layout)
    return builds, layouts


def test_operators_build_each_plan_once_per_grid(monkeypatch):
    grid = build_grid(linear_map(0.5), INTERVAL, (-1.0, 1.0), max_depth=80)
    f = GridFunction.from_callable(grid, np.cos)
    # a (3, N) probe block, one mask per row
    block = GridFunction(grid, np.stack([np.cos(grid.points),
                                         np.sin(grid.points), grid.points]),
                         np.stack([grid.has_next, grid.interior(),
                                   np.ones(grid.size, dtype=bool)]))
    builds, _ = counting_plans(monkeypatch)
    flatnonzero, indexed = np.flatnonzero, []
    monkeypatch.setattr(np, "flatnonzero",
                        lambda a: indexed.append(1) or flatnonzero(a))
    for _ in range(200):
        for fn in (f, block):
            shift(fn)
            shift(fn, -1)
            shift(fn, 2)
            step_quotient(fn)
            tau_derivative(fn)
            tau_integral(fn)
            tau_antiderivative(fn)
    # has_next's plan was built with the grid; the other two on first use
    assert builds == {("reach", 1, 0): 1, ("reach", 0, 2): 1}
    assert len(indexed) == 2


def test_probe_blocks_build_no_plan_of_their_own(monkeypatch):
    # after one flat call of each operator, (k, N) calls build nothing
    levels = qhahn_chain(depth=40, n_levels=2).levels
    lvl = levels[0]
    grid = lvl.grid
    block = GridFunction(grid, np.random.default_rng(3).standard_normal(
        (6, grid.size)) + 0j).window(5)

    def drive(psi):
        apply_A(lvl, apply_Astar(lvl, psi))
        tridiag_apply(bands_AAstar(lvl), psi)
        inner_product(psi, adjoint_shift(psi, lvl.w), lvl.w, check_tail=False)
        factorization_residual(lvl, levels[1], rng=0)

    drive(GridFunction(grid, block.flat[0]))
    builds, layouts = counting_plans(monkeypatch)
    flatnonzero, indexed = np.flatnonzero, []
    monkeypatch.setattr(np, "flatnonzero",
                        lambda a: indexed.append(1) or flatnonzero(a))
    for _ in range(20):
        drive(block)
    assert builds == {} and layouts == [] and indexed == []


def test_mobius_scan_builds_its_layout_once_per_grid(monkeypatch):
    grids = [build_grid(linear_map(0.6), GROUP, 1.0, max_depth=30),
             build_grid(linear_map(0.8), INTERVAL, (-1.0, 1.0), max_depth=30)]
    _, layouts = counting_plans(monkeypatch)
    for _ in range(5):
        for grid in grids:
            ok = np.ones(grid.size, dtype=bool)
            grid.mobius_scan((0.5, 0, 0, 1.0), 1.0, ok, 1e-13)
    assert layouts == [(grid, True) for grid in grids]


# the one 2x2 walk: its scan and its layout builder are private to grid.py
WALK_PRIMITIVES = ("_doubling_scan", "_walk_layout")


def walk_uses(path):
    """(enclosing function, name) of every reference to a name in
    ``WALK_PRIMITIVES``, and ("def", name) of every function whose name
    ends in "_layout": each builds a walk layout."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name.endswith("_layout"):
                    found.append(("def", child.name))
                visit(child, child.name)
                continue
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name in WALK_PRIMITIVES:
                found.append((func, name))
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_walk_layout_builder():
    # one function builds the layouts of the one 2x2 walk, and only its two
    # read-outs in grid.py take them and run the doubling scan
    uses = {p.name: walk_uses(p) for p in SOURCES}
    assert {name: found for name, found in uses.items() if found} == {
        "grid.py": [("mobius_scan", "_walk_layout"),
                    ("mobius_scan", "_doubling_scan"),
                    ("suffix_products", "_walk_layout"),
                    ("suffix_products", "_doubling_scan"),
                    ("def", "_walk_layout")]}


def test_walk_rule_sees_layouts_and_scans(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (
            ("def _scan_layout(self):\n    pass", [("def", "_scan_layout")]),
            ("def f(m):\n    return _doubling_scan(m)",
             [("f", "_doubling_scan")]),
            ("def f(g):\n    return g._walk_layout(True)",
             [("f", "_walk_layout")]),
            ("p = grid._doubling_scan", [(None, "_doubling_scan")]),
            ("def f(g):\n    return g.mobius_scan(s, 1.0, ok, 0.0)", []),
            ("x = '_walk_layout'", [])):
        path.write_text(code + "\n")
        assert walk_uses(path) == hits


def test_pearson_weight_walks_no_mobius_scan(monkeypatch):
    # the weight's step is diagonal: one running product per leg, and the
    # 2x2 scan only where a step is projective
    scans = []
    scan = OrbitGrid.mobius_scan

    def counted(self, *args, **kwargs):
        scans.append(self)
        return scan(self, *args, **kwargs)

    level = qhahn_chain(depth=60, n_levels=1).levels[0]
    group = build_grid(linear_map(0.6), GROUP, 1.0, max_depth=30)
    x = GridFunction(group, group.points)
    monkeypatch.setattr(OrbitGrid, "mobius_scan", counted)
    for B, eta in ((level.B, level.eta), (x * x + 1.0, x * x + 2.0)):
        weight_from_pearson(B, eta)
    chain.make_level(level.B, level.eta, level.h, level.f)
    assert scans == []


def test_resolvent_builds_its_layout_once_per_grid(monkeypatch):
    grids = [build_grid(linear_map(0.6), GROUP, 1.0, max_depth=30),
             build_grid(linear_map(0.8), INTERVAL, (-1.0, 1.0), max_depth=30)]
    systems = []
    for grid in grids:
        one, x = GridFunction.constant(grid, 1.0), GridFunction(grid, grid.points)
        systems.append(TwoByTwoSystem(one, x * 0.1, x * 0.2, one))
    _, layouts = counting_plans(monkeypatch)
    for _ in range(5):
        for sys_ in systems:
            resolvent(sys_)
    assert layouts == [(grid, False) for grid in grids]
    # the Mobius scan walks the same grids outward: one more layout each
    for grid in grids:
        grid.mobius_scan((0.5, 0, 0, 1.0), 1.0, np.ones(grid.size, bool), 1e-13)
    assert layouts == [(grid, False) for grid in grids] + [
        (grid, True) for grid in grids]


def test_solution_family_runs_its_suffix_scans_once(monkeypatch):
    # the t-independent part of a family (its live window, E and S) is
    # kept on the system; each member only checks t and forms u^t
    grid = build_grid(linear_map(0.8), INTERVAL, (-1.0, 1.0), max_depth=30)
    one, x = GridFunction.constant(grid, 1.0), GridFunction(grid, grid.points)
    systems = [TwoByTwoSystem(one, x * 0.1, one * 0.0, one + x * 0.2)
               for _ in range(2)]
    u0 = GridFunction.constant(grid, 0.0)
    scans, scan = [], OrbitGrid.suffix_scan
    monkeypatch.setattr(OrbitGrid, "suffix_scan", lambda self, ufunc, arr:
                        scans.append(ufunc) or scan(self, ufunc, arr))
    for sys_ in systems:
        for t in (0.5, 0.75, 1.0, 2.0, 3.0):
            general_solution(sys_, u0, t)
    assert scans == [np.logical_or, np.multiply, np.add] * len(systems)


def linalg_uses(path):
    """Line of every ``.linalg`` attribute and every import naming linalg."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [p for alias in node.names for p in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = ((node.module or "").split(".")
                     + [alias.name for alias in node.names])
        else:
            continue
        if "linalg" in names:
            found.append(node.lineno)
    return found


def test_riccati_solves_its_2x2_systems_by_the_adjugate():
    # a batched LAPACK call costs more than the closed form for N 2x2
    # systems; riccati forms determinants, inverses and solves by hand
    assert linalg_uses(ROOT / "src" / "taucalc" / "riccati.py") == []


def test_linalg_rule_sees_linalg_uses(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (("d = np.linalg.det(m)", [1]),
                       ("x = numpy.linalg.solve(m, b)", [1]),
                       ("from numpy.linalg import solve", [1]),
                       ("import numpy.linalg as la", [1]),
                       ("from scipy import linalg", [1]),
                       ("import numpy as np\nd = m[0] * m[3]", []),
                       ("x = 'np.linalg.det'", [])):
        path.write_text(code + "\n")
        assert linalg_uses(path) == hits


def dynamic_code_calls(path):
    """Line of every call of ``eval`` or ``exec``, bare or as an attribute
    (``builtins.eval``)."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(
                encoding="utf-8")))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("eval", "exec")]


def test_no_dynamic_code_execution():
    # configuration expressions are parsed and checked node by node, and
    # no source string is ever run as code
    assert [(p.name, line) for p in SOURCES
            for line in dynamic_code_calls(p)] == []


def test_dynamic_code_rule_sees_eval_and_exec(tmp_path):
    path = tmp_path / "mod.py"
    for code, hits in (("y = eval(src)", [1]),
                       ("exec(code, {})", [1]),
                       ("import builtins\nf = builtins.eval(s)", [2]),
                       ("def f(s):\n    return [exec(s)]", [2]),
                       ("tree = ast.parse(src, mode='eval')", []),
                       ("evaluate = fn\ny = evaluate(x)", []),
                       ("x = 'eval(src)'", [])):
        path.write_text(code + "\n")
        assert dynamic_code_calls(path) == hits
