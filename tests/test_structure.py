"""Source-level rules for the taucalc package."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "taucalc").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    # a helper another module needs is part of the package API: name it publicly
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_import_leaves_scipy_unloaded(src_env):
    # scipy is imported where the eigen-solve needs it, not at start-up
    code = "import sys, taucalc.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=src_env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


# per-branch loops that remain outside grid.py; a new orbit recursion goes
# through OrbitGrid.mobius_scan or suffix_scan instead of its own loop
BRANCH_LOOPS_ALLOWED = {("riccati.py", "resolvent"),
                        ("hilbert.py", "shift_norm"),
                        ("calculus.py", "tau_antiderivative"),
                        ("gridfn.py", "_flat"),
                        ("io.py", "_labels")}


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
