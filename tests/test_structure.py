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
