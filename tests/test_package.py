"""The package runs on its declared dependencies: numpy, and no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import slitsim

PACKAGE_DIR = Path(slitsim.__file__).parent


def imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    offenders = [p.name for p in modules if "scipy" in imported_roots(p)]
    assert offenders == []


def test_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    code = "import sys, slitsim, slitsim.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"
