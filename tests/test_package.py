"""The package runs on its declared dependencies: numpy, and no scipy.

Nor does it load the process-pool machinery before a pool is asked for.
"""

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


def loaded_after(imports: str, module: str) -> bool:
    """Whether a fresh interpreter has `module` loaded after `import imports`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    code = f"import sys, {imports}; print({module!r} in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return res.stdout.strip() == "True"


def test_import_leaves_scipy_unloaded():
    assert not loaded_after("slitsim, slitsim.cli", "scipy")


def test_import_leaves_multiprocessing_unloaded():
    assert not loaded_after("slitsim, slitsim.cli", "multiprocessing")
