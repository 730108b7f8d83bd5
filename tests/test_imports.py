"""Every module-level import in src/ and tests/ is used by its module, and
the spectrum's LAPACK routines are scipy's own, bound without importing
scipy.linalg.

Package __init__.py files re-export what they import, and `from __future__`
imports change compilation rather than bind a name, so both are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import scipy.linalg.lapack

from rabistark import spectrum

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert files
    unused = [hit for path in files if path.name != "__init__.py"
              for hit in unused_imports(path)]
    assert unused == []


def test_package_and_cli_import_without_scipy_linalg():
    # A fresh interpreter: the CLI's start-up loads LAPACK without
    # scipy.linalg's package init, and a later import of it reuses the module.
    code = ("import sys, rabistark, rabistark.cli\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg.lapack as lapack\n"
            "spectrum = rabistark.spectrum\n"
            "assert spectrum.dstebz is lapack.dstebz and spectrum.dstevd is lapack.dstevd\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_spectrum_binds_scipys_lapack_routines():
    assert spectrum.dstebz is scipy.linalg.lapack.dstebz
    assert spectrum.dstevd is scipy.linalg.lapack.dstevd


def test_flapack_loader_falls_back_to_the_public_module(tmp_path, monkeypatch):
    # No module imported and no extension file in the folder (a zipped or
    # frozen install): the loader imports scipy.linalg.lapack.
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    module = spectrum._load_flapack([str(tmp_path)])
    assert module is scipy.linalg.lapack
    assert module.dstebz is spectrum.dstebz and module.dstevd is spectrum.dstevd
