"""The package's public names and its runtime dependencies."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import gpqm


def test_every_exported_name_resolves_once():
    names = gpqm.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(gpqm, name)  # raises AttributeError for a name the package lacks


def _imported() -> dict[str, str]:
    """Each top-level module that a module under src/gpqm imports, with the
    first file that imports it."""
    imported = {}
    for path in sorted(Path(gpqm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                imported.setdefault(module.partition(".")[0], path.name)
    return imported


def test_runtime_imports_are_the_standard_library_and_numpy():
    imported = _imported()
    assert "numpy" in imported
    outside = {
        top: where for top, where in imported.items()
        if top != "numpy" and top not in sys.stdlib_module_names
    }
    assert not outside, f"imports outside the standard library and NumPy: {outside}"


def test_package_imports_no_test_oracle():
    # Each reference under tests/ is a copy that the tests compare the package
    # with, so a package module that imported one would be compared with itself.
    oracles = {"sweep_reference", "pair_reference", "pso_reference", "deepest_reference"}
    assert oracles <= {path.stem for path in Path(__file__).parent.glob("*.py")}
    found = {top: where for top, where in _imported().items() if top in oracles}
    assert not found, f"the package imports test oracles: {found}"
