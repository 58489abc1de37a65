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


def test_runtime_imports_are_the_standard_library_and_numpy():
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
    assert "numpy" in imported
    outside = {
        top: where for top, where in imported.items()
        if top != "numpy" and top not in sys.stdlib_module_names
    }
    assert not outside, f"imports outside the standard library and NumPy: {outside}"
