"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

LIBRARY = sorted((Path(__file__).resolve().parents[1] / "src" / "mmmkit").glob("*.py"))


def test_library_modules_are_found():
    assert len(LIBRARY) > 10


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_imports_only_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {name}"
