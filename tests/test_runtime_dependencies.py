"""The package needs only the standard library and numpy at run time.

scipy, mpmath and hypothesis serve the tests as references; an import of
them, or of anything else, from the package's modules fails here.
"""

import ast
from pathlib import Path
import sys

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "sgwhiten").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sgwhiten"}


def imported_roots(tree: ast.AST):
    """Top-level names of the modules a module imports; relative imports
    stay within the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_sources_found():
    assert "detector.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = sorted(set(imported_roots(tree)) - ALLOWED)
    assert not outside, f"{path.name} imports {outside} at run time"
