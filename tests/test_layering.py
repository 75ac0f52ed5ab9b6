"""Module layering: no module imports another module's private names.

Each source file of the package is parsed with ``ast``; a relative import
of an underscore name (``from .locallinear import _helper``) couples the
importer to an implementation detail and fails the test.  The package's
own ``_version`` module is a module, not a name, and is allowed.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "jdsmooth").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: from .{node.module} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private
