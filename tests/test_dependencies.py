"""The package runs on the standard library alone."""
import ast
import sys
from pathlib import Path

import semicurve


def test_src_imports_only_stdlib_and_semicurve():
    # No dependency is declared, and scipy, though often installed, works in
    # floats: every import of the package must resolve without either.
    allowed = set(sys.stdlib_module_names) | {"semicurve"}
    sources = sorted(Path(semicurve.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert foreign == []


def test_every_export_resolves():
    # A name left in __all__ after its helper is deleted fails here, not in
    # a caller's `from semicurve import *`.
    missing = [name for name in semicurve.__all__ if not hasattr(semicurve, name)]
    assert missing == []
