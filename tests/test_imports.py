"""Static audit: the package imports only the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import dcinv

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dcinv"}


def test_every_import_is_stdlib_numpy_or_dcinv():
    root = Path(dcinv.__file__).parent
    sources = sorted(root.rglob("*.py"))
    assert len(sources) > 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # relative imports stay inside dcinv
                continue
            outside += [f"{path.relative_to(root)}: {name}" for name in modules
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []
