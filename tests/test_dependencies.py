"""The package has no runtime dependencies: every absolute import in
`src/bftensemble/` names a standard-library module."""
import ast
import sys
from pathlib import Path

import bftensemble

PACKAGE_DIR = Path(bftensemble.__file__).resolve().parent


def absolute_imports(path):
    """(line, top-level module name) of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_from_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"__future__"}
    offending = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in absolute_imports(path)
        if name not in allowed
    ]
    assert offending == []
