import ast
from pathlib import Path

import confweyl

SRC = Path(confweyl.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so none may guard an invariant
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _imported_names(tree):
    """(name, line) for every name an import binds, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".", 1)[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_no_unused_imports_in_the_package():
    # every imported name is read somewhere in its module; __init__.py only
    # re-exports, so it is exempt
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                  if name not in read]
    assert not found, found
