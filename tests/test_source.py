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
