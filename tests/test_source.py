import ast
import os
from pathlib import Path
import subprocess
import sys

import pytest

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
    # every imported name is read somewhere in its module
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                  if name not in read]
    assert not found, found


# the engine: everything a report needs, and nothing the oracles need
ENGINE = ("anick", "coeffalg", "cohomology", "modules", "ratmat")
ORACLE_SIDE = {"poly", "conformal", "checks", "verify"}


def _top_level_imports(tree):
    """Every module part a top-level import statement names (not those in
    function bodies, which run only when called)."""
    parts = set()
    for node in _module_statements(tree):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                parts.update(alias.name.split("."))
    return parts


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_imports_no_oracle_side_module_at_top(module):
    # a module is its matrices E, B, C and ∇ is assembled from them, so the
    # symbolic λ-action over U(2), the ∂-polynomials and the suites stay out
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    parts = _top_level_imports(tree)
    assert parts and not parts & ORACLE_SIDE


def test_importing_cohomology_loads_only_the_engine():
    code = ("import sys, confweyl.cohomology; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('confweyl'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(["confweyl"] + [f"confweyl.{m}" for m in ENGINE])


_TABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_TABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)

# every module-level dict, list or set in the package, as module.name
MODULE_TABLES = {
    "anick._f_memo",
    "checks.SUITES",
    "poly._VAR_INDEX",
    "poly._P_ZERO.terms",
    "poly._P_ONE.terms",
}


def _is_table(node):
    if isinstance(node, _TABLE_NODES):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _TABLE_CALLS)


def _module_statements(node):
    """Statements run at import: everything outside function and class bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(child, ast.stmt):
            yield child
        yield from _module_statements(child)


def _module_tables(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in _module_statements(tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_table(value):
            for target in targets:
                yield f"{path.stem}.{ast.unparse(target)}"


def test_module_level_tables_are_pinned():
    # a new memo must live on an object that owns it, not become a
    # process-wide global; the few tables that are global are listed here
    found = {name for path in sorted(SRC.rglob("*.py")) for name in _module_tables(path)}
    assert found == MODULE_TABLES


# every function the package memoizes with functools, as module.name
CACHED_FUNCTIONS = {"cli.build_parser", "cohomology.nabla_operators"}
_CACHE_DECORATORS = {"cache", "functools.cache", "lru_cache", "functools.lru_cache"}


def _cached_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):  # lru_cache(maxsize=...)
                    decorator = decorator.func
                if ast.unparse(decorator) in _CACHE_DECORATORS:
                    yield f"{path.stem}.{node.name}"


def test_cached_functions_are_pinned():
    # a function-level cache is a process-wide table too, so the same rule
    # holds: each one is listed here, and each clears with cache_clear()
    found = {name for path in sorted(SRC.rglob("*.py")) for name in _cached_functions(path)}
    assert found == CACHED_FUNCTIONS


def _fraction_constants(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in _module_statements(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            for call in ast.walk(node.value):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                        and call.func.id == "Fraction":
                    yield f"{path.stem}:{node.lineno}"


def test_no_module_level_fraction_constants():
    # scalars keep one stored form, an int when integral (coeffalg._exact),
    # so a Fraction(0) or Fraction(1) constant would reintroduce the other
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in _fraction_constants(path)]
    assert not found, found


def test_clear_caches_empties_every_global_memo():
    import importlib

    from confweyl.anick import clear_caches

    memos = [name for name in sorted(MODULE_TABLES) if name.endswith(("_memo", "_cache"))]
    assert memos
    for name in memos:
        module, attr = name.split(".")
        table = getattr(importlib.import_module(f"confweyl.{module}"), attr)
        table[("sentinel", name)] = None
    clear_caches()
    for name in memos:
        module, attr = name.split(".")
        assert not getattr(importlib.import_module(f"confweyl.{module}"), attr), name
    # the cached functions are emptied by their own cache_clear()
    from confweyl.cli import build_parser
    from confweyl.cohomology import nabla_operators

    build_parser()
    nabla_operators(1, 3)
    cached = {"cli.build_parser": build_parser, "cohomology.nabla_operators": nabla_operators}
    assert set(cached) == CACHED_FUNCTIONS
    for name, function in cached.items():
        assert function.cache_info().currsize, name
        function.cache_clear()
        assert not function.cache_info().currsize, name
