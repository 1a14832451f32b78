"""No module of the package imports a name it never uses, and no private
name is left that nothing reads.

No linter ships with the project, so these scans stand in for one:
- every name that a module-level import binds in ``src/gammaw/*.py`` must
  be read somewhere in that module, in code or in a quoted annotation.  A
  name listed in the module's ``__all__`` counts as used, which covers the
  re-exports of ``__init__.py``;
- every private name (``_x``) that a module-level statement of
  ``src/gammaw/*.py`` binds must be read somewhere in ``src/``, outside the
  statement that binds it, by name or as an attribute.  Code that only the
  tests or the benchmark call counts as dead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gammaw"


def _bound_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.AST) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= _read_names(ast.parse(const.value, mode="eval"))
    return used


def _used_names(tree: ast.Module) -> set[str]:
    used = _read_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _bound_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\nx: 'os.PathLike'\n")
    assert set(_bound_names(tree)) - _used_names(tree) == {"pi"}


def _private_bindings(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        names = {alias.asname or alias.name.split(".")[0] for alias in stmt.names}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_read_in_src():
    statements = [stmt for path in sorted(PACKAGE.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [
        {n.id if isinstance(n, ast.Name) else n.attr
         for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
        for stmt in statements
    ]
    unread = sorted(
        name
        for i, stmt in enumerate(statements)
        for name in _private_bindings(stmt)
        if not any(name in names for j, names in enumerate(reads) if j != i)
    )
    assert not unread, f"private names nothing in src/ reads: {', '.join(unread)}"
