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
  tests or the benchmark call counts as dead;
- jets are the test oracle, not a production route: ``src/`` calls
  ``.jet(`` or a pointwise jet function of ``gamma_calculus`` only from those
  functions themselves and from the two criteria that check against jets,
  ``acceptance.ac3`` (the expanded side) and ``acceptance.ac10`` (the target).
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


# the pointwise forms of gamma_calculus that read order-2 jets
JET_FUNCTIONS = {"apply_L", "gamma", "gamma2", "gamma_w", "gamma2_w", "gamma_integrand", "sqrt_defect"}
JET_CALLERS = {f"gamma_calculus.{name}" for name in JET_FUNCTIONS} | {"acceptance.ac3", "acceptance.ac10"}


def _jet_calls(module: str, tree: ast.Module) -> set[str]:
    """module.function (or module.Class.method) of each top-level definition
    of ``tree`` that calls ``.jet(`` or a jet function by name; code outside
    any definition counts as ``module.<module>``."""
    callers = set()
    for stmt in tree.body:
        defs = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for node in defs:
            name = getattr(node, "name", "<module>")
            owner = f"{module}.{stmt.name}.{name}" if node is not stmt else f"{module}.{name}"
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                fn = call.func
                if (isinstance(fn, ast.Attribute) and fn.attr == "jet") or (
                    isinstance(fn, ast.Name) and fn.id in JET_FUNCTIONS
                ):
                    callers.add(owner)
    return callers


def test_jets_run_only_as_the_oracle():
    callers = set().union(*(_jet_calls(path.stem, ast.parse(path.read_text(encoding="utf-8")))
                            for path in sorted(PACKAGE.glob("*.py"))))
    stray = sorted(callers - JET_CALLERS)
    assert not stray, f"jets evaluated outside the oracle: {', '.join(stray)}"


def test_jet_scan_flags_calls_but_not_builder_methods():
    tree = ast.parse(
        "def a(p, f, x):\n    return gamma_w(p, f, f, x)\n"
        "def b(f, x):\n    return f.jet(x).value\n"
        "def c(bld, f):\n    return bld.gamma_w(f, f)\n"
        "class K:\n    def d(self, f, x):\n        return [gamma2_w(self.p, f, y) for y in x]\n"
    )
    assert _jet_calls("m", tree) == {"m.a", "m.b", "m.K.d"}
