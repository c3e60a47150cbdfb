"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "simplexreg").glob("*.py"))
BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def _reraises(handler: ast.ExceptHandler) -> bool:
    """A bare ``raise``, or ``raise`` of the caught name, in the handler."""
    return any(
        isinstance(node, ast.Raise)
        and (
            node.exc is None
            or (isinstance(node.exc, ast.Name) and node.exc.id == handler.name)
        )
        for stmt in handler.body
        for node in ast.walk(stmt)
    )


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_broad_except_hides_an_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hidden = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and _is_broad(node) and not _reraises(node)
    ]
    assert hidden == [], f"{path.name}: broad except without re-raise at lines {hidden}"


@pytest.mark.parametrize(
    "source, hides",
    [
        ("try:\n    f()\nexcept:\n    pass\n", True),
        ("try:\n    f()\nexcept Exception:\n    log()\n", True),
        ("try:\n    f()\nexcept (ValueError, BaseException) as e:\n    log(e)\n", True),
        ("try:\n    f()\nexcept BaseException:\n    clean()\n    raise\n", False),
        ("try:\n    f()\nexcept Exception as e:\n    raise e\n", False),
        ("try:\n    f()\nexcept ValueError:\n    pass\n", False),
    ],
)
def test_rule_sees_broad_handlers(source, hides):
    (handler,) = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ExceptHandler)]
    assert (_is_broad(handler) and not _reraises(handler)) == hides


# The only modules that call scipy: the boundary constants of `asymptotics`
# (`_gamma_shrink_factor`) and the KS statistic of `clt` (`simulation`).
SCIPY_MODULES = {"asymptotics.py", "simulation.py"}


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "scipy" for name in names)


def _module_level_scipy_imports(tree: ast.Module) -> list[int]:
    """Lines of the scipy imports that run when the module is imported:
    every one outside a function body (class bodies and ``try`` blocks at
    the top run on import)."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if _imports_scipy(node):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_functions(path):
    # importing the package must not load scipy: `fit`, `estimate` and
    # `simulate` never call it, and loading scipy.special adds about 24 MiB
    # to a command's peak RSS
    lines = _module_level_scipy_imports(ast.parse(path.read_text(), filename=str(path)))
    assert lines == [], f"{path.name}: module-level scipy import at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_asymptotic_statistics_import_scipy(path):
    # GM, NW and LL run on numpy alone (the kernel's log-gamma is
    # math.lgamma), so no other module may import scipy, even in a function
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _imports_scipy(node)]
    assert path.name in SCIPY_MODULES or lines == [], f"{path.name}: scipy import at lines {lines}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("import scipy\n", True),
        ("from scipy.special import gammaln\n", True),
        ("import numpy as np, scipy.stats as st\n", True),
        ("try:\n    import scipy\nexcept ImportError:\n    scipy = None\n", True),
        ("class A:\n    from scipy import special\n", True),
        ("def f():\n    from scipy.special import gammaln\n    return gammaln\n", False),
        ("class A:\n    def f(self):\n        import scipy\n", False),
        ("async def f():\n    import scipy.stats\n", False),
        ("import scipyx\nfrom .scipy import x\n", False),
    ],
)
def test_rule_sees_module_level_scipy_imports(source, flagged):
    assert bool(_module_level_scipy_imports(ast.parse(source))) == flagged


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names the module binds when it is imported: definitions, assignment
    and loop targets and imports outside function and class bodies."""
    bound = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return bound


def _unbound_exports(tree: ast.Module) -> list[str]:
    """Names a literal ``__all__`` lists that the module does not bind.  A
    computed ``__all__`` (the package's, from ``dir()``) lists only bound
    names."""
    exports = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exports = [elt.value for elt in node.value.elts]
    bound = _module_bindings(tree)
    return [name for name in exports if name not in bound]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    # deleting a public name is where a stale __all__ entry slips through
    missing = _unbound_exports(ast.parse(path.read_text(), filename=str(path)))
    assert missing == [], f"{path.name}: __all__ names unbound names {missing}"


@pytest.mark.parametrize(
    "source, missing",
    [
        ("def f():\n    pass\n__all__ = ['f', 'g']\n", ["g"]),
        ("def f():\n    g = 1\n__all__ = ['g']\n", ["g"]),
        ("class A:\n    B = 1\n__all__ = ['A', 'B']\n", ["B"]),
        ("from .x import y as z\nimport numpy.linalg\n__all__ = ['z', 'numpy']\n", []),
        ("A, (B, C) = 1, (2, 3)\nD: int = 4\n__all__ = ('A', 'B', 'C', 'D')\n", []),
        ("try:\n    import e\nexcept ImportError:\n    e = None\n__all__ = ['e']\n", []),
        ("X = 1\n__all__ = [n for n in dir() if n[0] != '_']\n", []),
    ],
)
def test_rule_sees_unbound_exports(source, missing):
    assert _unbound_exports(ast.parse(source)) == missing
