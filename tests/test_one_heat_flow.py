"""The package forms the heat semigroup e^{-mu |xi|^2 t} in one place,
``grid._heat_multiplier``: the package is read with ``ast``, and no other function
may take ``np.exp`` of an expression that uses ``xi_mag2``, directly or through a
name the same function assigns from it (``mag2 = xi_mag2(g)``).

``quasi.gaussian_bump`` is the one other exponent of |xi|^2: it adds the
translation phase inside the ``exp``, and splitting that ``exp`` into two
factors would change its bits."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/swlp").glob("*.py"))
ALLOWED = {("grid.py", "_heat_multiplier"), ("quasi.py", "gaussian_bump")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _uses(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` calls ``xi_mag2`` or reads one of ``names``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "xi_mag2":
            return True
        if isinstance(n, ast.Name) and n.id in names:
            return True
    return False


def _from_mag2(fn: ast.AST) -> set[str]:
    """The names that ``fn`` assigns from ``xi_mag2``, directly or through another such name."""
    names: set[str] = set()
    while True:
        found = {
            t.id
            for n in ast.walk(fn)
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and n.value is not None and _uses(n.value, names)
            for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
            if isinstance(t, ast.Name)
        }
        if found <= names:
            return names
        names |= found


def _is_exp(call: ast.Call) -> bool:
    f = call.func
    return isinstance(f, ast.Attribute) and f.attr == "exp" and getattr(f.value, "id", None) == "np"


def exp_sites(tree: ast.AST, filename: str) -> list[str]:
    """``np.exp`` calls of |xi|^2 outside the allowed functions, as ``file:line: in function``."""
    sites = []

    def visit(node: ast.AST, fn: str | None, names: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                visit(child, child.name, _from_mag2(child))
                continue
            if isinstance(child, ast.Call) and _is_exp(child) and (filename, fn) not in ALLOWED:
                if any(_uses(arg, names) for arg in child.args):
                    sites.append(f"{filename}:{child.lineno}: in {fn}")
            visit(child, fn, names)

    visit(tree, None, set())
    return sites


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_heat_semigroup_is_one_multiplier(path):
    assert exp_sites(ast.parse(path.read_text(), filename=str(path)), path.name) == []


def test_the_guard_sees_direct_and_assigned_uses():
    source = """
def f(g, t, mu):
    mag2 = xi_mag2(g)
    w = 2.0 * mag2
    a = np.exp(-t * w)
    b = np.exp(-mu * xi_mag2(g) * t)
    c = np.exp(-t)
    d = np.sqrt(mag2)
    return a, b, c, d

def _heat_multiplier(grid, mu, t):
    return np.exp(-mu * xi_mag2(grid) * t)
"""
    tree = ast.parse(source)
    # the one multiplier may form it, and only in grid.py
    assert exp_sites(tree, "grid.py") == ["grid.py:5: in f", "grid.py:6: in f"]
    assert exp_sites(tree, "besov.py") == ["besov.py:5: in f", "besov.py:6: in f", "besov.py:12: in _heat_multiplier"]
