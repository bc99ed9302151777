"""Every Besov-type norm of the package weights its dyadic blocks in one place,
``besov._weighted``: the package is read with ``ast``, and no other function may
form a block weight 2^{ls}, written ``2.0 ** (l * s)`` or ``(2.0 ** l) ** s``.

A power of 2 whose exponent has a numeric factor, such as ``2.0 ** (-2.0 * l)``
for a heat time, or a plain ``2.0 ** l`` is not a weight with a regularity index
and is not flagged."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/swlp").glob("*.py"))
ALLOWED = {("besov.py", "_weighted")}


def _number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _power_of_two(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 2
    )


def _is_weight(node: ast.AST) -> bool:
    """``2 ** (l * s)`` with neither factor a number, or ``(2 ** l) ** s``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    if _power_of_two(node.left):
        return True
    exp = node.right
    return (
        _power_of_two(node)
        and isinstance(exp, ast.BinOp)
        and isinstance(exp.op, ast.Mult)
        and not (_number(exp.left) or _number(exp.right))
    )


def weight_sites(path: Path) -> list[str]:
    """Dyadic block weights formed outside the allowed function."""
    sites = []

    def visit(node: ast.AST, fn: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if _is_weight(child) and (path.name, name) not in ALLOWED:
                sites.append(f"{path.relative_to(ROOT)}:{child.lineno}: in {name}")
            visit(child, name)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_block_weights_use_the_one_sum(path):
    assert weight_sites(path) == []


def test_the_guard_sees_both_spellings():
    tree = ast.parse("2.0 ** (l * s) * v + (2.0**l) ** s + 2.0 ** (-2.0 * l) + 2.0**l + 3.0 ** (l * s)")
    found = sorted(ast.unparse(n) for n in ast.walk(tree) if _is_weight(n))
    assert found == ["(2.0 ** l) ** s", "2.0 ** (l * s)"]
