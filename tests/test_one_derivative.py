"""Every spatial derivative of the package goes through the one ``i xi`` multiplier
of ``grid.py``: the package is read with ``ast``, and only the functions below may
build the frequency grids or multiply by an imaginary constant."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/swlp").glob("*.py"))
# |xi|^2, the derivative's multipliers i xi_j, and the shift's phase -i xi . x0
ALLOWED = {("grid.py", "xi_mag2"), ("grid.py", "_i_xi"), ("grid.py", "shift_phase")}


def _imaginary(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, complex)


def _is_site(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "xi_grids"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _imaginary(node.left) or _imaginary(node.right)
    return False


def spectral_sites(path: Path) -> list[str]:
    """Frequency-grid builds and imaginary products outside the allowed functions."""
    sites = []

    def visit(node: ast.AST, fn: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if _is_site(child) and (path.name, name) not in ALLOWED:
                sites.append(f"{path.relative_to(ROOT)}:{child.lineno}: in {name}")
            visit(child, name)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_derivatives_use_the_one_multiplier(path):
    assert spectral_sites(path) == []
