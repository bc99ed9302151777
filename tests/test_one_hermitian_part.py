"""The Hermitian part of the Nyquist planes is formed once, in
``grid._nyquist_hermitian``: ``grid.py`` is read with ``ast``, a conjugate may be
taken only there, and no function reverses or rolls an axis (the mirror modes
come from the cached ``_nyquist_modes`` indices)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID = ROOT / "src/swlp/grid.py"
HELPER = "_nyquist_hermitian"
CONJUGATE = {"conj", "conjugate"}
REVERSAL = {"roll", "flip"}


def _called(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def hermitian_sites(tree: ast.Module, label: str) -> list[str]:
    """Conjugates outside the helper and every roll or flip, as ``label:line: what in function``."""
    sites = []

    def visit(node: ast.AST, fn: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call):
                what = _called(child)
                if what in REVERSAL or (what in CONJUGATE and name != HELPER):
                    sites.append(f"{label}:{child.lineno}: {what}() in {name}")
            visit(child, name)

    visit(tree, None)
    return sites


def test_the_hermitian_part_is_formed_once():
    tree = ast.parse(GRID.read_text(), filename=str(GRID))
    assert hermitian_sites(tree, "grid.py") == []


def test_the_guard_sees_every_form():
    source = (
        "def _nyquist_hermitian(c, m):\n"
        "    return np.conjugate(c[m]) + c.conj() + np.roll(c, 1)\n"
        "def inverse_transform(c, g):\n"
        "    d = np.roll(np.flip(c, (1,)), 1, (1,))\n"
        "    np.conjugate(d, out=d)\n"
        "    return c.conj() + np.conj(d)\n"
    )
    assert hermitian_sites(ast.parse(source), "m.py") == [
        "m.py:2: roll() in _nyquist_hermitian",
        "m.py:4: roll() in inverse_transform",
        "m.py:4: flip() in inverse_transform",
        "m.py:5: conjugate() in inverse_transform",
        "m.py:6: conj() in inverse_transform",
        "m.py:6: conj() in inverse_transform",
    ]
