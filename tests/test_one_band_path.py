"""``dyadic`` is the one owner of a field's band values: the package is read with
``ast``, and no module but ``dyadic.py`` may name ``multiplied_values`` (the one
stacked inverse transform of a field under several multipliers) or touch a field's
``_blocks`` cache, as an attribute or through ``getattr``/``setattr``/``delattr``.

``grid.py`` declares the slot and initialises it to None in ``SpectralField.__init__``;
that assignment is the one other access."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/swlp").glob("*.py"))
OWNER = "dyadic.py"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_slot_init(node: ast.AST, parent: ast.AST | None, filename: str, fn: str | None) -> bool:
    """``self._blocks = None`` in grid.py's ``__init__``."""
    return (
        filename == "grid.py"
        and fn == "__init__"
        and isinstance(parent, ast.Assign)
        and isinstance(parent.value, ast.Constant)
        and parent.value.value is None
        and node in parent.targets
    )


def _offence(node: ast.AST) -> str | None:
    """What ``node`` does to the band path, if anything."""
    if isinstance(node, ast.Name) and node.id == "multiplied_values":
        return "multiplied_values"
    if isinstance(node, ast.Attribute) and node.attr == "multiplied_values":
        return "multiplied_values"
    if isinstance(node, ast.Attribute) and node.attr == "_blocks":
        return "._blocks"
    if (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("getattr", "setattr", "delattr")
        and any(isinstance(a, ast.Constant) and a.value == "_blocks" for a in node.args)
    ):
        return "._blocks"
    return None


def band_sites(tree: ast.AST, filename: str) -> list[str]:
    """Band-path accesses outside ``dyadic.py``, as ``file:line: what in function``."""
    if filename == OWNER:
        return []
    sites = []

    def visit(node: ast.AST, fn: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, FUNCTIONS) else fn
            what = _offence(child)
            if what is not None and not _is_slot_init(child, node, filename, fn):
                sites.append(f"{filename}:{child.lineno}: {what} in {fn}")
            visit(child, inner)

    visit(tree, None)
    return sites


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_dyadic_owns_the_band_values(path):
    assert band_sites(ast.parse(path.read_text(), filename=str(path)), path.name) == []


def test_the_guard_sees_calls_reads_writes_and_names():
    source = """
class SpectralField:
    __slots__ = ("grid", "coeffs", "_values", "_blocks")

    def __init__(self, grid, coeffs):
        self._blocks = None

def f(filt, u):
    values = multiplied_values(u.coeffs, [filt.weight(0)], u.grid)
    stack = grid.multiplied_values(u.coeffs, [], u.grid)
    make = multiplied_values
    cached = u._blocks
    u._blocks = (filt, values)
    u._blocks = None
    hidden = getattr(u, "_blocks")
    return u._values, u.blocks, "_blocks"
"""
    tree = ast.parse(source)
    late = [
        "9: multiplied_values in f",
        "10: multiplied_values in f",
        "11: multiplied_values in f",
        "12: ._blocks in f",
        "13: ._blocks in f",
        "14: ._blocks in f",
        "15: ._blocks in f",
    ]
    # grid.py may initialise the slot in __init__, and nowhere else
    assert band_sites(tree, "grid.py") == [f"grid.py:{site}" for site in late]
    assert band_sites(tree, "besov.py") == ["besov.py:6: ._blocks in __init__", *(f"besov.py:{s}" for s in late)]
    assert band_sites(tree, "dyadic.py") == []
