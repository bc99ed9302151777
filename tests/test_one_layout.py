"""Only ``grid.py`` knows how Fourier coefficients are stored: the package is read
with ``ast``, and no other module may

* reverse, roll or shift an array axis (``np.flip``, ``np.roll``, ``fftshift``);
* call an FFT (``fftn``, ``irfftn``, ``fft2``, ...): the inverse kernel reads
  half of the lattice and relies on the coefficients being Hermitian off the
  Nyquist planes, a decision ``grid.transform`` and
  ``grid.inverse_transform`` make together;
* ask for frequencies in fft order (``Grid.xi_grids()``, ``Grid.xi``,
  ``Grid.wavenumbers``);
* index a lattice axis of a coefficient array: a multi-axis index such as
  ``c[0, 0]`` or ``c[(slice(None), *zero)]``, or a mean-mode index built from
  zero tuples such as ``c[(0,) * (dim + 1)]``.

A component index, ``c[0]`` or ``c[i : i + 1]``, names no lattice axis and is
allowed.  A coefficient array is ``.coeffs``, the result of ``transform`` or
``_jacobian``, a product or copy of one, or a name that the same function
assigns from one (``target = u.coeffs.copy()``)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src/swlp").glob("*.py") if p.name != "grid.py")
FFT_CALLS = {"fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft", "fft2", "ifft2"}
LAYOUT_CALLS = {"roll", "flip", "fftshift", "ifftshift", "xi_grids", "xi", "wavenumbers", *FFT_CALLS}
COEFFICIENT_CALLS = {"transform", "_jacobian"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _called(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _is_coefficients(node: ast.AST, names: set[str]) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "coeffs"
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Call):
        if _called(node) == "copy" and isinstance(node.func, ast.Attribute):
            return _is_coefficients(node.func.value, names)
        return _called(node) in COEFFICIENT_CALLS
    if isinstance(node, ast.Subscript):
        return _is_coefficients(node.value, names)
    if isinstance(node, ast.BinOp):
        return _is_coefficients(node.left, names) or _is_coefficients(node.right, names)
    if isinstance(node, ast.UnaryOp):
        return _is_coefficients(node.operand, names)
    return False


def _builds_tuple(node: ast.AST) -> bool:
    return any(isinstance(n, (ast.Tuple, ast.Starred)) for n in ast.walk(node))


def _is_lattice_index(index: ast.AST, tuples: set[str]) -> bool:
    if isinstance(index, ast.Name):
        return index.id in tuples
    return isinstance(index, ast.Compare) or _builds_tuple(index)


def _own_nodes(scope: ast.AST):
    """The nodes of a module or function, not descending into nested functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def layout_sites(tree: ast.Module, label: str) -> list[str]:
    """Layout-dependent calls and lattice indices into coefficients, as ``label:line: what in function``."""
    sites = []

    def scan(scope: ast.AST, fn: str | None) -> None:
        nodes = sorted(_own_nodes(scope), key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
        coeffs, tuples = set(), set()
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if _is_coefficients(node.value, coeffs):
                    coeffs.add(name)
                elif _builds_tuple(node.value):
                    tuples.add(name)
            if isinstance(node, ast.Call) and _called(node) in LAYOUT_CALLS:
                sites.append(f"{label}:{node.lineno}: {_called(node)}() in {fn}")
            elif (
                isinstance(node, ast.Subscript)
                and _is_coefficients(node.value, coeffs)
                and _is_lattice_index(node.slice, tuples)
            ):
                sites.append(f"{label}:{node.lineno}: lattice index in {fn}")
            elif isinstance(node, FUNCTIONS):
                scan(node, node.name)

    scan(tree, None)
    return sorted(sites)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_grid_knows_the_layout(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert layout_sites(tree, str(path.relative_to(ROOT))) == []


def test_the_guard_sees_every_form():
    source = (
        "def f(u, g, dim, i, upper):\n"
        "    h = np.roll(np.flip(u.coeffs, (1,)), 1, (1,))\n"
        "    xi = g.xi_grids()\n"
        "    u.coeffs[(0,) * (g.dim + 1)] += 1.0\n"
        "    target = u.coeffs.copy()\n"
        "    target[(0,) + (0,) * dim] = 0.0\n"
        "    zero = (0,) * dim\n"
        "    w = u.coeffs * 2.0\n"
        "    w[(slice(None), *zero)] = u.coeffs[:, 1:][zero]\n"
        "    # component indices and value arrays are allowed\n"
        "    a = u.coeffs[0] + u.coeffs[i : i + 1] + u.values[:, 0] + _jacobian(u.coeffs, g)[upper]\n"
        "    v = np.fft.ifftn(u.coeffs[0]).real + sfft.rfftn(u.values, axes=(1, 2))\n"
    )
    assert layout_sites(ast.parse(source), "m.py") == [
        "m.py:12: ifftn() in f",
        "m.py:12: rfftn() in f",
        "m.py:2: flip() in f",
        "m.py:2: roll() in f",
        "m.py:3: xi_grids() in f",
        "m.py:4: lattice index in f",
        "m.py:6: lattice index in f",
        "m.py:9: lattice index in f",
        "m.py:9: lattice index in f",
        "m.py:9: lattice index in f",
    ]
