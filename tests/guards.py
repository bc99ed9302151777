"""The ownership rules of the package: each operator the paper's estimates rest on has one
implementation, and each rule flags the sites that form its idea outside its owners.

The package is read with ``ast`` in one walk.  A rule is a function
``flag(node, parent, filename, scope)`` that returns what ``node`` does, as a short text,
or None; ``scope`` is the innermost function around the node, or the module.  ``sites``
reports each node a rule flags outside its owners (files, or (file name, function name)
pairs) as ``file:line: what in function``.  Each rule has an example source that shows
each form it flags and each it lets pass.  ``package_test`` and ``example_test`` make the
two tests of a rule, which each ``tests/test_one_<rule>.py`` holds."""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/swlp").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def called(call: ast.Call) -> str | None:
    """The name a call calls: ``f`` of ``f(x)`` and of ``m.f(x)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def walk(node: ast.AST, scope: ast.AST):
    """Every node below ``node``, depth first in source order, as (node, parent, scope)."""
    for child in ast.iter_child_nodes(node):
        yield child, node, scope
        yield from walk(child, child if isinstance(child, FUNCTIONS) else scope)


def sites(tree: ast.AST, filename: str, flag, owners=frozenset()) -> list[str]:
    """The nodes of ``tree`` that ``flag`` reports, outside ``owners``: file names, and
    (file name, function name) pairs."""
    if filename in owners:
        return []
    found = []
    for node, parent, scope in walk(tree, tree):
        fn = scope.name if isinstance(scope, FUNCTIONS) else None
        what = None if (filename, fn) in owners else flag(node, parent, filename, scope)
        if what:
            found.append(f"{filename}:{node.lineno}: {what} in {fn}")
    return found


@cache
def assigned(scope: ast.AST, uses) -> frozenset[str]:
    """The names that ``scope`` assigns from a value for which ``uses(value, names)`` holds,
    ``names`` being the names found so far: after ``mag2 = xi_mag2(g)``, also the ``w`` of
    ``w = 2.0 * mag2``.  A module's names are those it assigns outside its functions."""
    own = list(ast.walk(scope) if isinstance(scope, FUNCTIONS) else (n for n, _, s in walk(scope, scope) if s is scope))
    names: frozenset[str] = frozenset()
    while True:
        found = {
            t.id
            for n in own
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and n.value is not None and uses(n.value, names)
            for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
            if isinstance(t, ast.Name)
        }
        if found <= names:
            return names
        names |= found


FFT_CALLS = {"fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft", "fft2", "ifft2"}
LAYOUT_CALLS = {"roll", "flip", "fftshift", "ifftshift", "xi_grids", "xi", "wavenumbers", *FFT_CALLS}


def _coefficients(node: ast.AST, names) -> bool:
    """``.coeffs``, a ``transform`` or ``_jacobian``, a product, index or copy of one, or one of ``names``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "coeffs"
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Call):
        if called(node) == "copy" and isinstance(node.func, ast.Attribute):
            return _coefficients(node.func.value, names)
        return called(node) in {"transform", "_jacobian"}
    if isinstance(node, ast.Subscript):
        return _coefficients(node.value, names)
    if isinstance(node, ast.BinOp):
        return _coefficients(node.left, names) or _coefficients(node.right, names)
    if isinstance(node, ast.UnaryOp):
        return _coefficients(node.operand, names)
    return False


def _builds_tuple(node: ast.AST, names=()) -> bool:
    return any(isinstance(n, (ast.Tuple, ast.Starred)) for n in ast.walk(node))


def layout(node, parent, filename, scope):
    """Only ``grid.py`` knows how coefficients are stored.  Flagged: reversing, rolling or
    shifting an axis, an FFT (the inverse kernel reads half of the lattice and relies on
    the coefficients being Hermitian off the Nyquist planes), frequencies in fft order
    (``Grid.xi_grids()``, ``Grid.xi``, ``Grid.wavenumbers``), and an index of a lattice
    axis of a coefficient array: a multi-axis index (``c[0, 0]``) or one built from zero
    tuples (``c[(0,) * (dim + 1)]``).  A component index (``c[0]``, ``c[i : i + 1]``) passes."""
    if isinstance(node, ast.Call) and called(node) in LAYOUT_CALLS:
        return f"{called(node)}()"
    if isinstance(node, ast.Subscript) and _coefficients(node.value, assigned(scope, _coefficients)):
        index = node.slice
        if isinstance(index, ast.Name):
            lattice = index.id in assigned(scope, _builds_tuple)
        else:
            lattice = isinstance(index, ast.Compare) or _builds_tuple(index)
        return "lattice index" if lattice else None
    return None


def _constant(node: ast.AST, kinds) -> bool:
    """A constant of one of ``kinds``, or its negation."""
    node = node.operand if isinstance(node, ast.UnaryOp) else node
    return isinstance(node, ast.Constant) and isinstance(node.value, kinds)


def derivative(node, parent, filename, scope):
    """Every spatial derivative goes through grid's one ``i xi`` multiplier.  Flagged:
    building the frequency grids (``g.xi_grids()``) and a product with an imaginary
    constant; owners |xi|^2, the multipliers i xi_j and the shift's phase -i xi . x0."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "xi_grids":
        return "xi_grids()"
    product = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
    if product and (_constant(node.left, complex) or _constant(node.right, complex)):
        return "imaginary product"
    return None


def hermitian_part(node, parent, filename, scope):
    """The Hermitian part of the Nyquist planes is formed once, in ``grid._nyquist_hermitian``.
    Flagged: a conjugate anywhere else, and every roll or flip (the mirror modes come from
    the cached ``_nyquist_modes`` indices)."""
    what = called(node) if isinstance(node, ast.Call) else None
    helper = filename == "grid.py" and getattr(scope, "name", None) == "_nyquist_hermitian"
    if what in {"roll", "flip"} or (what in {"conj", "conjugate"} and not helper):
        return f"{what}()"
    return None


def _power_of_two(node: ast.AST) -> bool:
    pow_ = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
    return pow_ and isinstance(node.left, ast.Constant) and node.left.value == 2


def weighted_sum(node, parent, filename, scope):
    """Every Besov-type norm weights its dyadic blocks in ``besov._weighted``.  Flagged: a
    block weight 2^{ls}, ``2.0 ** (l * s)`` with neither factor a number, or
    ``(2.0 ** l) ** s``.  A heat time ``2.0 ** (-2.0 * l)`` or a plain ``2.0 ** l`` passes."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return None
    exp = node.right
    product = isinstance(exp, ast.BinOp) and isinstance(exp.op, ast.Mult)
    product = product and not (_constant(exp.left, (int, float)) or _constant(exp.right, (int, float)))
    return ast.unparse(node) if _power_of_two(node.left) or (_power_of_two(node) and product) else None


def _uses_band(node: ast.AST, names) -> bool:
    """A filter's band multiplier (``.band``, ``.weight``, ``.cumulative_below``) or one of ``names``."""
    return any(
        (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in {"band", "weight", "cumulative_below"})
        or getattr(n, "id", None) in names
        for n in ast.walk(node)
    )


def band_path(node, parent, filename, scope):
    """``dyadic`` owns a field's band values.  Flagged: an ``inverse_transform`` of a filter-band
    product, directly or through a name the same function assigns from one, and touching a
    field's ``_blocks`` cache, as an attribute or through ``getattr``/``setattr``/``delattr``.
    ``grid.py``'s ``SpectralField.__init__`` may set the slot to None."""
    if isinstance(node, ast.Call) and called(node) == "inverse_transform":
        names = assigned(scope, _uses_band)
        return "inverse_transform of a band" if any(_uses_band(arg, names) for arg in node.args) else None
    if isinstance(node, ast.Call) and called(node) in {"getattr", "setattr", "delattr"}:
        return "._blocks" if any(getattr(a, "value", None) == "_blocks" for a in node.args) else None
    if getattr(node, "attr", None) != "_blocks":
        return None
    slot_init = (filename, getattr(scope, "name", None)) == ("grid.py", "__init__") and isinstance(parent, ast.Assign)
    slot_init = slot_init and node in parent.targets and isinstance(parent.value, ast.Constant) and parent.value.value is None
    return None if slot_init else "._blocks"


def _uses_mag2(node: ast.AST, names) -> bool:
    return any((isinstance(n, ast.Call) and called(n) == "xi_mag2") or getattr(n, "id", None) in names for n in ast.walk(node))


def heat_flow(node, parent, filename, scope):
    """The heat semigroup e^{-mu |xi|^2 t} is one multiplier, ``grid._heat_multiplier``.
    Flagged: ``np.exp`` of an expression that uses ``xi_mag2``, directly or through a name
    the same function assigns from it.  ``quasi.gaussian_bump`` adds the translation phase
    inside its ``exp``, and splitting that ``exp`` into two factors would change its bits."""
    func = getattr(node, "func", None)
    if not (isinstance(func, ast.Attribute) and func.attr == "exp" and getattr(func.value, "id", None) == "np"):
        return None
    names = assigned(scope, _uses_mag2)
    return "exp of |xi|^2" if any(_uses_mag2(arg, names) for arg in node.args) else None


RULES = {
    "layout": (layout, {"grid.py"}),
    "derivative": (derivative, {("grid.py", "xi_mag2"), ("grid.py", "_i_xi"), ("grid.py", "shift_phase")}),
    "hermitian_part": (hermitian_part, set()),
    "weighted_sum": (weighted_sum, {("besov.py", "_weighted")}),
    "band_path": (band_path, {"dyadic.py"}),
    "heat_flow": (heat_flow, {("grid.py", "_heat_multiplier"), ("quasi.py", "gaussian_bump")}),
}


BAND_LATE = [f"{line}: inverse_transform of a band in f" for line in (9, 10, 12)] + [f"{line}: ._blocks in f" for line in (15, 16, 17, 18)]
# each example: its source, and per file name the sites it holds there, as ``line: what in function``
EXAMPLES = {
    "layout": (
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
        "C = u.coeffs\n"
        "ZERO = (0,) * 2\n"
        "x = C[0, 0] + u.coeffs[ZERO] + C[0]\n",
        {"m.py": ["2: roll() in f", "2: flip() in f", "3: xi_grids() in f", "4: lattice index in f", "6: lattice index in f",
                  *["9: lattice index in f"] * 3, "12: ifftn() in f", "12: rfftn() in f", *["15: lattice index in None"] * 2],
         "grid.py": []},
    ),
    "derivative": (
        "def xi_mag2(g):\n"
        "    return sum(k * k for k in g.xi_grids())\n"
        "def _i_xi(g):\n"
        "    return [1j * k for k in g.xi_grids()]\n"
        "def shift_phase(g, x0):\n"
        "    return sum(k * x * -1j for k, x in zip(g.xi_grids(), x0))\n"
        "def f(g, x):\n"
        "    xi = g.xi_grids()\n"
        "    return 1j * x + x * -1j\n",
        {"grid.py": ["8: xi_grids() in f", *["9: imaginary product in f"] * 2],
         "besov.py": ["2: xi_grids() in xi_mag2", "4: imaginary product in _i_xi", "4: xi_grids() in _i_xi",
                      "6: imaginary product in shift_phase", "6: xi_grids() in shift_phase",
                      "8: xi_grids() in f", *["9: imaginary product in f"] * 2]},
    ),
    "hermitian_part": (
        "def _nyquist_hermitian(c, m):\n"
        "    return np.conjugate(c[m]) + c.conj() + np.roll(c, 1)\n"
        "def inverse_transform(c, g):\n"
        "    d = np.roll(np.flip(c, (1,)), 1, (1,))\n"
        "    np.conjugate(d, out=d)\n"
        "    return c.conj() + np.conj(d)\n",
        {"grid.py": ["2: roll() in _nyquist_hermitian", "4: roll() in inverse_transform", "4: flip() in inverse_transform",
                     "5: conjugate() in inverse_transform", *["6: conj() in inverse_transform"] * 2]},
    ),
    "weighted_sum": (
        "2.0 ** (l * s) * v + (2.0**l) ** s + 2.0 ** (-2.0 * l) + 2.0**l + 3.0 ** (l * s)",
        {"m.py": ["1: 2.0 ** (l * s) in None", "1: (2.0 ** l) ** s in None"]},
    ),
    "band_path": (
        '\nclass SpectralField:\n    __slots__ = ("grid", "coeffs", "_values", "_blocks")\n\n'
        "    def __init__(self, grid, coeffs):\n"
        "        self._blocks = None\n\n"
        "def f(filt, u):\n"
        "    values = inverse_transform(u.coeffs * filt.weight(0), u.grid)\n"
        "    low = grid.inverse_transform(u.coeffs * filt.cumulative_below(2), u.grid, overwrite=True)\n"
        "    band = u.coeffs * filt.band(0, 2)\n"
        "    high = inverse_transform(band, u.grid)\n"
        "    # a field's own values, or a product with another multiplier, are allowed\n"
        "    plain = inverse_transform(u.coeffs, u.grid) + inverse_transform(u.coeffs * _heat_multiplier(u.grid, 1.0, 0.5), u.grid)\n"
        "    cached = u._blocks\n"
        "    u._blocks = (filt, values)\n"
        "    u._blocks = None\n"
        '    hidden = getattr(u, "_blocks")\n'
        '    return u._values, u.blocks, "_blocks"\n',
        # grid.py may initialise the slot in __init__, and nowhere else
        {"grid.py": BAND_LATE, "besov.py": ["6: ._blocks in __init__", *BAND_LATE], "dyadic.py": []},
    ),
    "heat_flow": (
        "\ndef f(g, t, mu):\n"
        "    mag2 = xi_mag2(g)\n"
        "    w = 2.0 * mag2\n"
        "    a = np.exp(-t * w)\n"
        "    b = np.exp(-mu * xi_mag2(g) * t)\n"
        "    c = np.exp(-t)\n"
        "    d = np.sqrt(mag2)\n"
        "    return a, b, c, d\n\n"
        "def _heat_multiplier(grid, mu, t):\n"
        "    return np.exp(-mu * xi_mag2(grid) * t)\n",
        # the one multiplier may form it, and only in grid.py
        {"grid.py": ["5: exp of |xi|^2 in f", "6: exp of |xi|^2 in f"],
         "besov.py": ["5: exp of |xi|^2 in f", "6: exp of |xi|^2 in f", "12: exp of |xi|^2 in _heat_multiplier"]},
    ),
}


def package_sites(rule: str, path: Path) -> list[str]:
    """The sites of package file ``path`` that ``rule`` flags outside its owners."""
    flag, owners = RULES[rule]
    return sites(ast.parse(path.read_text(), filename=str(path)), path.name, flag, owners)


def package_test(rule: str, files=PACKAGE):
    """A test that ``rule`` flags no site in each of ``files``, one case per file."""

    @pytest.mark.parametrize("path", files, ids=lambda p: str(p.relative_to(ROOT)))
    def test(path):
        assert package_sites(rule, path) == []

    return test


def example_test(rule: str):
    """A test that ``rule`` flags in its example exactly the sites the example expects."""

    def test():
        flag, owners = RULES[rule]
        source, expected = EXAMPLES[rule]
        found = {name: sites(ast.parse(source), name, flag, owners) for name in expected}
        assert found == {name: [f"{name}:{site}" for site in lines] for name, lines in expected.items()}

    return test
