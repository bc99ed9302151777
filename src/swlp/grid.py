"""Periodic grid, spectral fields, and Fourier-multiplier calculus.

Conventions used throughout the package:

* collocation values are real arrays of shape ``(ncomp, n, ..., n)``;
* Fourier coefficients are ``fftn(values) / n**dim`` per component, so a
  constant field ``c`` has coefficient ``c`` at wavevector ``k = 0`` and
  ``cos(x)`` on a period-2pi axis has coefficients ``1/2`` at ``k = +-1``;
* the physical frequency along axis ``i`` is ``xi_i = 2 pi k_i / period_i``;
* pointwise products are dealiased with the 2/3 rule (top third of the
  wavenumbers zeroed per axis) so quadratic aliases never pollute retained
  modes.  The dropped modes are the slabs |k_j| >= n/3, one contiguous run
  of indices per axis, so a dealias zeroes those slabs; it never multiplies
  the lattice by ``dealias_mask``.  ``dealiased_from_values`` is the
  dealiased forward transform of values: it zeroes the slabs of the fresh
  transform output in place;
* every spatial derivative is one multiplication by ``i xi_j``: the
  multipliers are built once per grid (``_i_xi``), and ``_jacobian`` (with
  its upper triangle ``_jacobian_upper``) and ``_divergence`` are the only
  operations that apply them.  ``grad``, ``div``, ``sym_grad``,
  ``curl_norm``, ``helmholtz_split`` and the solver's derivatives are
  written with these;
* Nyquist rule: the values of a first derivative along axis ``j`` carry
  nothing of the Nyquist plane ``k_j = -n/2``, as if that plane were zeroed.
  ``k -> -k`` maps that plane to itself, and ``i xi_j`` has the same
  imaginary value at ``k`` and ``-k`` there, so the plane's terms of a real
  field's derivative are anti-Hermitian and their real part is zero.

Layout: the coefficients of a field fill the full fft lattice, one
``(n, ..., n)`` array per component with ``k = 0`` first on every axis, and
only this module knows it.  The other modules reach the storage through a
few operations:

* the per-grid multipliers (``xi_mag2``, ``dealias_mask``, ``_i_xi``), which
  have the lattice's shape, so code that needs that shape reads it from a
  multiplier or from the coefficients, never from ``Grid.shape`` (the shape
  of the values);
* ``parseval_power``, the L2 power of a coefficient stack;
* ``dealias`` and ``dealiased_from_values``, which zero the dropped slabs;
* ``SpectralField.mean`` and ``SpectralField.with_mean``, which read and set
  the ``k = 0`` coefficients;
* ``shift_phase``, the exponent of a translation.

``tests/test_one_layout.py`` fails on a lattice index, a roll, a flip or a
``Grid.xi_grids()`` call anywhere else in the package.

Hermitian part: ``values`` is the real part of the inverse DFT, which is
the inverse DFT of the Hermitian part of the coefficients,
c_h(k) = (c(k) + conj(c(-k)))/2.  The contract of every coefficient array:
it is Hermitian off the Nyquist planes ``k_j = -n/2``, so c_h = c there.
Every array the package makes meets it.  The forward transform of real
values is exactly Hermitian, and every multiplier m has m(-k) = conj(m(k))
off those planes, so it keeps the property: |xi|^2, the dealias mask and
the filter weights are even and real, ``i xi_j`` is odd and imaginary, and
so is the exponent of the translation phase.  Sums and real scalings keep
it too.  On a Nyquist plane an odd derivative is not Hermitian (the Nyquist
rule), nor is a translation phase.  Each Nyquist plane maps to itself under
k -> -k, so its Hermitian part comes from its own modes, and
``_nyquist_hermitian`` is the one place that forms it.  It forms nothing
when the planes already hold their Hermitian part: when they are all zero
(every dealiased field) or exactly Hermitian (the transform of real values).
Its two readers:

* ``inverse_transform`` is one call of the real-to-complex kernel
  ``irfftn`` (Frigo & Johnson, Proc. IEEE 93, 2005), which reads only the
  half ``k_last >= 0`` of the lattice and takes the coefficients to be
  Hermitian.  When the planes' Hermitian part differs from their modes, it
  goes into a copy of the coefficients first, so the values equal the real
  part of the full inverse DFT to round-off;
* ``parseval_power``: ``volume * sum |c_h|^2`` is the collocation L2 norm
  squared exactly, also for coefficients that are not Hermitian (an
  undealiased gradient's Nyquist modes), where plain ``sum |c|^2`` is not.
  It is |c|^2 off the Nyquist planes, with no reflected copy of the
  lattice, and |c_h|^2 on them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import fft as sfft

__all__ = [
    "Grid",
    "SpectralField",
    "make_grid",
    "xi_mag2",
    "transform",
    "inverse_transform",
    "multiplied_values",
    "parseval_power",
    "shift_phase",
    "dealias_mask",
    "dealias",
    "dealiased_from_values",
    "mult",
    "grad",
    "div",
    "laplacian",
    "sym_grad",
    "curl_norm",
    "helmholtz_split",
    "dilate",
    "dump_field",
    "load_field",
]

_FFT_WORKERS = 2
# Per-grid operators are cached for the few grids a process works on; the
# bound keeps a sweep over many grid sizes from holding all of them.
_OPERATOR_CACHE = 16


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Periodic box T^dim with ``n`` points per axis and period ``period[i]``."""

    dim: int
    n: int
    period: tuple[float, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def volume(self) -> float:
        return float(math.prod(self.period))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(a / self.n for a in self.period)

    def wavenumbers(self) -> np.ndarray:
        """Integer wavevector indices along an axis (the same on every axis), fft layout."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    def xi(self, axis: int) -> np.ndarray:
        """Physical frequencies 2*pi*k/a along one axis, fft layout."""
        return 2.0 * np.pi * self.wavenumbers() / self.period[axis]

    def xi_grids(self) -> list[np.ndarray]:
        """Broadcastable physical-frequency arrays, one per axis."""
        out = []
        for ax in range(self.dim):
            shape = [1] * self.dim
            shape[ax] = self.n
            out.append(self.xi(ax).reshape(shape))
        return out

    def xi_mag(self) -> np.ndarray:
        """|xi| on the full frequency lattice."""
        return np.sqrt(xi_mag2(self))

    def coords(self, axis: int) -> np.ndarray:
        shape = [1] * self.dim
        shape[axis] = self.n
        x = np.arange(self.n) * self.spacing[axis]
        return x.reshape(shape)


def make_grid(dim: int, n: int, period) -> Grid:
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if not _is_power_of_two(n) or n < 8:
        raise ValueError(f"n must be a power of two >= 8, got {n}")
    if np.isscalar(period):
        period = (float(period),) * dim
    else:
        period = tuple(float(a) for a in period)
    if len(period) != dim:
        raise ValueError("period must be a scalar or have one entry per axis")
    if any(a <= 0 for a in period):
        raise ValueError("period must be positive")
    return Grid(dim=dim, n=n, period=period)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=_OPERATOR_CACHE)
def xi_mag2(grid: Grid) -> np.ndarray:
    """|xi|^2 on the full frequency lattice; built once per grid, read-only."""
    mag2 = np.zeros(grid.shape)
    for g in grid.xi_grids():
        mag2 = mag2 + g**2
    return _read_only(mag2)


@lru_cache(maxsize=_OPERATOR_CACHE)
def _i_xi(grid: Grid) -> tuple[np.ndarray, ...]:
    """The multipliers i*xi_j of d_j, one broadcastable array per axis; built once per grid, read-only."""
    return tuple(_read_only(1j * x) for x in grid.xi_grids())


def _jacobian(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Add an axis of first derivatives before the grid axes: entry ``[..., j]`` is d_j f[...]."""
    jac = np.empty((*coeffs.shape[: -grid.dim], grid.dim, *grid.shape), dtype=np.complex128)
    for m, d_j in zip(_i_xi(grid), np.moveaxis(jac, -grid.dim - 1, 0)):
        np.multiply(m, coeffs, out=d_j)
    return jac


def _jacobian_upper(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """The entries d_j f_i with i <= j of a vector field's Jacobian, stacked in ``np.triu_indices`` order.

    They are the whole Jacobian when it is symmetric, as for a gradient field.
    """
    i_xi = _i_xi(grid)
    rows, cols = np.triu_indices(grid.dim)
    upper = np.empty((rows.size, *grid.shape), dtype=np.complex128)
    for out, i, j in zip(upper, rows, cols):
        np.multiply(i_xi[j], coeffs[i], out=out)
    return upper


def _divergence(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Contract the axis just before the grid axes: sum_j d_j f[..., j]."""
    return sum(m * f_j for m, f_j in zip(_i_xi(grid), np.moveaxis(coeffs, -grid.dim - 1, 0)))


@lru_cache(maxsize=_OPERATOR_CACHE)
def _inverse_xi_mag2(grid: Grid) -> np.ndarray:
    """1/|xi|^2 with 0 at xi = 0; built once per grid, read-only."""
    mag2 = xi_mag2(grid)
    return _read_only(np.where(mag2 > 0, 1.0 / np.where(mag2 > 0, mag2, 1.0), 0.0))


def _workers(grid: Grid) -> int:
    """FFT threads for one transform: a second thread pays only on large lattices."""
    return 1 if grid.n**grid.dim < 2**16 else _FFT_WORKERS


def transform(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward DFT per component, normalized so coeff[0] is the mean."""
    axes = tuple(range(-grid.dim, 0))
    return sfft.fftn(values, axes=axes, norm="forward", workers=_workers(grid))


def inverse_transform(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Real part of the inverse DFT per component, for coefficients that are
    Hermitian off the Nyquist planes (see the module docstring).

    One ``irfftn`` of the half ``k_last >= 0`` of the lattice makes the
    values; when the Nyquist planes do not hold their Hermitian part, a copy
    of the coefficients with that part on the planes is transformed instead.
    """
    hermitian = _nyquist_hermitian(coeffs, grid)
    if hermitian is not None:
        coeffs = coeffs.copy()
        coeffs[_nyquist_modes(grid)[0]] = hermitian
    axes = tuple(range(-grid.dim, 0))
    half = coeffs[..., : grid.n // 2 + 1]
    return sfft.irfftn(half, s=grid.shape, axes=axes, norm="forward", workers=_workers(grid))


def multiplied_values(coeffs: np.ndarray, multipliers: list[np.ndarray], grid: Grid) -> np.ndarray:
    """Values of ``m * coeffs`` for every multiplier m, shape ``(len(multipliers), *coeffs.shape)``.

    The products fill one preallocated stack, and one inverse transform
    makes all of their values.
    """
    stack = np.empty((len(multipliers), *coeffs.shape), dtype=np.complex128)
    for i, out in enumerate(stack):
        np.multiply(coeffs, multipliers[i], out=out)
    # the multipliers are no longer needed: unless the caller holds them too,
    # this frees them before the transform allocates its output
    del multipliers
    return inverse_transform(stack, grid)


def _slab(grid: Grid, axis: int, index) -> tuple:
    """The index of the slab ``index`` (an int or a slice) of one lattice axis, for any leading axes."""
    return (Ellipsis, index, *(slice(None),) * (grid.dim - 1 - axis))


def _power(coeffs: np.ndarray) -> np.ndarray:
    """|c|^2 summed over the leading (component) axis."""
    power = np.square(coeffs.real).sum(0)
    power += np.square(coeffs.imag).sum(0)
    return power


@lru_cache(maxsize=_OPERATOR_CACHE)
def _nyquist_modes(grid: Grid) -> tuple[tuple, tuple]:
    """The lattice indices of the modes on the Nyquist planes k_j = -n/2, and of their
    mirrors -k, which lie on the same planes; built once per grid."""
    on_plane = np.zeros(grid.shape, dtype=bool)
    for j in range(grid.dim):
        on_plane[_slab(grid, j, grid.n // 2)] = True
    modes = np.nonzero(on_plane)
    mirrors = tuple(-k % grid.n for k in modes)
    return (Ellipsis, *map(_read_only, modes)), (Ellipsis, *map(_read_only, mirrors))


def _nyquist_hermitian(coeffs: np.ndarray, grid: Grid) -> np.ndarray | None:
    """The Hermitian part (c + conj(c_mirror))/2 of the Nyquist planes' modes, in the order
    of ``_nyquist_modes``, or None when the planes already hold it (all zero, or exactly
    Hermitian)."""
    modes, mirrors = _nyquist_modes(grid)
    c = coeffs[modes]
    if not c.any():
        return None
    h = np.conjugate(coeffs[mirrors])
    h += c
    h *= 0.5
    return None if np.array_equal(h, c) else h


def parseval_power(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """|c_h|^2 summed over the components of a coefficient stack, c_h the Hermitian part.

    ``volume * sum`` of it is the collocation L2 norm squared of the values:
    |c|^2 off the Nyquist planes, where c_h = c, and |c_h|^2 of
    ``_nyquist_hermitian`` on them.
    """
    power = _power(coeffs)
    hermitian = _nyquist_hermitian(coeffs, grid)
    if hermitian is not None:
        power[_nyquist_modes(grid)[0]] = _power(hermitian)
    return power


def shift_phase(grid: Grid, x0) -> np.ndarray:
    """The exponent -i xi . x0 on the lattice: ``exp`` of it moves a field by ``x0``."""
    phase = np.zeros(grid.shape, dtype=np.complex128)
    for xi_j, x_j in zip(grid.xi_grids(), x0, strict=True):
        phase = phase - 1j * xi_j * x_j
    return phase


def _mean_mode(grid: Grid) -> tuple:
    """Index of the k = 0 coefficient of every component."""
    return (slice(None), *(0,) * grid.dim)


def _value_stack(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Collocation values as a float64 component stack ``(ncomp, *grid.shape)``, checked against the grid."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == grid.dim:
        values = values[None]
    if values.shape[1:] != grid.shape:
        raise ValueError(f"value shape {values.shape} incompatible with grid {grid.shape}")
    return values


class SpectralField:
    """Scalar or vector field carrying collocation values and coefficients.

    Coefficients are the ground truth; values are materialized lazily and
    cached.  Fields are treated as immutable values: operations return new
    instances and never mutate their inputs.
    """

    __slots__ = ("grid", "coeffs", "_values")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[None]
        if coeffs.shape[1:] != grid.shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} incompatible with grid {grid.shape}"
            )
        self.grid = grid
        self.coeffs = coeffs
        self._values = None

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = _value_stack(grid, values)
        f = cls(grid, transform(values, grid))
        f._values = values
        return f

    @classmethod
    def zeros(cls, grid: Grid, ncomp: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((ncomp, *grid.shape), dtype=np.complex128))

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = inverse_transform(self.coeffs, self.grid)
        return self._values

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[i : i + 1])

    def mean(self) -> np.ndarray:
        return np.real(self.coeffs[_mean_mode(self.grid)])

    def with_mean(self, m) -> "SpectralField":
        """A copy whose mean is ``m`` (a scalar or one value per component).

        The real parts of the k = 0 coefficients, which ``mean`` reads,
        become ``m``; nothing else changes.
        """
        coeffs = self.coeffs.copy()
        coeffs[_mean_mode(self.grid)].real = m
        return SpectralField(self.grid, coeffs)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * c)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def _check(self, other: "SpectralField") -> None:
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        if other.ncomp != self.ncomp:
            raise ValueError("component-count mismatch")


@lru_cache(maxsize=_OPERATOR_CACHE)
def dealias_mask(grid: Grid, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Boolean mask of retained modes: |k_i| < fraction * n/2 on every axis.

    Built once per (grid, fraction), read-only.
    """
    cut = fraction * grid.n / 2.0
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.n
        k = grid.wavenumbers().reshape(shape)
        mask &= np.abs(k) < cut
    return _read_only(mask)


@lru_cache(maxsize=_OPERATOR_CACHE)
def _dropped_slabs(grid: Grid, fraction: float) -> tuple[tuple, ...]:
    """Per axis j, the index of the slab |k_j| >= fraction * n/2: in fft layout its indices are one run."""
    drop = np.flatnonzero(np.abs(grid.wavenumbers()) >= fraction * grid.n / 2.0)
    if not drop.size:
        return ()
    run = slice(int(drop[0]), int(drop[-1]) + 1)
    return tuple(_slab(grid, j, run) for j in range(grid.dim))


def _dealias_in_place(coeffs: np.ndarray, grid: Grid, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Zero the modes the dealias drops, in place: the slab |k_j| >= fraction * n/2 of every axis j.

    A mode is kept iff it lies in no slab, which is the ``dealias_mask``.
    """
    for slab in _dropped_slabs(grid, fraction):
        coeffs[slab] = 0.0
    return coeffs


def dealias(field: SpectralField, fraction: float = 2.0 / 3.0) -> SpectralField:
    """The field with the modes outside ``dealias_mask(grid, fraction)`` zeroed."""
    return SpectralField(field.grid, _dealias_in_place(field.coeffs.copy(), field.grid, fraction))


def dealiased_from_values(grid: Grid, values: np.ndarray) -> SpectralField:
    """``dealias(SpectralField.from_values(grid, values))``, zeroing the fresh coefficients in place."""
    return SpectralField(grid, _dealias_in_place(transform(_value_stack(grid, values), grid), grid))


def mult(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dealiased pointwise product.

    Scalar*scalar, scalar*vector, or componentwise when shapes match.
    """
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    a, b = u.values, v.values
    if u.ncomp == 1 and v.ncomp > 1:
        a = np.broadcast_to(a, b.shape)
    elif v.ncomp == 1 and u.ncomp > 1:
        b = np.broadcast_to(b, a.shape)
    elif u.ncomp != v.ncomp:
        raise ValueError("component-count mismatch")
    return dealiased_from_values(u.grid, a * b)


def grad(field: SpectralField) -> SpectralField:
    """Spectral gradient of a scalar field; returns a dim-component field."""
    if field.ncomp != 1:
        raise ValueError("grad expects a scalar field")
    return SpectralField(field.grid, _jacobian(field.coeffs[0], field.grid))


def div(field: SpectralField) -> SpectralField:
    """Spectral divergence of a vector field."""
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("div expects a dim-component field")
    return SpectralField(g, _divergence(field.coeffs, g)[None])


def laplacian(field: SpectralField) -> SpectralField:
    g = field.grid
    return SpectralField(g, -xi_mag2(g) * field.coeffs)


def sym_grad(field: SpectralField) -> np.ndarray:
    """Symmetric gradient D(u) = (grad u + grad u^T)/2 of a vector field.

    Returns the coefficient tensor with shape ``(dim, dim, n, ..., n)``;
    entry ``[i, j]`` holds (D u)_{ij} = (d_j u_i + d_i u_j)/2.
    """
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("sym_grad expects a dim-component field")
    jac = _jacobian(field.coeffs, g)
    return 0.5 * (jac + np.swapaxes(jac, 0, 1))


def curl_norm(field: SpectralField) -> float:
    """L2 norm of the curl (all antisymmetric gradient components), by Parseval."""
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("curl expects a dim-component field")
    jac = _jacobian(field.coeffs, g)
    i, j = np.triu_indices(g.dim, 1)
    w = jac[j, i] - jac[i, j]
    return math.sqrt(g.volume * float(np.sum(parseval_power(w, g))))


def helmholtz_split(field: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Split a vector field into irrotational and solenoidal parts.

    The irrotational part is -grad(div u)/|xi|^2; the mean (k = 0)
    component is assigned to it as well.
    """
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("helmholtz_split expects a dim-component field")
    par = _jacobian(_divergence(field.coeffs, g), g) * -_inverse_xi_mag2(g)
    k0 = _mean_mode(g)
    par[k0] = field.coeffs[k0]
    sol = field.coeffs - par
    return SpectralField(g, par), SpectralField(g, sol)


def dilate(field: SpectralField, l_factor: int) -> SpectralField:
    """Index dilation u(x) -> u(l x): coefficient at k moves to l*k.

    Requires the input band-limited enough that l*k stays on the lattice;
    out-of-range coefficients must vanish.
    """
    g = field.grid
    if l_factor < 1 or not _is_power_of_two(l_factor):
        raise ValueError("l_factor must be a positive power of two")
    if l_factor == 1:
        return field.copy()
    out = np.zeros_like(field.coeffs)
    k = np.rint(g.wavenumbers()).astype(int)
    keep = np.abs(k) < g.n // (2 * l_factor)
    idx_src = np.ix_(*([np.where(keep)[0]] * g.dim))
    dropped = field.coeffs.copy()
    for c in range(field.ncomp):
        dropped[c][idx_src] = 0.0
    if np.abs(dropped).max() > 1e-14:
        raise ValueError("field not band-limited enough for this dilation factor")
    dest = (k[keep] * l_factor) % g.n
    idx_dst = np.ix_(*([dest] * g.dim))
    for c in range(field.ncomp):
        out[c][idx_dst] = field.coeffs[c][idx_src]
    return SpectralField(g, out)


def dump_field(field: SpectralField, path, time: float = 0.0) -> None:
    """Write per-component row-major little-endian float64 files + JSON header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    g = field.grid
    header = {
        "dim": g.dim,
        "n": g.n,
        "period": list(g.period),
        "components": field.ncomp,
        "time": time,
    }
    path.with_suffix(".json").write_text(json.dumps(header, indent=2))
    for c in range(field.ncomp):
        data = np.ascontiguousarray(field.values[c], dtype="<f8")
        with open(f"{path}.c{c}.bin", "wb") as fh:
            fh.write(data.tobytes())


def load_field(path) -> tuple[SpectralField, float]:
    path = Path(path)
    header = json.loads(path.with_suffix(".json").read_text())
    grid = make_grid(header["dim"], header["n"], header["period"])
    ncomp = header["components"]
    values = np.empty((ncomp, *grid.shape))
    for c in range(ncomp):
        raw = np.fromfile(f"{path}.c{c}.bin", dtype="<f8")
        values[c] = raw.reshape(grid.shape)
    return SpectralField.from_values(grid, values), float(header["time"])
