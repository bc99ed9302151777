"""Periodic grid, spectral fields, and Fourier-multiplier calculus.

Conventions used throughout the package:

* collocation values are real arrays of shape ``(ncomp, n, ..., n)``;
* Fourier coefficients are ``fftn(values) / n**dim`` per component, so a
  constant field ``c`` has coefficient ``c`` at wavevector ``k = 0`` and
  ``cos(x)`` on a period-2pi axis has coefficients ``1/2`` at ``k = +-1``;
* the physical frequency along axis ``i`` is ``xi_i = 2 pi k_i / period_i``;
* pointwise products are dealiased with the 2/3 rule (top third of the
  wavenumbers zeroed per axis) so quadratic aliases never pollute retained
  modes.
"""

from __future__ import annotations

import json
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
    "dealias_mask",
    "dealias",
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
    def npoints(self) -> int:
        return self.n**self.dim

    @property
    def volume(self) -> float:
        return float(np.prod(self.period))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(a / self.n for a in self.period)

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Integer wavevector indices along one axis, fft layout."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    def xi(self, axis: int) -> np.ndarray:
        """Physical frequencies 2*pi*k/a along one axis, fft layout."""
        return 2.0 * np.pi * self.wavenumbers(axis) / self.period[axis]

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
def _inverse_xi_mag2(grid: Grid) -> np.ndarray:
    """1/|xi|^2 with 0 at xi = 0; built once per grid, read-only."""
    mag2 = xi_mag2(grid)
    return _read_only(np.where(mag2 > 0, 1.0 / np.where(mag2 > 0, mag2, 1.0), 0.0))


def transform(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward DFT per component, normalized so coeff[0] is the mean."""
    axes = tuple(range(-grid.dim, 0))
    return sfft.fftn(values, axes=axes, workers=_FFT_WORKERS) / grid.npoints


def inverse_transform(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    axes = tuple(range(-grid.dim, 0))
    return np.real(sfft.ifftn(coeffs * grid.npoints, axes=axes, workers=_FFT_WORKERS))


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
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == grid.dim:
            values = values[None]
        if values.shape[1:] != grid.shape:
            raise ValueError(
                f"value shape {values.shape} incompatible with grid {grid.shape}"
            )
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
        zero = (0,) * self.grid.dim
        return np.real(self.coeffs[(slice(None), *zero)])

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

    def is_band_limited(self, fraction: float = 2.0 / 3.0, tol: float = 0.0) -> bool:
        mask = dealias_mask(self.grid, fraction)
        tail = np.abs(self.coeffs[:, ~mask])
        return bool(tail.size == 0 or tail.max() <= tol)


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
        k = grid.wavenumbers(ax).reshape(shape)
        mask &= np.abs(k) < cut
    return _read_only(mask)


def dealias(field: SpectralField, fraction: float = 2.0 / 3.0) -> SpectralField:
    mask = dealias_mask(field.grid, fraction)
    return SpectralField(field.grid, field.coeffs * mask)


def mult(u: SpectralField, v: SpectralField, fraction: float = 2.0 / 3.0) -> SpectralField:
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
    prod = SpectralField.from_values(u.grid, a * b)
    return dealias(prod, fraction)


def grad(field: SpectralField) -> SpectralField:
    """Spectral gradient of a scalar field; returns a dim-component field."""
    if field.ncomp != 1:
        raise ValueError("grad expects a scalar field")
    g = field.grid
    xi = g.xi_grids()
    out = np.empty((g.dim, *g.shape), dtype=np.complex128)
    for ax in range(g.dim):
        out[ax] = 1j * xi[ax] * field.coeffs[0]
    return SpectralField(g, out)


def div(field: SpectralField) -> SpectralField:
    """Spectral divergence of a vector field."""
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("div expects a dim-component field")
    xi = g.xi_grids()
    out = np.zeros((1, *g.shape), dtype=np.complex128)
    for ax in range(g.dim):
        out[0] += 1j * xi[ax] * field.coeffs[ax]
    return SpectralField(g, out)


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
    xi = g.xi_grids()
    out = np.empty((g.dim, g.dim, *g.shape), dtype=np.complex128)
    for i in range(g.dim):
        for j in range(g.dim):
            out[i, j] = 0.5j * (xi[j] * field.coeffs[i] + xi[i] * field.coeffs[j])
    return out


def curl_norm(field: SpectralField) -> float:
    """L2 norm of the curl (all antisymmetric gradient components)."""
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("curl expects a dim-component field")
    if g.dim == 1:
        return 0.0
    xi = g.xi_grids()
    total = 0.0
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            w = 1j * (xi[i] * field.coeffs[j] - xi[j] * field.coeffs[i])
            total += float(np.sum(np.abs(w) ** 2))
    return float(np.sqrt(total * g.volume))


def helmholtz_split(field: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Split a vector field into irrotational and solenoidal parts.

    The mean (k = 0) component is assigned to the irrotational part.
    """
    g = field.grid
    if field.ncomp != g.dim:
        raise ValueError("helmholtz_split expects a dim-component field")
    xi = g.xi_grids()
    inv = _inverse_xi_mag2(g)
    dot = np.zeros(g.shape, dtype=np.complex128)
    for ax in range(g.dim):
        dot += xi[ax] * field.coeffs[ax]
    par = np.empty_like(field.coeffs)
    for ax in range(g.dim):
        par[ax] = xi[ax] * dot * inv
    zero = (0,) * g.dim
    for ax in range(g.dim):
        par[(ax, *zero)] = field.coeffs[(ax, *zero)]
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
    k = np.rint(g.wavenumbers(0)).astype(int)
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
