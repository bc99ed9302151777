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
  the lattice by a mask.  ``dealiased_from_values`` is the dealiased forward
  transform of values: it zeroes the slabs of the fresh transform output in
  place;
* every spatial derivative is one multiplication by ``i xi_j``: the
  multipliers are built once per grid (``_i_xi``), and ``_jacobian`` (with
  its upper triangle ``_jacobian_upper`` and its entry ``_partial``),
  ``_sym_grad_upper`` and ``_divergence`` are the only operations that
  apply them.  ``grad``, ``div``, ``helmholtz_split`` and the solver's
  derivatives are written with these;
* the heat semigroup e^{-mu |xi|^2 t} is one multiplier, ``_heat_multiplier``:
  the exact heat flow of ``quasi.heat_evolve``, the Duhamel steps of
  ``quasi.heat_estimate_ratio`` and the samples of
  ``besov.heat_characterization_ratio`` (mu = 1) all read it;
* Nyquist rule: the values of a first derivative along axis ``j`` carry
  nothing of the Nyquist plane ``k_j = -n/2``, as if that plane were zeroed.
  ``k -> -k`` maps that plane to itself, and ``i xi_j`` has the same
  imaginary value at ``k`` and ``-k`` there, so the plane's terms of a real
  field's derivative are anti-Hermitian and their real part is zero.

Layout: the coefficients of a field fill the full fft lattice, one
``(n, ..., n)`` array per component with ``k = 0`` first on every axis, and
only this module knows it.  The other modules reach the storage through a
few operations:

* the per-grid multipliers (``xi_mag2``, ``_i_xi``, ``_heat_multiplier``), which
  have the lattice's shape, so code that needs that shape reads it from a
  multiplier or from the coefficients, never from ``Grid.shape`` (the shape
  of the values);
* ``parseval_power``, the L2 power of a coefficient stack, and its sum
  ``parseval_sum``;
* ``dealias`` and ``dealiased_from_values``, which zero the dropped slabs;
* ``SpectralField.mean`` and ``SpectralField.with_mean``, which read and set
  the ``k = 0`` coefficients;
* ``shift_phase``, the exponent of a translation.

The ``layout`` rule of ``tests/guards.py`` fails on a lattice index, a
roll, a flip or a ``Grid.xi_grids()`` call anywhere else in the package.  A
field's coefficients and values are read-only: code that writes does so into
arrays it made, before it wraps them in a field.

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
``_nyquist_hermitian`` is the one place that forms it, or takes any other
conjugate of a mirror mode.  It forms nothing when the planes already hold
their Hermitian part: when they are all zero (every dealiased field) or
exactly Hermitian (the transform of real values).  Its readers:

* ``transform`` runs the real-to-complex kernel ``rfftn`` (Frigo & Johnson,
  Proc. IEEE 93, 2005), which fills the half ``k_last >= 0`` of the lattice.
  The other half is completed by c(k) = conj(c(-k)), read through slices
  of the first half.  The column passes leave the self-conjugate planes
  k_last = 0 and -n/2, which map to themselves under k -> -k, Hermitian
  only to round-off, so on them the later mode of each mirror pair takes
  the conjugate of the earlier one, as pocketfft's complex transform of
  real values does.  So the transform of real values is exactly Hermitian
  on the whole lattice;
* ``inverse_transform`` runs the complex-to-real kernel ``irfftn``, which
  reads only the half ``k_last >= 0`` of the lattice and takes the
  coefficients to be Hermitian.  When the Nyquist planes' Hermitian part
  differs from their modes, it goes into a copy of the coefficients first
  (into the coefficients themselves when the caller gives them up, as
  ``multiplied_values`` gives up its stack), so the values equal the real part of the full inverse DFT to round-off;
* ``parseval_power``: ``volume * sum |c_h|^2`` is the collocation L2 norm
  squared exactly, also for coefficients that are not Hermitian (an
  undealiased gradient's Nyquist modes), where plain ``sum |c|^2`` is not.
  It is |c|^2 off the Nyquist planes, with no reflected copy of the
  lattice, and |c_h|^2 on them.

Kernels and threads: the FFT is numpy's (pocketfft), and each transform is
written as the 1-D passes of ``np.fft.rfftn`` or ``np.fft.irfftn``, in the
same order, so it gives their bits (the forward one except on the plane
modes that its completion overwrites).  At 2^16 lattice points per component and above, in
2-D and 3-D (``_workers``), ``_in_halves`` runs half of each transform pass's lines, of the
completion's rows and of each whole-lattice multiplier product (the derivatives, ``__mul__``,
``solver._implicit_solve``, ``quasi.heat_evolve``) on ``_FFT_POOL`` and the other half on the
calling thread.  numpy's FFT and ufuncs release the interpreter lock, and each line and point
is computed on its own, so the split changes no bit either.  ``solver._rhs_block``'s many small
ufunc calls contend for the lock, so its point loop stays on the calling thread.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "make_grid",
    "xi_mag2",
    "transform",
    "inverse_transform",
    "multiplied_values",
    "parseval_power",
    "parseval_sum",
    "shift_phase",
    "dealias",
    "dealiased_from_values",
    "mult",
    "grad",
    "div",
    "laplacian",
    "helmholtz_split",
    "dilate",
    "dump_field",
    "load_field",
]

_FFT_WORKERS = 2
# the second thread of a split (``_in_halves``); the executor starts it at its first task, not at import
_FFT_POOL = ThreadPoolExecutor(_FFT_WORKERS - 1)
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

    def half(h):
        for m, d_j in zip(_i_xi(grid), np.moveaxis(jac, -grid.dim - 1, 0)):
            np.multiply(m[h], coeffs[h], out=d_j[h])

    _in_halves(half, grid, 0)
    return jac


def _jacobian_upper(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """The entries d_j f_i with i <= j of a vector field's Jacobian, stacked in ``np.triu_indices`` order.

    They are the whole Jacobian when it is symmetric, as for a gradient field.
    """
    i_xi = _i_xi(grid)
    rows, cols = np.triu_indices(grid.dim)
    upper = np.empty((rows.size, *grid.shape), dtype=np.complex128)

    def half(h):
        for out, i, j in zip(upper, rows, cols):
            np.multiply(i_xi[j][h], coeffs[i][h], out=out[h])

    _in_halves(half, grid, 0)
    return upper


def _partial(coeffs: np.ndarray, grid: Grid, j: int) -> np.ndarray:
    """d_j f of a coefficient array, one derivative of ``_jacobian``."""
    return _i_xi(grid)[j] * coeffs


def _sym_grad_upper(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """The entries (D f)_ij = (d_j f_i + d_i f_j)/2 with i <= j of a vector field's symmetric
    gradient, stacked in ``np.triu_indices`` order: the whole of it, as D is symmetric."""
    i_xi = _i_xi(grid)
    rows, cols = np.triu_indices(grid.dim)
    upper = np.empty((rows.size, *grid.shape), dtype=np.complex128)
    for out, i, j in zip(upper, rows, cols):
        np.multiply(i_xi[j], coeffs[i], out=out)
        out += i_xi[i] * coeffs[j]
        out *= 0.5
    return upper


def _divergence(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Contract the axis just before the grid axes: sum_j d_j f[..., j], added in place in order of j."""
    (m, f), *terms = zip(_i_xi(grid), np.moveaxis(coeffs, -grid.dim - 1, 0))
    out, term = np.empty(f.shape, dtype=np.complex128), np.empty(f.shape, dtype=np.complex128)

    def half(h):
        part = np.multiply(m[h], f[h], out=out[h])
        for m_j, f_j in terms:
            part += np.multiply(m_j[h], f_j[h], out=term[h])

    _in_halves(half, grid, 0)
    return out


@lru_cache(maxsize=_OPERATOR_CACHE)
def _inverse_xi_mag2(grid: Grid) -> np.ndarray:
    """1/|xi|^2 with 0 at xi = 0; built once per grid, read-only."""
    mag2 = xi_mag2(grid)
    return _read_only(np.where(mag2 > 0, 1.0 / np.where(mag2 > 0, mag2, 1.0), 0.0))


# the one key that repeats is the step's (grid, mu, dt): a run calls heat_evolve
# with nothing else between its steps, so one entry serves every hit
@lru_cache(maxsize=1)
def _heat_multiplier(grid: Grid, mu: float, t: float) -> np.ndarray:
    """The heat semigroup e^{-mu |xi|^2 t} on the lattice; built once per (grid, mu, t), read-only."""
    return _read_only(np.exp(-mu * xi_mag2(grid) * t))


def _workers(grid: Grid) -> int:
    """FFT threads for one transform: a second thread pays only on large lattices, and its
    half of a pass's lines is cut along a second grid axis, which a 1-D grid lacks."""
    return 1 if grid.dim == 1 or grid.n**grid.dim < 2**16 else _FFT_WORKERS


def _in_halves(fn, grid: Grid, axis: int, length: int | None = None) -> None:
    """``fn(index)``: once with ``...`` at one worker (``_workers``), else with the first half of
    grid axis ``axis`` (``length`` long, n by default) on the calling thread and the second on
    ``_FFT_POOL``, which is joined before the call returns or raises an error of either half.

    The second half counts from the end, so it is also the whole of a length-1 axis: a broadcastable
    multiplier takes both indices.  ``fn`` writes only into its caller's arrays, and splits nothing.
    """
    if _workers(grid) == 1:
        fn(Ellipsis)
        return
    length = length or grid.n
    pool_half = _FFT_POOL.submit(fn, _slab(grid, axis, slice(length // 2 - length, None)))
    try:
        fn(_slab(grid, axis, slice(None, length // 2)))
    finally:
        pool_half.result()


def _fft_pass(kernel, src: np.ndarray, dst: np.ndarray, axis: int, grid: Grid) -> None:
    """One 1-D pass of ``kernel`` (``np.fft.rfft``, ``fft``, ``ifft`` or ``irfft``) along grid
    axis ``axis``, from ``src`` into ``dst`` (which may be ``src``), normalized forward.

    With two workers the lines are split into two halves along another grid axis
    (``_in_halves``).  Each line is transformed on its own, so the split changes no bit of
    the result.
    """
    cut = 1 if axis == 0 else 0
    size = dst.shape[cut - grid.dim]
    _in_halves(lambda h: kernel(src[h], axis=axis - grid.dim, norm="forward", out=dst[h]), grid, cut, size)


def transform(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward DFT per component, normalized so coeff[0] is the mean.

    numpy's ``rfftn`` passes, in its order, fill the half ``k_last >= 0`` of the lattice
    (last-axis indices 0 to n/2), and ``_completion`` sets the rest, and the later mode of
    each mirror pair on the planes k_last = 0 and -n/2, to the conjugates of their
    mirrors: the result is exactly Hermitian.
    """
    coeffs = np.empty(values.shape, dtype=np.complex128)
    half = coeffs[..., : grid.n // 2 + 1]
    _fft_pass(np.fft.rfft, values, half, grid.dim - 1, grid)
    for axis in range(grid.dim - 2, -1, -1):
        _fft_pass(np.fft.fft, half, half, axis, grid)
    # the first piece (k_last < 0, every k_j != 0) is the largest; its n - 1 rows read and write disjoint columns
    negative, *planes = _completion(grid)
    _in_halves(lambda h: _nyquist_hermitian(coeffs, negative, fill=h), grid, 0, grid.n - 1)
    for pair in planes:
        _nyquist_hermitian(coeffs, pair, fill=Ellipsis)
    return coeffs


def inverse_transform(coeffs: np.ndarray, grid: Grid, overwrite: bool = False) -> np.ndarray:
    """Real part of the inverse DFT per component, for coefficients that are
    Hermitian off the Nyquist planes (see the module docstring).

    numpy's ``irfftn`` passes, in its order, on the half ``k_last >= 0`` of the lattice
    make the values; when the Nyquist planes do not hold their Hermitian part, a copy
    of the coefficients with that part on the planes is transformed instead.  With
    ``overwrite`` the caller gives up ``coeffs``: the Nyquist part and the column
    passes are written into it, and no copy or column array is made.
    """
    nyquist = _nyquist_modes(grid)
    hermitian = _nyquist_hermitian(coeffs, nyquist)
    if hermitian is not None:
        if not overwrite:
            coeffs = coeffs.copy()
        coeffs[nyquist[0]] = hermitian
    half = coeffs[..., : grid.n // 2 + 1]
    if grid.dim > 1:
        columns = half if overwrite else np.empty(half.shape, dtype=np.complex128)
        _fft_pass(np.fft.ifft, half, columns, 0, grid)
        for axis in range(1, grid.dim - 1):
            _fft_pass(np.fft.ifft, columns, columns, axis, grid)
        half = columns
    values = np.empty(coeffs.shape)
    _fft_pass(np.fft.irfft, half, values, grid.dim - 1, grid)
    return values


def multiplied_values(coeffs: np.ndarray, multipliers: list[np.ndarray], grid: Grid) -> np.ndarray:
    """Values of ``m * coeffs`` for every multiplier m, shape ``(len(multipliers), *coeffs.shape)``.

    The products fill one preallocated stack, and one inverse transform
    makes all of their values, working in the stack in place.
    """
    stack = np.empty((len(multipliers), *coeffs.shape), dtype=np.complex128)
    for i, out in enumerate(stack):
        np.multiply(coeffs, multipliers[i], out=out)
    # the multipliers are no longer needed: unless the caller holds them too,
    # this frees them before the transform allocates its output
    del multipliers
    return inverse_transform(stack, grid, overwrite=True)


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


@lru_cache(maxsize=_OPERATOR_CACHE)
def _completion(grid: Grid) -> tuple[tuple[tuple, tuple], ...]:
    """The modes that ``transform`` sets to the conjugates of their mirrors -k, as pairs of
    slices ``(modes, mirrors)``; built once per grid.

    They are the modes whose mirror comes first in row-major order of the half
    ``k_last >= 0``: every mode with k_last < 0 other than -n/2, and on the self-conjugate
    planes k_last = 0 and -n/2, those whose first k_j other than 0 and -n/2 is negative.
    So the result is exactly Hermitian, with the bits of numpy's ``rfftn`` off those planes
    (0 < k_last < n/2); ``tests/test_grid.py`` checks both.
    """
    h = grid.n // 2
    # per axis, (modes, mirrors): index k has its mirror at n - k, and 0 and h are their own
    whole = ((slice(1, None), slice(None, 0, -1)), (0, 0))
    negative = (slice(h + 1, None), slice(h - 1, 0, -1))
    own = (slice(None, None, h),) * 2
    pieces = [(*other, negative) for other in product(whole, repeat=grid.dim - 1)]
    for j in range(grid.dim - 1):
        pieces += [(*(own,) * j, negative, *rest, own) for rest in product(whole, repeat=grid.dim - 2 - j)]
    return tuple(((Ellipsis, *(m for m, _ in axes)), (Ellipsis, *(r for _, r in axes))) for axes in pieces)


def _nyquist_hermitian(coeffs: np.ndarray, pair: tuple, fill=None) -> np.ndarray | None:
    """The Hermitian part (c + conj(c_mirror))/2 of the modes ``coeffs[modes]``, in their order,
    or None when they already hold it (all zero, or exactly Hermitian).

    ``pair`` is ``(modes, mirrors)``, and ``coeffs[mirrors]`` holds the mirrors -k of the
    modes in the same order: the Nyquist planes (``_nyquist_modes``) or a piece of
    ``_completion``.  Given ``fill``, an index into the modes (``...``: all), those modes take
    the conjugates of their mirrors instead, in place (``modes`` must be slices).
    """
    modes, mirrors = pair
    if fill is not None:
        np.conjugate(coeffs[mirrors][fill], out=coeffs[modes][fill])
        return None
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
    nyquist = _nyquist_modes(grid)
    hermitian = _nyquist_hermitian(coeffs, nyquist)
    if hermitian is not None:
        power[nyquist[0]] = _power(hermitian)
    return power


def parseval_sum(coeffs: np.ndarray, grid: Grid) -> float:
    """The sum of ``parseval_power(coeffs, grid)``, with no lattice-sized temporary:
    ``volume *`` it is the squared collocation L2 norm of the values.

    ``_square_sum`` gives sum |c|^2, and the Nyquist planes' |c|^2 is replaced by
    |c_h|^2 where the planes do not hold their Hermitian part.
    """
    total = _square_sum(coeffs)
    nyquist = _nyquist_modes(grid)
    hermitian = _nyquist_hermitian(coeffs, nyquist)
    if hermitian is not None:
        total += _square_sum(hermitian) - _square_sum(coeffs[nyquist[0]])
    return total


# float64s squared per chunk of ``_square_sum``: 512 KiB of scratch, not a lattice
_SQUARE_CHUNK = 1 << 16


def _square_sum(a: np.ndarray) -> float:
    """sum |a|^2 over every entry of a real or complex array, from its float64s.

    The squares are summed pairwise (``np.sum``) a chunk at a time, so the sum is
    as accurate as ``np.sum(parseval_power(...))`` with no lattice-sized
    temporary.  A BLAS dot product would be faster alone, but its threads keep
    spinning on the cores that the transforms' threads need.
    """
    # a view of a contiguous ``a``, as every caller's is; a copy otherwise
    flat = a.reshape(-1).view(np.float64)
    square = np.empty(min(flat.size, _SQUARE_CHUNK))
    total = 0.0
    for lo in range(0, flat.size, _SQUARE_CHUNK):
        chunk = flat[lo : lo + _SQUARE_CHUNK]
        total += float(np.sum(np.square(chunk, out=square[: chunk.size])))
    return total


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

    Coefficients are the ground truth.  A field is an immutable value: the
    ``coeffs`` array it is given becomes read-only (no copy is made), and so
    do ``values``, made lazily and cached, or a copy of the caller's values in
    ``from_values``.  In ``_blocks`` the pair ``(filter, stack)`` caches the
    read-only values of every dyadic block under that filter object, which
    ``dyadic._block_values`` alone makes and reads, for the Bony operators
    (this class only declares the slot).
    """

    __slots__ = ("grid", "coeffs", "_values", "_blocks")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        coeffs = _read_only(np.asarray(coeffs, dtype=np.complex128))
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[None]
        if coeffs.shape[1:] != grid.shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} incompatible with grid {grid.shape}"
            )
        self.grid = grid
        self.coeffs = coeffs
        self._values = None
        self._blocks = None

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = _read_only(_value_stack(grid, np.array(values, dtype=np.float64)))
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
            self._values = _read_only(inverse_transform(self.coeffs, self.grid))
        return self._values

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

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "SpectralField":
        out = np.empty(self.coeffs.shape, dtype=np.complex128)
        _in_halves(lambda h: np.multiply(self.coeffs[h], c, out=out[h]), self.grid, 0)
        return SpectralField(self.grid, out)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def _check(self, other: "SpectralField") -> None:
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        if other.ncomp != self.ncomp:
            raise ValueError("component-count mismatch")


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

    A mode is kept iff |k_j| < fraction * n/2 on every axis j.
    """
    for slab in _dropped_slabs(grid, fraction):
        coeffs[slab] = 0.0
    return coeffs


def dealias(field: SpectralField, fraction: float = 2.0 / 3.0) -> SpectralField:
    """The field with the modes outside |k_j| < fraction * n/2 (every axis j) zeroed."""
    return SpectralField(field.grid, _dealias_in_place(field.coeffs.copy(), field.grid, fraction))


def dealiased_from_values(grid: Grid, values: np.ndarray) -> SpectralField:
    """``dealias(SpectralField.from_values(grid, values))``, zeroing the fresh coefficients in place."""
    return SpectralField(grid, _dealias_in_place(transform(_value_stack(grid, values), grid), grid))


def _check_pair(u: SpectralField, v: SpectralField) -> None:
    """The operands of a pointwise product: same grid, and equal component counts unless one side is a scalar."""
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    if u.ncomp != v.ncomp and 1 not in (u.ncomp, v.ncomp):
        raise ValueError("component-count mismatch")


def mult(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dealiased pointwise product: scalar*scalar, scalar*vector, or componentwise when shapes match."""
    _check_pair(u, v)
    return dealiased_from_values(u.grid, u.values * v.values)


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
        return field
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
