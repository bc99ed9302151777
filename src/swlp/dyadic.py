"""Dyadic (Littlewood-Paley style) frequency blocks on the discrete lattice.

The block profile is built from the smooth bump b(x) = exp(-1/(x(1-x))),
stretched logarithmically onto the annulus 3/4 <= r <= 8/3, and then
normalized pointwise by the full dyadic sum so the partition of unity holds
exactly on the resolved frequency lattice.  The k = 0 mode carries zero
weight in every block (frequency decompositions act modulo constants).

Every phi_l depends on |xi| alone, so a filter stores one shell index (the
rank of each lattice point's |xi|^2 among the distinct values) and a
levels x shells table of phi_l, evaluated on the distinct |xi| only; at 512^2
over period 64 that is 27 435 shells and about 4 MiB in place of ten
grid-sized arrays.  ``band(lo, hi)`` gathers the multiplier of any range of
levels onto the lattice, and ``weight`` and ``cumulative_below`` are bands.

This module alone makes a field's band values (``_band_values``, one inverse
transform of one band's coefficients), caches its block values read-only on the
field, per filter object and for the field's lifetime (``_block_values``, which
only the Bony operators ``paraproduct.para`` and ``remainder`` call), and checks
that a filter belongs to a field's grid (``_check_grid``); ``besov`` and
``paraproduct`` only read them (guard: the ``band_path`` rule of ``tests/guards.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, SpectralField, _read_only, inverse_transform, xi_mag2

__all__ = [
    "DyadicFilter",
    "build_dyadic_filter",
    "default_filter",
    "default_levels",
    "dyadic_block",
    "low_sum",
    "freq_split",
]

ANNULUS_LO = 3.0 / 4.0
ANNULUS_HI = 8.0 / 3.0
_LOG_WIDTH = math.log2(ANNULUS_HI / ANNULUS_LO)


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (ti * (1.0 - ti)))
    return out


def _profile(r: np.ndarray) -> np.ndarray:
    """Raw (unnormalized) radial profile supported in [3/4, 8/3]."""
    out = np.zeros_like(r)
    pos = r > 0
    t = np.zeros_like(r)
    t[pos] = (np.log2(r[pos]) - math.log2(ANNULUS_LO)) / _LOG_WIDTH
    out[pos] = _bump(t[pos])
    return out


def cover_range(xi: float) -> tuple[int, int]:
    """Block levels whose annulus can touch frequency magnitude xi > 0."""
    lo = math.ceil(math.log2(xi / ANNULUS_HI))
    hi = math.floor(math.log2(xi / ANNULUS_LO))
    return lo, hi


@dataclass(frozen=True, eq=False)
class DyadicFilter:
    """Sampled dyadic partition phi(2^-l xi) for l in [l_min, l_max].

    ``shell`` gives each lattice point the index of its |xi|^2 among the
    distinct values on the lattice, and row l - l_min of ``table`` holds
    phi_l on those shells; ``partition_sq`` holds (sum_l phi_l)^2 on them,
    the share of each shell's power that the filter's blocks cover.  All
    three are read-only.
    """

    grid: Grid
    l_min: int
    l_max: int
    shell: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)
    partition_sq: np.ndarray = field(repr=False)

    @property
    def levels(self) -> range:
        return range(self.l_min, self.l_max + 1)

    def band(self, lo: int, hi: int) -> np.ndarray:
        """Multiplier sum_{l=lo}^{hi} phi_l on the lattice; levels outside the filter are zero."""
        lo, hi = max(lo, self.l_min), min(hi, self.l_max)
        if lo > hi:
            return np.zeros(self.shell.shape)
        return self.table[lo - self.l_min : hi - self.l_min + 1].sum(axis=0)[self.shell]

    def weight(self, l: int) -> np.ndarray:
        if l < self.l_min or l > self.l_max:
            raise ValueError(f"block level {l} outside [{self.l_min}, {self.l_max}]")
        return self.band(l, l)

    def cumulative_below(self, l: int) -> np.ndarray:
        """Multiplier of S_l = sum_{k <= l-1} Delta_k."""
        if l < self.l_min or l > self.l_max + 1:
            raise ValueError(f"level {l} outside [{self.l_min}, {self.l_max + 1}]")
        return self.band(self.l_min, l - 1)


def default_levels(grid: Grid) -> tuple[int, int]:
    """Levels (l_min, l_max) whose annuli cover every resolved frequency of the grid."""
    mag2 = xi_mag2(grid)
    l_min, _ = cover_range(math.sqrt(float(mag2[mag2 > 0].min())))
    _, l_max = cover_range(math.sqrt(float(mag2.max())))
    return l_min, l_max


def build_dyadic_filter(grid: Grid, l_min: int, l_max: int) -> DyadicFilter:
    if l_min >= l_max:
        raise ValueError("l_min must be < l_max")
    # the profile depends on |xi| alone: evaluate it once per distinct |xi|^2
    lattice = xi_mag2(grid)
    mag2, shell = np.unique(lattice, return_inverse=True)
    mag = np.sqrt(mag2)
    xi_top = float(mag[-1])
    if ANNULUS_LO * 2.0**l_max > xi_top:
        raise ValueError(
            f"block {l_max} lies entirely beyond the resolvable frequencies"
        )
    xi_bot = float(mag[1])  # mag[0] = 0 is the mean mode
    if ANNULUS_HI * 2.0**l_min < xi_bot:
        raise ValueError(f"block {l_min} lies entirely below the resolved lattice")

    # Pointwise normalization over the *full* dyadic cover of every lattice
    # frequency, independent of the requested range, so truncating the range
    # never distorts the retained blocks.
    lo_all, hi_all = default_levels(grid)
    total = np.zeros_like(mag)
    raw: dict[int, np.ndarray] = {}
    for l in range(lo_all, hi_all + 1):
        raw[l] = _profile(mag / 2.0**l)
        total += raw[l]
    pos = total > 0
    table = np.zeros((l_max - l_min + 1, mag.size))
    for i, l in enumerate(range(l_min, l_max + 1)):
        if l in raw:
            table[i, pos] = raw[l][pos] / total[pos]
    partition_sq = table.sum(axis=0) ** 2
    return DyadicFilter(grid, l_min, l_max, *map(_read_only, (shell.reshape(lattice.shape), table, partition_sq)))


def default_filter(grid: Grid) -> DyadicFilter:
    """Filter whose range covers every resolved frequency of the grid."""
    return build_dyadic_filter(grid, *default_levels(grid))


def _check_grid(filt: DyadicFilter, f: SpectralField) -> None:
    """Reject a filter built on another grid than the field's, period included."""
    if f.grid != filt.grid:
        raise ValueError("grid mismatch")


def _band_values(filt: DyadicFilter, f: SpectralField, lo: int, hi: int) -> np.ndarray:
    """The values of sum_{l=lo}^{hi} Delta_l f, shaped ``(ncomp, *grid)``: one inverse
    transform, which works in the band's coefficients."""
    _check_grid(filt, f)
    return inverse_transform(f.coeffs * filt.band(lo, hi), f.grid, overwrite=True)


def _block_values(filt: DyadicFilter, f: SpectralField) -> np.ndarray:
    """The values of every block Delta_l f, l in ``filt.levels``, stacked ``(levels, ncomp, *grid)``.

    Made once, one block at a time, then cached read-only on ``f`` while ``filt`` is the same object.
    """
    if f._blocks is None or f._blocks[0] is not filt:
        stack = np.empty((len(filt.levels), *f.coeffs.shape))
        for block, l in zip(stack, filt.levels):
            block[...] = _band_values(filt, f, l, l)
        f._blocks = (filt, _read_only(stack))
    return f._blocks[1]


def dyadic_block(filt: DyadicFilter, u: SpectralField, l: int) -> SpectralField:
    """Delta_l u: coefficientwise product with phi(2^-l xi)."""
    _check_grid(filt, u)
    return SpectralField(u.grid, u.coeffs * filt.weight(l))


def low_sum(filt: DyadicFilter, u: SpectralField, l: int) -> SpectralField:
    """S_l u = sum_{k <= l-1} Delta_k u (mean mode excluded)."""
    _check_grid(filt, u)
    return SpectralField(u.grid, u.coeffs * filt.cumulative_below(l))


def freq_split(filt: DyadicFilter, u: SpectralField, l0: int) -> tuple[SpectralField, SpectralField]:
    """(u_BF, u_HF) with u_BF = sum_{l <= l0} Delta_l u; sum is u - mean."""
    _check_grid(filt, u)
    return (
        SpectralField(u.grid, u.coeffs * filt.band(filt.l_min, l0)),
        SpectralField(u.grid, u.coeffs * filt.band(l0 + 1, filt.l_max)),
    )
