"""Dyadic (Littlewood-Paley style) frequency blocks on the discrete lattice.

The block profile is built from the smooth bump b(x) = exp(-1/(x(1-x))),
stretched logarithmically onto the annulus 3/4 <= r <= 8/3, and then
normalized pointwise by the full dyadic sum so the partition of unity holds
exactly on the resolved frequency lattice.  The k = 0 mode carries zero
weight in every block (frequency decompositions act modulo constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, SpectralField

__all__ = [
    "DyadicFilter",
    "build_dyadic_filter",
    "default_filter",
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


@dataclass
class DyadicFilter:
    """Sampled dyadic partition phi(2^-l xi) for l in [l_min, l_max]."""

    grid: Grid
    l_min: int
    l_max: int
    weights: dict[int, np.ndarray] = field(repr=False)
    # S_l multipliers, built on first request: a full prefix table would hold
    # one more grid-sized array per level.
    _below: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def levels(self) -> range:
        return range(self.l_min, self.l_max + 1)

    def weight(self, l: int) -> np.ndarray:
        if l < self.l_min or l > self.l_max:
            raise ValueError(f"block level {l} outside [{self.l_min}, {self.l_max}]")
        return self.weights[l]

    def cumulative_below(self, l: int) -> np.ndarray:
        """Multiplier of S_l = sum_{k <= l-1} Delta_k; cached, read-only."""
        if l < self.l_min or l > self.l_max + 1:
            raise ValueError(f"level {l} outside [{self.l_min}, {self.l_max + 1}]")
        out = self._below.get(l)
        if out is None:
            out = np.zeros(self.grid.shape)
            for k in range(self.l_min, l):
                out += self.weights[k]
            out.setflags(write=False)
            self._below[l] = out
        return out


def build_dyadic_filter(grid: Grid, l_min: int, l_max: int) -> DyadicFilter:
    if l_min >= l_max:
        raise ValueError("l_min must be < l_max")
    mag = grid.xi_mag()
    xi_top = float(mag.max())
    if ANNULUS_LO * 2.0**l_max > xi_top:
        raise ValueError(
            f"block {l_max} lies entirely beyond the resolvable frequencies"
        )
    nonzero = mag[mag > 0]
    xi_bot = float(nonzero.min())
    if ANNULUS_HI * 2.0**l_min < xi_bot:
        raise ValueError(f"block {l_min} lies entirely below the resolved lattice")

    # Pointwise normalization over the *full* dyadic cover of every lattice
    # frequency, independent of the requested range, so truncating the range
    # never distorts the retained blocks.
    lo_all, _ = cover_range(xi_bot)
    _, hi_all = cover_range(xi_top)
    total = np.zeros(grid.shape)
    raw: dict[int, np.ndarray] = {}
    for l in range(lo_all, hi_all + 1):
        raw[l] = _profile(mag / 2.0**l)
        total += raw[l]
    pos = total > 0
    weights: dict[int, np.ndarray] = {}
    for l in range(l_min, l_max + 1):
        w = raw.get(l)
        if w is None:
            w = np.zeros(grid.shape)
        out = np.zeros(grid.shape)
        out[pos] = w[pos] / total[pos]
        weights[l] = out
    return DyadicFilter(grid=grid, l_min=l_min, l_max=l_max, weights=weights)


def default_filter(grid: Grid) -> DyadicFilter:
    """Filter whose range covers every resolved frequency of the grid."""
    mag = grid.xi_mag()
    xi_bot = float(mag[mag > 0].min())
    xi_top = float(mag.max())
    l_min, _ = cover_range(xi_bot)
    _, l_max = cover_range(xi_top)
    return build_dyadic_filter(grid, l_min, l_max)


def dyadic_block(filt: DyadicFilter, u: SpectralField, l: int) -> SpectralField:
    """Delta_l u: coefficientwise product with phi(2^-l xi)."""
    if u.grid != filt.grid:
        raise ValueError("grid mismatch")
    return SpectralField(u.grid, u.coeffs * filt.weight(l))


def low_sum(filt: DyadicFilter, u: SpectralField, l: int) -> SpectralField:
    """S_l u = sum_{k <= l-1} Delta_k u (mean mode excluded)."""
    if u.grid != filt.grid:
        raise ValueError("grid mismatch")
    return SpectralField(u.grid, u.coeffs * filt.cumulative_below(l))


def freq_split(filt: DyadicFilter, u: SpectralField, l0: int) -> tuple[SpectralField, SpectralField]:
    """(u_BF, u_HF) with u_BF = sum_{l <= l0} Delta_l u; sum is u - mean."""
    top = filt.cumulative_below(filt.l_max + 1)
    if l0 < filt.l_min:
        low_mult = np.zeros(filt.grid.shape)
    else:
        low_mult = filt.cumulative_below(min(l0, filt.l_max) + 1)
    high_mult = top - low_mult
    return (
        SpectralField(u.grid, u.coeffs * low_mult),
        SpectralField(u.grid, u.coeffs * high_mult),
    )
