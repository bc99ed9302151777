"""Besov, hybrid Besov, and time-integrated norms built on dyadic blocks.

L^p normalization: ``lp_norm(u, p) = (vol * mean(|u|^p))**(1/p)`` where
``vol`` is the box volume and the mean runs over collocation points, so a
constant c has norm |c| * vol**(1/p) and norms are stable under grid
refinement (decay fits compare across resolutions).  ``p = inf`` is the max
of the pointwise magnitude.  Vector fields use the pointwise Euclidean
magnitude.  All dyadic sums exclude the mean mode (homogeneous convention).

p = 2 norms never leave coefficient space: ``grid.parseval_power`` gives
|c_h|^2, c_h the Hermitian part of the coefficients, and
``lp_norm(u, 2)**2 = vol * sum |c_h|^2`` is the collocation definition above
exactly.  Every block weight is real and radial in xi, so the Hermitian part
of Delta_l u is phi_l c_h, and one power array per field, summed over each
|xi| shell of the filter, gives the L2 norm of every block.  Any other p,
and each L^inf piece of ``besov_minus1_infty``, takes the values of one band
at a time from ``dyadic._band_values`` and drops them before the next (a norm
caches no blocks on its field).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicFilter, _band_values, _check_grid
from .grid import SpectralField, _heat_multiplier, parseval_power, parseval_sum

__all__ = [
    "BesovSpec",
    "HybridBesovSpec",
    "lp_norm",
    "block_norms",
    "besov_norm",
    "hybrid_besov_norm",
    "time_besov_norm",
    "time_hybrid_besov_norm",
    "besov_minus1_infty",
    "heat_characterization_ratio",
]

INF = math.inf


def _check_index(x: float, name: str) -> float:
    x = float(x)
    if x < 1.0:
        raise ValueError(f"{name} must be >= 1 (inf allowed), got {x}")
    return x


@dataclass(frozen=True)
class BesovSpec:
    """Norm descriptor (s, p, r): r-weighted sum of 2^{ls} L^p block norms."""

    s: float
    p: float = 2.0
    r: float = 1.0

    def __post_init__(self):
        _check_index(self.p, "p")
        _check_index(self.r, "r")


@dataclass(frozen=True)
class HybridBesovSpec:
    """Different (s, p, r) below and above the crossover block l0."""

    s_low: float
    s_high: float
    p_low: float = 2.0
    p_high: float = 2.0
    r_low: float = 1.0
    r_high: float = 1.0
    l0: int = 0

    def __post_init__(self):
        for name in ("p_low", "p_high", "r_low", "r_high"):
            _check_index(getattr(self, name), name)


def _lp(values: np.ndarray, p: float, volume: float) -> float:
    """L^p norm of one field given as values (ncomp, *grid)."""
    if values.shape[0] == 1:
        mag = np.abs(values[0])
    else:
        # the squared magnitude summed component by component, in np.sum's order
        mag = np.square(values[0])
        square = np.empty_like(mag)
        for comp in values[1:]:
            mag += np.square(comp, out=square)
        del square
        if math.isinf(p):
            # sqrt is monotone and correctly rounded: the sqrt of the max is the max of the sqrt
            return math.sqrt(mag.max())
        np.sqrt(mag, out=mag)
    if math.isinf(p):
        return float(mag.max())
    # the root by numpy's array power: the scalar power can differ in the last bit
    return ((np.mean(mag**p, keepdims=True) * volume) ** (1.0 / p)).item()


def lp_norm(field: SpectralField, p: float) -> float:
    p = _check_index(p, "p")
    if p == 2.0:
        return math.sqrt(field.grid.volume * parseval_sum(field.coeffs, field.grid))
    return _lp(field.values, p, field.grid.volume)


def _shell_power(field: SpectralField, filt: DyadicFilter) -> np.ndarray:
    """|c_h|^2 summed over each |xi| shell of the filter."""
    power = parseval_power(field.coeffs, field.grid)
    return np.bincount(filt.shell.ravel(), power.ravel(), minlength=filt.table.shape[1])


def _staleness_check(shell_power: np.ndarray, filt: DyadicFilter) -> None:
    total = float(np.sum(shell_power[1:]))  # shell 0 is the mean mode
    if total > 0 and 1.0 - float(filt.partition_sq @ shell_power) / total > 1e-3:
        warnings.warn(
            "more than 0.1% of the L2 mass sits in blocks outside the filter "
            "range; the Besov norm is unreliable",
            stacklevel=2,
        )


def _block_norms(
    field: SpectralField, p: float, filt: DyadicFilter, shell_power: np.ndarray | None = None
) -> dict[int, float]:
    if p == 2.0:
        if shell_power is None:
            shell_power = _shell_power(field, filt)
        energies = filt.table**2 @ shell_power
        return {l: math.sqrt(field.grid.volume * float(e)) for l, e in zip(filt.levels, energies)}
    return {l: _lp(_band_values(filt, field, l, l), p, field.grid.volume) for l in filt.levels}


def block_norms(field: SpectralField, p: float, filt: DyadicFilter) -> dict[int, float]:
    """L^p norms of every dyadic block within the filter range.

    p = 2 comes by Parseval from one power array per field, with no inverse transform; any
    other p from one inverse transform per block, each block's values dropped after its norm.
    """
    _check_grid(filt, field)
    return _block_norms(field, _check_index(p, "p"), filt)


def _weighted(table, levels, s: float, r: float) -> float:
    """One side of a Besov sum: the l^r norm of 2^{ls} table[l] over ``levels`` (0.0 for none)."""
    weighted = [2.0 ** (l * s) * table[l] for l in levels]
    if not weighted:
        return 0.0
    if math.isinf(r):
        return max(weighted)
    return float(np.sum(np.asarray(weighted) ** r) ** (1.0 / r))


def _weighted_sum(tables, hspec: HybridBesovSpec, levels) -> float:
    """Both sides of a hybrid sum, split at l0; ``tables[p]`` maps each level to its block norm."""
    low = [l for l in levels if l <= hspec.l0]
    high = [l for l in levels if l > hspec.l0]
    return _weighted(tables[hspec.p_low], low, hspec.s_low, hspec.r_low) + _weighted(
        tables[hspec.p_high], high, hspec.s_high, hspec.r_high
    )


def _as_hybrid(spec: BesovSpec, filt: DyadicFilter) -> HybridBesovSpec:
    """A plain norm is the hybrid one split at the top block: its high side is empty."""
    return HybridBesovSpec(spec.s, spec.s, spec.p, spec.p, spec.r, spec.r, filt.l_max)


def besov_norm(field: SpectralField, spec: BesovSpec, filt: DyadicFilter) -> float:
    return hybrid_besov_norm(field, _as_hybrid(spec, filt), filt)


def hybrid_besov_norm(field: SpectralField, hspec: HybridBesovSpec, filt: DyadicFilter) -> float:
    if hspec.l0 < filt.l_min - 1 or hspec.l0 > filt.l_max:
        raise ValueError(f"l0 = {hspec.l0} outside the filter range")
    _check_grid(filt, field)
    shell_power = _shell_power(field, filt)
    _staleness_check(shell_power, filt)
    tables = {p: _block_norms(field, p, filt, shell_power) for p in {hspec.p_low, hspec.p_high}}
    return _weighted_sum(tables, hspec, filt.levels)


def _check_times(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size < 1:
        raise ValueError("need at least one snapshot")
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshot times must be strictly increasing")
    return times


def _time_lr(series: np.ndarray, times: np.ndarray, rho: float) -> np.ndarray:
    """Time L^rho norm (trapezoid; sup for rho = inf) along axis 0; one snapshot integrates to 0."""
    if math.isinf(rho):
        return series.max(axis=0)
    return np.trapezoid(series**rho, times, axis=0) ** (1.0 / rho)


def _time_hybrid(times: np.ndarray, series, rho: float, hspec: HybridBesovSpec, levels) -> float:
    """Chemin-Lerner hybrid norm of block-norm histories: ``series[p]`` is (snapshots, levels)."""
    tables = {p: dict(zip(levels, _time_lr(np.asarray(rows), times, rho))) for p, rows in series.items()}
    return _weighted_sum(tables, hspec, levels)


def time_besov_norm(snapshots, rho: float, spec: BesovSpec, filt: DyadicFilter) -> float:
    """Chemin-Lerner norm: time L^rho per block, then the weighted block sum."""
    return time_hybrid_besov_norm(snapshots, rho, _as_hybrid(spec, filt), filt)


def time_hybrid_besov_norm(snapshots, rho: float, hspec: HybridBesovSpec, filt: DyadicFilter) -> float:
    rho = _check_index(rho, "rho")
    times = _check_times([t for t, _ in snapshots])
    if not math.isinf(rho) and len(times) < 2:
        raise ValueError("finite-rho time norms need >= 2 snapshots")
    ps = {hspec.p_low, hspec.p_high}
    series = {p: [list(block_norms(f, p, filt).values()) for _, f in snapshots] for p in ps}
    return _time_hybrid(times, series, rho, hspec, filt.levels)


def besov_minus1_infty(field: SpectralField, filt: DyadicFilter, low_cut: int | None = None) -> float:
    """sup_l 2^{-l} ||Delta_l u||_Linf over the filter range.

    With ``low_cut`` given, blocks below it are lumped into one low-pass
    piece weighted by 2^{-low_cut} (nonhomogeneous-style evaluation; needed
    for decay diagnostics where the homogeneous sup is dominated by the
    ever-lower frequency content of spreading heat profiles).

    Each piece is one band of ``dyadic._band_values``, dropped after its L^inf norm.
    """
    # (weight, lowest level, highest level) of every piece
    pieces = [(2.0 ** (-l), l, l) for l in filt.levels if low_cut is None or l >= low_cut]
    if low_cut is not None:
        # S_{low_cut} u, the blocks below low_cut lumped into one piece (zero
        # when low_cut <= l_min, all blocks when low_cut > l_max)
        pieces.insert(0, (2.0 ** (-low_cut), filt.l_min, low_cut - 1))
    return max(w * _lp(_band_values(filt, field, lo, hi), INF, field.grid.volume) for w, lo, hi in pieces)


def active_levels(field: SpectralField, filt: DyadicFilter) -> list[int]:
    """Blocks whose L2 norm exceeds 1e-10 of the largest block's."""
    norms = block_norms(field, 2.0, filt)
    top = max(norms.values()) if norms else 0.0
    return [l for l, v in norms.items() if v > 1e-10 * top] if top > 0 else []


def heat_characterization_ratio(
    field: SpectralField,
    s: float,
    p: float,
    r: float,
    filt: DyadicFilter,
) -> float:
    """Ratio of the heat-semigroup quantity to the B^{-2s}_{p,r} norm.

    The semigroup quantity is || t^s ||e^{t Lap} u||_{L^p} ||_{L^r(dt/t)},
    truncated to a window [t_min, t_max] sampled at 8 log-spaced points per
    decade (at least 8), which covers the dyadic scales t ~ 2^{-2l} of the
    field's active blocks with three blocks to spare on each side.  Returns
    nan for the zero field (degenerate, not an error).
    """
    if s <= 0:
        raise ValueError("s must be positive")
    denom = besov_norm(field, BesovSpec(-2.0 * s, p, r), filt)
    if denom == 0.0:
        return math.nan
    active = active_levels(field, filt)
    t_min = 2.0 ** (-2.0 * (max(active) + 3))
    t_max = 2.0 ** (-2.0 * (min(active) - 3))
    n_pts = max(int(8 * math.log10(t_max / t_min)), 8)
    ts = np.geomspace(t_min, t_max, n_pts)
    samples = np.empty(n_pts)
    for i, t in enumerate(ts):
        ut = SpectralField(field.grid, field.coeffs * _heat_multiplier(field.grid, 1.0, t))
        samples[i] = t**s * lp_norm(ut, p)
    if math.isinf(r):
        quantity = float(samples.max())
    else:
        # integral of g(t)^r dt/t = integral over log t
        quantity = float(np.trapezoid(samples**r, np.log(ts)) ** (1.0 / r))
    return quantity / denom
