"""Besov, hybrid Besov, and time-integrated norms built on dyadic blocks.

L^p normalization: ``lp_norm(u, p) = (vol * mean(|u|^p))**(1/p)`` where
``vol`` is the box volume and the mean runs over collocation points, so a
constant c has norm |c| * vol**(1/p) and norms are stable under grid
refinement (decay fits compare across resolutions).  ``p = inf`` is the max
of the pointwise magnitude.  Vector fields use the pointwise Euclidean
magnitude.  All dyadic sums exclude the mean mode (homogeneous convention).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicFilter, cover_range, dyadic_block
from .grid import SpectralField, xi_mag2

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

    @property
    def low(self) -> BesovSpec:
        return BesovSpec(self.s_low, self.p_low, self.r_low)

    @property
    def high(self) -> BesovSpec:
        return BesovSpec(self.s_high, self.p_high, self.r_high)


def pointwise_magnitude(field: SpectralField) -> np.ndarray:
    v = field.values
    if v.shape[0] == 1:
        return np.abs(v[0])
    return np.sqrt(np.sum(v**2, axis=0))

def lp_norm(field: SpectralField, p: float) -> float:
    p = _check_index(p, "p")
    mag = pointwise_magnitude(field)
    if math.isinf(p):
        return float(mag.max())
    vol = field.grid.volume
    return float((np.mean(mag**p) * vol) ** (1.0 / p))


def _staleness_check(field: SpectralField, filt: DyadicFilter) -> None:
    covered = filt.cumulative_below(filt.l_max + 1)
    c = field.coeffs
    total = float(np.sum(np.abs(c) ** 2))
    zero = (0,) * field.grid.dim
    total -= float(np.sum(np.abs(c[(slice(None), *zero)]) ** 2))
    if total <= 0:
        return
    inside = float(np.sum(np.abs(c * covered) ** 2))
    if 1.0 - inside / total > 1e-3:
        warnings.warn(
            "more than 0.1% of the L2 mass sits in blocks outside the filter "
            "range; the Besov norm is unreliable",
            stacklevel=3,
        )


def block_norms(field: SpectralField, p: float, filt: DyadicFilter) -> dict[int, float]:
    """L^p norms of every dyadic block within the filter range."""
    return {
        l: lp_norm(dyadic_block(filt, field, l), p) for l in filt.levels
    }


def _accumulate(weighted: list[float], r: float) -> float:
    if not weighted:
        return 0.0
    if math.isinf(r):
        return max(weighted)
    return float(np.sum(np.asarray(weighted) ** r) ** (1.0 / r))


def besov_norm(field: SpectralField, spec: BesovSpec, filt: DyadicFilter) -> float:
    _staleness_check(field, filt)
    norms = block_norms(field, spec.p, filt)
    weighted = [2.0 ** (l * spec.s) * norms[l] for l in filt.levels]
    return _accumulate(weighted, spec.r)


def hybrid_besov_norm(field: SpectralField, hspec: HybridBesovSpec, filt: DyadicFilter) -> float:
    if hspec.l0 < filt.l_min - 1 or hspec.l0 > filt.l_max:
        raise ValueError(f"l0 = {hspec.l0} outside the filter range")
    _staleness_check(field, filt)
    low, high = [], []
    for l in filt.levels:
        if l <= hspec.l0:
            low.append(2.0 ** (l * hspec.s_low) * lp_norm(dyadic_block(filt, field, l), hspec.p_low))
        else:
            high.append(2.0 ** (l * hspec.s_high) * lp_norm(dyadic_block(filt, field, l), hspec.p_high))
    return _accumulate(low, hspec.r_low) + _accumulate(high, hspec.r_high)


def _check_times(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size < 1:
        raise ValueError("need at least one snapshot")
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshot times must be strictly increasing")
    return times


def _time_lr(series: np.ndarray, times: np.ndarray, rho: float) -> np.ndarray:
    """Time L^rho norm (trapezoid; sup for rho = inf) along axis 0."""
    if math.isinf(rho):
        return series.max(axis=0)
    if len(times) < 2:
        raise ValueError("finite-rho time norms need >= 2 snapshots")
    return np.trapezoid(series**rho, times, axis=0) ** (1.0 / rho)


def time_besov_norm(snapshots, rho: float, spec: BesovSpec, filt: DyadicFilter) -> float:
    """Chemin-Lerner norm: time L^rho per block, then the weighted block sum."""
    rho = _check_index(rho, "rho")
    times = _check_times([t for t, _ in snapshots])
    levels = list(filt.levels)
    series = np.empty((len(times), len(levels)))
    for i, (_, f) in enumerate(snapshots):
        bn = block_norms(f, spec.p, filt)
        series[i] = [bn[l] for l in levels]
    per_block = _time_lr(series, times, rho)
    weighted = [2.0 ** (l * spec.s) * per_block[i] for i, l in enumerate(levels)]
    return _accumulate(weighted, spec.r)


def time_hybrid_besov_norm(snapshots, rho: float, hspec: HybridBesovSpec, filt: DyadicFilter) -> float:
    rho = _check_index(rho, "rho")
    times = _check_times([t for t, _ in snapshots])
    levels = list(filt.levels)
    low_series, high_series = [], []
    for _, f in snapshots:
        bn_low = block_norms(f, hspec.p_low, filt)
        bn_high = block_norms(f, hspec.p_high, filt)
        low_series.append([bn_low[l] for l in levels if l <= hspec.l0])
        high_series.append([bn_high[l] for l in levels if l > hspec.l0])
    out = 0.0
    for series, sub, s_exp, r in (
        (np.asarray(low_series), [l for l in levels if l <= hspec.l0], hspec.s_low, hspec.r_low),
        (np.asarray(high_series), [l for l in levels if l > hspec.l0], hspec.s_high, hspec.r_high),
    ):
        if series.size == 0:
            continue
        per_block = _time_lr(series, times, rho)
        out += _accumulate([2.0 ** (l * s_exp) * per_block[i] for i, l in enumerate(sub)], r)
    return out


def besov_minus1_infty(field: SpectralField, filt: DyadicFilter, low_cut: int | None = None) -> float:
    """sup_l 2^{-l} ||Delta_l u||_Linf over the filter range.

    With ``low_cut`` given, blocks below it are lumped into one low-pass
    piece weighted by 2^{-low_cut} (nonhomogeneous-style evaluation; needed
    for decay diagnostics where the homogeneous sup is dominated by the
    ever-lower frequency content of spreading heat profiles).
    """
    if low_cut is None:
        vals = [2.0 ** (-l) * lp_norm(dyadic_block(filt, field, l), INF) for l in filt.levels]
        return max(vals) if vals else 0.0
    from .dyadic import freq_split

    low, _ = freq_split(filt, field, low_cut - 1)
    vals = [2.0 ** (-low_cut) * lp_norm(low, INF)]
    vals += [
        2.0 ** (-l) * lp_norm(dyadic_block(filt, field, l), INF)
        for l in filt.levels
        if l >= low_cut
    ]
    return max(vals)


def active_levels(field: SpectralField, filt: DyadicFilter, rel_tol: float = 1e-10) -> list[int]:
    norms = block_norms(field, 2.0, filt)
    top = max(norms.values()) if norms else 0.0
    return [l for l, v in norms.items() if v > rel_tol * top] if top > 0 else []


def heat_characterization_ratio(
    field: SpectralField,
    s: float,
    p: float,
    r: float,
    filt: DyadicFilter,
    t_min: float | None = None,
    t_max: float | None = None,
    points_per_decade: int = 8,
) -> float:
    """Ratio of the heat-semigroup quantity to the B^{-2s}_{p,r} norm.

    The semigroup quantity is || t^s ||e^{t Lap} u||_{L^p} ||_{L^r(dt/t)},
    truncated to a log-spaced window [t_min, t_max] covering the dyadic
    scales t ~ 2^{-2l} of the field's active blocks.  Returns nan for the
    zero field (degenerate, not an error).
    """
    if s <= 0:
        raise ValueError("s must be positive")
    denom = besov_norm(field, BesovSpec(-2.0 * s, p, r), filt)
    if denom == 0.0:
        return math.nan
    active = active_levels(field, filt)
    lo, hi = min(active), max(active)
    need_min = 2.0 ** (-2.0 * (hi + 3))
    need_max = 2.0 ** (-2.0 * (lo - 3))
    if t_min is None:
        t_min = need_min
    if t_max is None:
        t_max = need_max
    if t_min > need_min or t_max < need_max:
        raise ValueError(
            "truncation window does not cover the field's active dyadic scales"
        )
    n_pts = max(int(points_per_decade * math.log10(t_max / t_min)), 8)
    ts = np.geomspace(t_min, t_max, n_pts)
    mag2 = xi_mag2(field.grid)
    samples = np.empty(n_pts)
    for i, t in enumerate(ts):
        ut = SpectralField(field.grid, field.coeffs * np.exp(-t * mag2))
        samples[i] = t**s * lp_norm(ut, p)
    if math.isinf(r):
        quantity = float(samples.max())
    else:
        # integral of g(t)^r dt/t = integral over log t
        quantity = float(np.trapezoid(samples**r, np.log(ts)) ** (1.0 / r))
    return quantity / denom
