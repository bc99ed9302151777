"""Bony decomposition operators and empirical product/composition ratios.

The low-pass used by the paraproduct includes the mean mode, and the
remainder carries the mean*mean term, so that

    para(u, v) + para(v, u) + remainder(u, v) == dealiased(u * v)

holds exactly (to round-off) for band-limited inputs.  The recomposition
identity is stated against the dealiased product, which is the reference
product throughout the package.

Each operator is a sum over levels q of blockwise products a_q b_q, built
from the values of the blocks Delta_l u and Delta_l v alone, which
``dyadic._block_values`` makes with one inverse transform per block and caches
on the field per filter object, for these two operators alone: para(u, v),
para(v, u) and remainder(u, v) on one pair transform each field's blocks once.
The low factor S_{q-1} u of T_u v is a running sum of u's block values plus
mean(u), and the near factor of R(u, v) the sum of three neighbouring ones of v.
Every level is used: a zero block has exactly zero values.  The products are
summed in value space and dealiased once.  The dealias is linear, so this
equals the sum of the dealiased blockwise products, with one forward
transform in place of one per level.
"""

from __future__ import annotations

import math

import numpy as np

from .besov import (
    BesovSpec,
    HybridBesovSpec,
    _weighted,
    besov_norm,
    block_norms,
    hybrid_besov_norm,
    lp_norm,
)
from .dyadic import DyadicFilter, _block_values
from .grid import Grid, SpectralField, _check_pair, dealiased_from_values, mult

__all__ = [
    "para",
    "remainder",
    "bony_parts",
    "product_law_ratio",
    "hybrid_para_ratio",
    "composition_ratio",
]


def _constant(c: np.ndarray, grid: Grid) -> np.ndarray:
    """Per-component constants shaped to broadcast over a field's values."""
    return c.reshape(-1, *(1,) * grid.dim)


def para(filt: DyadicFilter, u: SpectralField, v: SpectralField) -> SpectralField:
    """T_u v = sum_q S_{q-1} u  Delta_q v, the mean of u included in S_{q-1} u.

    S_{q-1} u = mean(u) + sum_{l <= q-2} Delta_l u is a running sum of u's blocks.
    """
    _check_pair(u, v)
    g = u.grid
    du, dv = _block_values(filt, u), _block_values(filt, v)
    low = np.full(du.shape[1:], _constant(u.mean(), g))
    total = np.zeros((max(u.ncomp, v.ncomp), *g.shape))
    for q, high in enumerate(dv):
        if q >= 2:
            low += du[q - 2]
        total += low * high
    return dealiased_from_values(g, total)


def remainder(filt: DyadicFilter, u: SpectralField, v: SpectralField) -> SpectralField:
    """R(u, v) = sum_q Delta_q u (Delta_{q-1} + Delta_q + Delta_{q+1}) v.

    Blocks outside the filter range are treated as zero; the mean*mean
    product is carried here (the k = 0 mode acts as the bottom diagonal).
    """
    _check_pair(u, v)
    g = u.grid
    du, dv = _block_values(filt, u), _block_values(filt, v)
    total = np.full((max(u.ncomp, v.ncomp), *g.shape), _constant(u.mean() * v.mean(), g))
    for q, block in enumerate(du):
        total += block * dv[max(q - 1, 0) : q + 2].sum(axis=0)
    return dealiased_from_values(g, total)


def bony_parts(filt: DyadicFilter, u: SpectralField, v: SpectralField):
    """(T_u v, T_v u, R(u, v)); their sum is the dealiased product."""
    return para(filt, u, v), para(filt, v, u), remainder(filt, u, v)


def product_law_ratio(
    filt: DyadicFilter,
    u: SpectralField,
    v: SpectralField,
    spec_out: BesovSpec,
    spec_u: BesovSpec,
    spec_v: BesovSpec,
    law: str = "linf_symmetric",
) -> float:
    """||uv||_{spec_out} over the right side of the chosen product law.

    law = "linf_symmetric":  ||u||_inf ||v||_{spec_v} + ||v||_inf ||u||_{spec_u}
    law = "linf_factor":     ||u||_{spec_u} * max(||v||_{spec_v}, ||v||_inf)

    Diagnostics only; nan when the denominator degenerates.
    """
    if law not in ("linf_symmetric", "linf_factor"):
        raise ValueError(f"unknown product law {law!r}")
    num = besov_norm(mult(u, v), spec_out, filt)
    if law == "linf_symmetric":
        den = lp_norm(u, math.inf) * besov_norm(v, spec_v, filt) + lp_norm(
            v, math.inf
        ) * besov_norm(u, spec_u, filt)
    else:
        den = besov_norm(u, spec_u, filt) * max(
            besov_norm(v, spec_v, filt), lp_norm(v, math.inf)
        )
    if den == 0.0:
        return math.nan
    return num / den


def hybrid_para_ratio(
    filt: DyadicFilter,
    u: SpectralField,
    v: SpectralField,
    hspec_out: HybridBesovSpec,
    hspec_u: HybridBesovSpec,
    hspec_v: HybridBesovSpec,
) -> tuple[float, float, float]:
    """(para, remainder_high, remainder_low), each over ||u||_{hspec_u} ||v||_{hspec_v}.

    para:           ||T_u v||_{hspec_out}
    remainder_high: high-block weighted sum of ||Delta_l R(u,v)||
    remainder_low:  low-block weighted sum (split at hspec_out.l0)

    All 0.0 when an input is zero, nan when the denominator otherwise vanishes.
    T_u v and R(u, v) read the block values that u and v cache for ``filt``, so
    the two operators transform each field's blocks once between them.
    """
    den = hybrid_besov_norm(u, hspec_u, filt) * hybrid_besov_norm(v, hspec_v, filt)
    if den == 0.0:
        return (math.nan if np.any(u.coeffs) and np.any(v.coeffs) else 0.0,) * 3
    num_para = hybrid_besov_norm(para(filt, u, v), hspec_out, filt)
    r = remainder(filt, u, v)
    tables = {p: block_norms(r, p, filt) for p in {hspec_out.p_high, hspec_out.p_low}}
    high = [l for l in filt.levels if l > hspec_out.l0]
    low = [l for l in filt.levels if l <= hspec_out.l0]
    num_high = _weighted(tables[hspec_out.p_high], high, hspec_out.s_high, 1.0)
    num_low = _weighted(tables[hspec_out.p_low], low, hspec_out.s_low, 1.0)
    return num_para / den, num_high / den, num_low / den


def composition_ratio(
    filt: DyadicFilter,
    field: SpectralField,
    s: float,
    p: float = 2.0,
) -> tuple[float, float]:
    """Diagnostic for the exponential composition bound with F(x) = e^x - 1.

    Returns ||e^u - 1||_{B^s_{p,1}} / ||u|| and the quadratic-part variant
    ||e^u - 1 - u|| / ||u||^2.  Requires ||u||_inf <= 2 to stay in a fixed
    composition regime.
    """
    linf = lp_norm(field, math.inf)
    if linf > 2.0:
        raise ValueError(f"||u||_inf = {linf:.3g} exceeds the composition bound 2")
    expm1 = dealiased_from_values(field.grid, np.expm1(field.values))
    spec = BesovSpec(s, p, 1.0)
    den = besov_norm(field, spec, filt)
    if den == 0.0:
        return math.nan, math.nan
    return besov_norm(expm1, spec, filt) / den, besov_norm(expm1 - field, spec, filt) / den**2
