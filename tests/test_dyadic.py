import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlp import (
    ANNULUS_HI,
    ANNULUS_LO,
    SpectralField,
    build_dyadic_filter,
    cover_range,
    default_filter,
    dyadic_block,
    freq_split,
    low_sum,
    lp_norm,
    make_grid,
)
from swlp.dyadic import _profile
from swlp.solver import random_band_field


def _full_lattice_weights(grid, l_min, l_max):
    """Oracle: phi_l as one grid-sized array per level, normalized pointwise
    over the full dyadic cover of the lattice."""
    mag = grid.xi_mag()
    lo_all, _ = cover_range(float(mag[mag > 0].min()))
    _, hi_all = cover_range(float(mag.max()))
    total = np.zeros(grid.shape)
    raw = {}
    for l in range(lo_all, hi_all + 1):
        raw[l] = _profile(mag / 2.0**l)
        total += raw[l]
    pos = total > 0
    weights = {}
    for l in range(l_min, l_max + 1):
        out = np.zeros(grid.shape)
        if l in raw:
            out[pos] = raw[l][pos] / total[pos]
        weights[l] = out
    return weights


@pytest.mark.parametrize(
    "dim, n, period",
    [(1, 64, 2 * math.pi), (2, 32, (2 * math.pi, 4 * math.pi)), (3, 16, 2 * math.pi)],
    ids=["1d", "2d_anisotropic", "3d"],
)
def test_weight_matches_full_lattice_oracle(dim, n, period):
    g = make_grid(dim, n, period)
    filt = default_filter(g)
    oracle = _full_lattice_weights(g, filt.l_min, filt.l_max)
    for l in filt.levels:
        assert np.array_equal(filt.weight(l), oracle[l]), l
    # a range narrower than the default keeps the same blocks
    narrow = build_dyadic_filter(g, filt.l_min + 1, filt.l_max - 1)
    for l in narrow.levels:
        assert np.array_equal(narrow.weight(l), oracle[l]), l


def test_band_ranges(grid2d, filt2d):
    lo, hi = filt2d.l_min, filt2d.l_max
    zero = np.zeros(grid2d.shape)
    assert np.array_equal(filt2d.band(lo - 5, lo - 1), zero)  # wholly below
    assert np.array_equal(filt2d.band(lo - 5, lo - 2), zero)  # no wrap-around of a negative index
    assert np.array_equal(filt2d.band(hi + 1, hi + 4), zero)  # wholly above
    assert np.array_equal(filt2d.band(lo + 3, lo + 1), zero)  # lo > hi
    # straddling an end keeps only the levels inside the filter
    assert np.array_equal(filt2d.band(lo - 3, lo + 1), filt2d.weight(lo) + filt2d.weight(lo + 1))
    assert np.array_equal(filt2d.band(hi - 1, hi + 3), filt2d.weight(hi - 1) + filt2d.weight(hi))
    assert np.array_equal(filt2d.band(lo - 1, hi + 1), sum(filt2d.weight(l) for l in filt2d.levels))
    assert np.array_equal(filt2d.band(lo, hi), filt2d.cumulative_below(hi + 1))


def test_random_band_field_rejects_empty_band(grid2d, filt2d, rng):
    for l_lo, l_hi in ((filt2d.l_max + 1, filt2d.l_max + 2), (filt2d.l_min - 3, filt2d.l_min - 1), (2, 1)):
        with pytest.raises(ValueError, match="holds none of the filter levels"):
            random_band_field(grid2d, rng, l_lo, l_hi, 1, filt2d)


def test_random_band_field_rejects_unknown_norm_before_drawing(grid2d, filt2d, rng):
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown normalization 'l1'"):
        random_band_field(grid2d, rng, 0, 2, 1, filt2d, norm="l1")
    assert rng.bit_generator.state == before


def test_partition_of_unity(grid2d, filt2d):
    total = np.zeros(grid2d.shape)
    for l in filt2d.levels:
        total += filt2d.weight(l)
    mask = grid2d.xi_mag() > 0
    assert np.abs(total[mask] - 1.0).max() < 1e-10
    assert np.abs(total[~mask]).max() == 0.0


def test_annulus_support(grid2d, filt2d):
    mag = grid2d.xi_mag()
    for l in filt2d.levels:
        w = filt2d.weight(l)
        active = w > 0
        if not active.any():
            continue
        assert mag[active].min() >= ANNULUS_LO * 2.0**l - 1e-12
        assert mag[active].max() <= ANNULUS_HI * 2.0**l + 1e-12


def test_block_almost_orthogonality(grid2d, filt2d):
    # blocks two or more levels apart have disjoint frequency support
    for l in filt2d.levels:
        for m in filt2d.levels:
            if abs(l - m) >= 2:
                overlap = filt2d.weight(l) * filt2d.weight(m)
                assert np.abs(overlap).max() == 0.0


def test_cover_range():
    lo, hi = cover_range(1.0)
    assert 2.0**lo * ANNULUS_HI >= 1.0 >= 2.0**hi * ANNULUS_LO
    with pytest.raises(ValueError):
        cover_range(0.0)


def test_build_filter_validation(grid2d):
    with pytest.raises(ValueError):
        build_dyadic_filter(grid2d, 5, 3)


def test_low_sum_monotone(grid2d, filt2d, rng):
    u = SpectralField.from_values(grid2d, rng.standard_normal((1, *grid2d.shape)))
    norms = [lp_norm(low_sum(filt2d, u, l), 2.0) for l in range(0, filt2d.l_max + 1)]
    assert all(b >= a - 1e-13 for a, b in zip(norms, norms[1:]))


def test_freq_split_reconstructs(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, filt2d.l_min, filt2d.l_max, 1, filt2d)
    low, high = freq_split(filt2d, u, 2)
    recon = low + high
    assert lp_norm(recon - u, 2.0) <= 1e-12 * lp_norm(u, 2.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reconstruction_random_band_fields(seed):
    g = make_grid(2, 32, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(seed)
    u = random_band_field(g, rng, filt.l_min, filt.l_max, 1, filt)
    recon = SpectralField.zeros(g, 1)
    for l in filt.levels:
        recon = recon + dyadic_block(filt, u, l)
    mean = u.mean()[0]
    err = lp_norm(recon - u, 2.0)
    assert err <= 1e-10 * max(lp_norm(u, 2.0), 1e-300) + abs(mean)


def test_block_of_single_mode(grid2d, filt2d):
    # one Fourier mode lands in the blocks whose annuli contain it, with
    # weights summing to one
    x = grid2d.coords(0)
    y = grid2d.coords(1)
    u = SpectralField.from_values(grid2d, (np.sin(4 * x) * np.ones_like(x + y))[None])
    total = SpectralField.zeros(grid2d, 1)
    active = []
    for l in filt2d.levels:
        b = dyadic_block(filt2d, u, l)
        if lp_norm(b, 2.0) > 1e-14:
            active.append(l)
        total = total + b
    lo, hi = cover_range(4.0)
    assert set(active) <= set(range(lo, hi + 1))
    assert lp_norm(total - u, 2.0) < 1e-12


def _entry_points():
    """Every public function that takes a filter and a field, called on ``(filt, u, v)``."""
    from swlp import besov, paraproduct, quasi

    s, h = besov.BesovSpec(0.5, 2, 1), besov.HybridBesovSpec(0.5, 1.0, 2, 2, 1, 1, 0)
    return {
        "dyadic_block": lambda filt, u, v: dyadic_block(filt, u, filt.l_min),
        "low_sum": lambda filt, u, v: low_sum(filt, u, filt.l_min + 1),
        "freq_split": lambda filt, u, v: freq_split(filt, u, filt.l_min),
        "block_norms_p2": lambda filt, u, v: besov.block_norms(u, 2.0, filt),
        "block_norms_p1": lambda filt, u, v: besov.block_norms(u, 1.0, filt),
        "besov_norm": lambda filt, u, v: besov.besov_norm(u, s, filt),
        "hybrid_besov_norm": lambda filt, u, v: besov.hybrid_besov_norm(u, h, filt),
        "time_besov_norm": lambda filt, u, v: besov.time_besov_norm([(0.0, u), (1.0, v)], 1.0, s, filt),
        "time_hybrid_besov_norm": lambda filt, u, v: besov.time_hybrid_besov_norm([(0.0, u), (1.0, v)], 1.0, h, filt),
        "besov_minus1_infty": lambda filt, u, v: besov.besov_minus1_infty(u, filt, low_cut=filt.l_min + 1),
        "active_levels": lambda filt, u, v: besov.active_levels(u, filt),
        "heat_characterization_ratio": lambda filt, u, v: besov.heat_characterization_ratio(u, 0.5, 2, 1, filt),
        "para": lambda filt, u, v: paraproduct.para(filt, u, v),
        "remainder": lambda filt, u, v: paraproduct.remainder(filt, u, v),
        "bony_parts": lambda filt, u, v: paraproduct.bony_parts(filt, u, v),
        "product_law_ratio": lambda filt, u, v: paraproduct.product_law_ratio(filt, u, v, s, s, s),
        "hybrid_para_ratio": lambda filt, u, v: paraproduct.hybrid_para_ratio(filt, u, v, h, h, h),
        "composition_ratio": lambda filt, u, v: paraproduct.composition_ratio(filt, u, 1.0),
        "heat_estimate_ratio": lambda filt, u, v: quasi.heat_estimate_ratio(u, [(0.0, v), (1.0, v)], s, 1.0, 0.5, filt),
        "random_band_field": lambda filt, u, v: random_band_field(
            u.grid, np.random.default_rng(0), filt.l_min, filt.l_max, 1, filt
        ),
    }


@pytest.mark.parametrize("other", ["period", "n"])
@pytest.mark.parametrize("name", list(_entry_points()))
def test_a_filter_from_another_grid_is_rejected(grid2d, rng, name, other):
    # a filter built on the same n over another period, or on another n
    g = make_grid(2, 64, (4 * math.pi, 4 * math.pi)) if other == "period" else make_grid(2, 32, grid2d.period)
    filt = default_filter(g)
    u, v = (random_band_field(grid2d, rng, 0, 2, 1, amplitude=0.5) for _ in range(2))
    with pytest.raises(ValueError, match="^grid mismatch$"):
        _entry_points()[name](filt, u, v)
