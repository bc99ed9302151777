import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlp import (
    BesovSpec,
    HybridBesovSpec,
    SpectralField,
    bony_parts,
    build_dyadic_filter,
    composition_ratio,
    dealias,
    default_filter,
    dyadic_block,
    hybrid_para_ratio,
    lp_norm,
    make_grid,
    mult,
    para,
    product_law_ratio,
    remainder,
)
from swlp.besov import active_levels
from swlp.solver import random_band_field

# points per axis of the period-2pi grid in each dimension
SIZES = {1: 256, 2: 64, 3: 32}


@pytest.fixture(params=sorted(SIZES), ids=lambda d: f"{d}d")
def filt_nd(request):
    return default_filter(make_grid(request.param, SIZES[request.param], (2 * math.pi,) * request.param))


def _random_pair(grid, rng):
    u = dealias(SpectralField.from_values(grid, rng.standard_normal((1, *grid.shape))))
    v = dealias(SpectralField.from_values(grid, rng.standard_normal((1, *grid.shape))))
    return u, v


# -- oracle: one dealiased multiply per level ---------------------------------


def _mean_field(u):
    coeffs = np.zeros_like(u.coeffs)
    zero = (slice(None),) + (0,) * u.grid.dim
    coeffs[zero] = u.coeffs[zero]
    return SpectralField(u.grid, coeffs)


def _oracle_para(filt, u, v):
    out = SpectralField.zeros(u.grid, max(u.ncomp, v.ncomp))
    for q in filt.levels:
        dv = dyadic_block(filt, v, q)
        if np.abs(dv.coeffs).max() == 0.0:
            continue
        su = SpectralField(u.grid, u.coeffs * filt.band(filt.l_min, q - 2) + _mean_field(u).coeffs)
        out = out + mult(su, dv)
    return out


def _oracle_remainder(filt, u, v):
    out = mult(_mean_field(u), _mean_field(v))
    for q in filt.levels:
        du = dyadic_block(filt, u, q)
        if np.abs(du.coeffs).max() == 0.0:
            continue
        out = out + mult(du, SpectralField(v.grid, v.coeffs * filt.band(q - 1, q + 1)))
    return out


def _single_block(grid):
    """cos(11x) + sin(8x + 8y): |xi| = 11 and 11.3 lie where phi_3 alone is nonzero."""
    c = np.zeros((1, *grid.shape), dtype=complex)
    c[0, 11, 0] = c[0, -11, 0] = 0.5
    c[0, 8, 8], c[0, -8, -8] = -0.5j, 0.5j
    return SpectralField(grid, c)


def _oracle_cases(grid, filt, rng):
    def field(ncomp, mean=0.0):
        return random_band_field(grid, rng, 0, 3, ncomp, filt) + SpectralField.from_values(
            grid, np.full((ncomp, *grid.shape), mean)
        )

    return {
        "means": (field(1, 2.0), field(1, -1.5)),
        "scalar_vector": (field(1, 0.5), field(grid.dim, -0.25)),
        "vector_scalar": (field(grid.dim, 0.75), field(1, 1.0)),
        "single_block_v": (field(1, 0.5), _single_block(grid)),
        "zero": (SpectralField.zeros(grid), SpectralField.zeros(grid)),
        "zero_v": (field(1, 1.0), SpectralField.zeros(grid)),
    }


def _close(a, b):
    return np.linalg.norm(a.coeffs - b.coeffs) <= 1e-13 * np.linalg.norm(b.coeffs)


@pytest.mark.parametrize("case", ["means", "scalar_vector", "vector_scalar", "single_block_v", "zero", "zero_v"])
def test_operators_match_the_per_level_oracle(grid2d, filt2d, rng, case):
    u, v = _oracle_cases(grid2d, filt2d, rng)[case]
    oracle = (_oracle_para(filt2d, u, v), _oracle_para(filt2d, v, u), _oracle_remainder(filt2d, u, v))
    direct = (para(filt2d, u, v), para(filt2d, v, u), remainder(filt2d, u, v))
    for parts in (direct, bony_parts(filt2d, u, v)):
        assert all(_close(a, b) for a, b in zip(parts, oracle))


def test_component_mismatch_raises(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, 0, 3, 2, filt2d)
    v = SpectralField.from_values(grid2d, rng.standard_normal((3, *grid2d.shape)))
    for op in (para, remainder, bony_parts):
        with pytest.raises(ValueError):
            op(filt2d, u, v)
        with pytest.raises(ValueError):
            op(filt2d, v, u)


@pytest.mark.parametrize("v_case", ["single_block", "broadband"])
def test_operators_make_one_forward_transform(grid2d, filt2d, rng, inverse_lattices, transforms, v_case):
    # para and remainder each transform at most the blocks of both factors (7 levels each)
    # and make one forward transform, whatever the number of active levels
    u, v = _random_pair(grid2d, rng)
    if v_case == "single_block":
        v = _single_block(grid2d)
        assert [q for q in filt2d.levels if np.any(dyadic_block(filt2d, v, q).coeffs)] == [3]
    for op in (para, remainder):
        for a, b in ((u, v), (v, u)):
            inv, fwd = sum(inverse_lattices), len(transforms)
            op(filt2d, a, b)
            assert sum(inverse_lattices) - inv <= 14
            assert len(transforms) - fwd == 1


def test_bony_sum_reads_each_fields_blocks_once(grid2d, filt2d, rng, inverse_lattices, transforms):
    # the block values of u and of v are transformed once each (7 levels), and the
    # three operators read them from the fields; each operator makes one forward
    # transform of its summed products
    u, v = _random_pair(grid2d, rng)
    del inverse_lattices[:], transforms[:]
    para(filt2d, u, v), para(filt2d, v, u), remainder(filt2d, u, v)
    assert (sum(inverse_lattices), len(transforms)) == (14, 3)
    del inverse_lattices[:]
    para(filt2d, u, v), para(filt2d, v, u), remainder(filt2d, u, v)
    assert sum(inverse_lattices) == 0


def test_block_cache_is_keyed_by_filter_and_invisible(grid2d, filt2d, rng):
    u, v = _oracle_cases(grid2d, filt2d, rng)["means"]
    coeffs, values = u.coeffs.tobytes(), u.values.tobytes()
    truncated = build_dyadic_filter(grid2d, filt2d.l_min, filt2d.l_max - 1)
    # back to the first filter after the second: the cache follows the filter object
    for filt in (filt2d, truncated, filt2d):
        assert _close(para(filt, u, v), _oracle_para(filt, u, v))
        assert _close(para(filt, v, u), _oracle_para(filt, v, u))
        assert _close(remainder(filt, u, v), _oracle_remainder(filt, u, v))
    assert u.coeffs.tobytes() == coeffs
    assert u.values.tobytes() == values


def test_bony_sum_memory_budget(rng):
    """The tracemalloc peak of para + para + remainder on a 128^2 pair made from values,
    in real lattices (n^2 * 8 bytes), about 24: the two fields' cached block values (8
    each) and one block's transform at a time.  One stack per factor of each operator
    peaked at 42.1, and a stacked transform of each field's blocks at 33.0."""
    n = 128
    g = make_grid(2, n, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)

    def pair():
        # band-limited fields with a mean, made from values as the lp_toolkit benchmark makes them
        return [
            SpectralField.from_values(g, random_band_field(g, rng, filt.l_min, 4, 1, filt).values + rng.uniform(-1, 1))
            for _ in range(2)
        ]

    def bony_sum(u, v):
        return para(filt, u, v) + para(filt, v, u) + remainder(filt, u, v)

    # the first sum builds the per-grid operators that later ones reuse
    bony_sum(*pair())
    u, v = pair()
    tracemalloc.start()
    try:
        bony_sum(u, v)
        peak = tracemalloc.get_traced_memory()[1] / (8 * n**2)
    finally:
        tracemalloc.stop()
    assert peak <= 26, peak


def test_bony_identity_exact(filt_nd, rng):
    g = filt_nd.grid
    for _ in range(10):
        u, v = _random_pair(g, rng)
        tuv, tvu, r = bony_parts(filt_nd, u, v)
        prod = mult(u, v)
        err = lp_norm(tuv + tvu + r - prod, 2.0) / lp_norm(prod, 2.0)
        assert err < 1e-12


def test_bony_identity_with_means(filt_nd, rng):
    # nonzero means are carried exactly (constants flow through S, and the
    # mean-mean interaction sits in the remainder)
    g = filt_nd.grid
    u, v = _random_pair(g, rng)
    u = u + SpectralField.from_values(g, np.full((1, *g.shape), 2.0))
    v = v + SpectralField.from_values(g, np.full((1, *g.shape), -1.5))
    tuv, tvu, r = bony_parts(filt_nd, u, v)
    prod = mult(u, v)
    err = lp_norm(tuv + tvu + r - prod, 2.0) / lp_norm(prod, 2.0)
    assert err < 1e-12


def test_para_of_constant_acts_as_multiplier(grid2d, filt2d, rng):
    c = SpectralField.from_values(grid2d, np.full((1, *grid2d.shape), 3.0))
    v = dealias(random_band_field(grid2d, rng, 1, 4, 1, filt2d))
    tv = para(filt2d, c, v)
    # S_{q-1} c = c, so T_c v = c * (sum of blocks of v) = c v minus mean part
    assert lp_norm(tv - v * 3.0, 2.0) < 1e-10 * lp_norm(v, 2.0)


def test_para_bilinearity(grid2d, filt2d, rng):
    u, v = _random_pair(grid2d, rng)
    w = random_band_field(grid2d, rng, 0, 3, 1, filt2d)
    lhs = para(filt2d, u, v + w * 2.0)
    rhs = para(filt2d, u, v) + para(filt2d, u, w) * 2.0
    assert lp_norm(lhs - rhs, 2.0) < 1e-11 * max(lp_norm(lhs, 2.0), 1e-300)


def test_para_spectral_localization(grid2d, filt2d, rng):
    # T_u v with v in a single block stays within a couple of levels of it
    u = random_band_field(grid2d, rng, 0, 1, 1, filt2d)
    v = random_band_field(grid2d, rng, 4, 4, 1, filt2d)
    tv = para(filt2d, u, v)
    if lp_norm(tv, 2.0) == 0.0:
        return
    act = active_levels(tv, filt2d)
    assert set(act) <= set(range(2, 7))


def test_remainder_diagonality(grid2d, filt2d, rng):
    # R(u, v) vanishes when the inputs' frequency supports are far apart
    u = random_band_field(grid2d, rng, 0, 0, 1, filt2d)
    v = random_band_field(grid2d, rng, 4, 4, 1, filt2d)
    r = remainder(filt2d, u, v)
    assert lp_norm(r, 2.0) < 1e-12 * (lp_norm(u, 2.0) * lp_norm(v, 2.0) + 1e-300)


def test_product_law_ratios_bounded(grid2d, filt2d, rng):
    spec = BesovSpec(1.0, 2, 1)
    for _ in range(5):
        u, v = _random_pair(grid2d, rng)
        ratio = product_law_ratio(filt2d, u, v, spec, spec, spec, law="linf_symmetric")
        assert 0.0 < ratio < 10.0
    ratio = product_law_ratio(
        filt2d, u, v, BesovSpec(0.5, 2, 1), BesovSpec(0.5, 2, 1), BesovSpec(0.5, 2, 1),
        law="linf_factor",
    )
    assert 0.0 < ratio < 10.0


def test_product_law_degenerate_nan(grid2d, filt2d):
    z = SpectralField.zeros(grid2d, 1)
    spec = BesovSpec(1.0, 2, 1)
    assert math.isnan(product_law_ratio(filt2d, z, z, spec, spec, spec))


def test_product_law_rejects_unknown_law_before_any_transform(grid2d, filt2d, rng, transforms):
    u, v = _random_pair(grid2d, rng)
    spec = BesovSpec(1.0, 2, 1)
    del transforms[:]
    with pytest.raises(ValueError, match="unknown product law"):
        product_law_ratio(filt2d, u, v, spec, spec, spec, law="linf_both")
    assert transforms == []


def test_hybrid_para_ratio_zero_input(grid2d, filt2d, rng):
    z = SpectralField.zeros(grid2d, 1)
    h = HybridBesovSpec(0.5, 1.0, 2, 2, 1, 1, 1)
    assert hybrid_para_ratio(filt2d, z, z, h, h, h) == (0.0, 0.0, 0.0)
    u, v = _random_pair(grid2d, rng)
    ratios = hybrid_para_ratio(filt2d, u, v, h, h, h)
    assert len(ratios) == 3
    for r in ratios:
        assert np.isfinite(r) and r >= 0.0


def test_composition_ratio(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, 0, 3, 1, filt2d, amplitude=0.5)
    lin, quad = composition_ratio(filt2d, u, 1.0)
    assert 0.5 < lin < 3.0
    assert 0.0 < quad < 3.0
    big = random_band_field(grid2d, rng, 0, 2, 1, filt2d, amplitude=5.0)
    with pytest.raises(ValueError):
        composition_ratio(filt2d, big, 1.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bony_identity_property(seed):
    g = make_grid(2, 32, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(seed)
    u = dealias(SpectralField.from_values(g, rng.standard_normal((1, *g.shape))))
    v = dealias(SpectralField.from_values(g, rng.standard_normal((1, *g.shape))))
    tuv, tvu, r = bony_parts(filt, u, v)
    prod = mult(u, v)
    assert lp_norm(tuv + tvu + r - prod, 2.0) < 1e-12 * lp_norm(prod, 2.0)
