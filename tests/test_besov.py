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
    active_levels,
    besov_minus1_infty,
    besov_norm,
    block_norms,
    default_filter,
    dyadic_block,
    freq_split,
    grad,
    heat_characterization_ratio,
    hybrid_besov_norm,
    lp_norm,
    make_grid,
    time_besov_norm,
    time_hybrid_besov_norm,
)
from swlp.dyadic import _block_values
from swlp.grid import inverse_transform
from swlp.paraproduct import para
from swlp.solver import random_band_field
from test_grid import GRIDS


def test_spec_validation():
    with pytest.raises(ValueError):
        BesovSpec(1.0, 0.5, 1)
    with pytest.raises(ValueError):
        BesovSpec(1.0, 2, 0.0)
    HybridBesovSpec(0.0, 1.0, 2, 2, 1, 1, 0)


def test_lp_norm_normalization():
    # (volume * mean |u|^p)^{1/p}: a constant c on a box of volume V gives
    # c V^{1/p}
    g = make_grid(1, 16, (5.0,))
    u = SpectralField.from_values(g, np.full((1, 16), 3.0))
    assert lp_norm(u, 2.0) == pytest.approx(3.0 * math.sqrt(5.0))
    assert lp_norm(u, math.inf) == pytest.approx(3.0)


def test_single_mode_besov_oracle():
    # u = sin(4x) on the 2 pi circle: |u|_L2 = sqrt(pi), block weights for
    # |xi| = 4 sum to one, so B^s_{2,1} = sum_l 2^{ls} w_l(4) sqrt(pi)
    g = make_grid(1, 64, (2 * math.pi,))
    filt = default_filter(g)
    x = g.coords(0)
    u = SpectralField.from_values(g, np.sin(4 * x)[None])
    got = besov_norm(u, BesovSpec(1.5, 2, 1), filt)
    expected = 0.0
    for l in filt.levels:
        w = filt.weight(l)
        idx = np.argmin(np.abs(g.xi(0) - 4.0))
        expected += 2.0 ** (1.5 * l) * w[idx] * math.sqrt(math.pi)
    assert got == pytest.approx(expected, rel=1e-12)


def test_homogeneity_and_triangle(grid2d, filt2d, rng):
    spec = BesovSpec(0.5, 2, 1)
    u = random_band_field(grid2d, rng, 0, 3, 1, filt2d)
    v = random_band_field(grid2d, rng, 1, 4, 1, filt2d)
    nu = besov_norm(u, spec, filt2d)
    assert besov_norm(u * 3.0, spec, filt2d) == pytest.approx(3.0 * nu, rel=1e-12)
    assert besov_norm(u + v, spec, filt2d) <= nu + besov_norm(v, spec, filt2d) + 1e-12


def test_r_monotonicity(grid2d, filt2d, rng):
    # l^1 over blocks dominates l^2 dominates sup
    u = random_band_field(grid2d, rng, 0, 4, 1, filt2d)
    n1 = besov_norm(u, BesovSpec(0.5, 2, 1), filt2d)
    n2 = besov_norm(u, BesovSpec(0.5, 2, 2), filt2d)
    ninf = besov_norm(u, BesovSpec(0.5, 2, math.inf), filt2d)
    assert n1 >= n2 >= ninf


def test_hybrid_matches_plain_when_indices_agree(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, 0, 3, 1, filt2d)
    plain = besov_norm(u, BesovSpec(0.75, 2, 1), filt2d)
    hyb = hybrid_besov_norm(u, HybridBesovSpec(0.75, 0.75, 2, 2, 1, 1, 1), filt2d)
    assert hyb == pytest.approx(plain, rel=1e-12)


def test_hybrid_splits_at_l0(grid2d, filt2d, rng):
    low = random_band_field(grid2d, rng, 0, 0, 1, filt2d)
    hspec = HybridBesovSpec(1.0, 3.0, 2, 2, 1, 1, 1)
    # everything below the crossover: only (s_low, p_low) matters
    assert hybrid_besov_norm(low, hspec, filt2d) == pytest.approx(
        besov_norm(low, BesovSpec(1.0, 2, 1), filt2d), rel=1e-10
    )


def test_bernstein_per_block(grid2d, filt2d, rng):
    # ||grad Delta_l u||_p <= C 2^l ||Delta_l u||_p with C ~ annulus top
    u = random_band_field(grid2d, rng, 1, 4, 1, filt2d)
    for l in range(1, 5):
        b = dyadic_block(filt2d, u, l)
        nb = lp_norm(b, 2.0)
        if nb < 1e-14:
            continue
        ng = lp_norm(grad(b), 2.0)
        assert ng <= 2.7 * 2.0**l * nb


def test_time_norms_sup_and_integral(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, 0, 3, 1, filt2d)
    spec = BesovSpec(0.5, 2, 1)
    snaps = [(0.0, u), (1.0, u * 0.5), (2.0, u * 0.25)]
    sup = time_besov_norm(snaps, math.inf, spec, filt2d)
    # sup in time per block, then summed: equals the t=0 norm here
    assert sup == pytest.approx(besov_norm(u, spec, filt2d), rel=1e-12)
    l1 = time_besov_norm(snaps, 1.0, spec, filt2d)
    # trapezoid of (1, .5, .25) on unit intervals = 1.125
    assert l1 == pytest.approx(1.125 * besov_norm(u, spec, filt2d), rel=1e-12)
    hyb = time_hybrid_besov_norm(snaps, 1.0, HybridBesovSpec(0.5, 0.5, 2, 2, 1, 1, 0), filt2d)
    assert hyb == pytest.approx(l1, rel=1e-12)


def test_time_norm_rejects_bad_times(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, 0, 2, 1, filt2d)
    with pytest.raises(ValueError):
        time_besov_norm([(1.0, u), (0.5, u)], 1.0, BesovSpec(0.5, 2, 1), filt2d)


def test_besov_minus1_infty_modes(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, 0, 3, 2, filt2d)
    hom = besov_minus1_infty(u, filt2d)
    assert hom > 0
    nonhom = besov_minus1_infty(u, filt2d, low_cut=2)
    assert nonhom > 0
    # the pieces against the blocks as fields
    blocks = {l: 2.0 ** (-l) * lp_norm(dyadic_block(filt2d, u, l), math.inf) for l in filt2d.levels}
    assert hom == pytest.approx(max(blocks.values()), rel=1e-14)
    low = 2.0**-2 * lp_norm(freq_split(filt2d, u, 1)[0], math.inf)
    assert nonhom == pytest.approx(max([low] + [v for l, v in blocks.items() if l >= 2]), rel=1e-14)


@pytest.mark.parametrize("ncomp", [1, 2])
def test_block_norms_read_the_cached_block_values(grid2d, rng, inverse_lattices, ncomp):
    # p = 1 and p = inf each transform every block (7 levels) and keep none on the field;
    # para makes the one cached stack, and a second para reads it; the norms have the
    # bits of one transform per block
    filt = default_filter(grid2d)
    f = SpectralField.from_values(grid2d, rng.standard_normal((ncomp, *grid2d.shape)))
    del inverse_lattices[:]
    norms = {p: block_norms(f, p, filt) for p in (1.0, math.inf)}
    assert sum(inverse_lattices) == 14 * ncomp
    para(filt, f, f)
    assert sum(inverse_lattices) == 21 * ncomp
    para(filt, f, f)
    assert sum(inverse_lattices) == 21 * ncomp
    for l in filt.levels:
        values = inverse_transform(f.coeffs * filt.weight(l), grid2d)
        mag = np.sqrt(np.sum(np.square(values), axis=0)) if ncomp > 1 else np.abs(values[0])
        assert norms[1.0][l] == float(np.mean(mag) * grid2d.volume), l
        assert norms[math.inf][l] == float(mag.max()), l
    with pytest.raises(ValueError, match="read-only"):
        _block_values(filt, f)[0, 0, 0, 0] = 1.0
    # the tracemalloc peak of a p = 1 table at 128^2, in complex lattices (n^2 * 16 bytes):
    # one block at a time; one stack of every block peaked at 12.5 (one component) and 24.0 (two)
    g = make_grid(2, 128, (32.0, 32.0))
    filt = default_filter(g)
    f = SpectralField.from_values(g, rng.standard_normal((ncomp, *g.shape)))
    block_norms(f, 1.0, filt)  # builds the per-grid operators that later calls reuse
    tracemalloc.start()
    try:
        block_norms(f, 1.0, filt)
        peak = tracemalloc.get_traced_memory()[1] / (16 * g.n**2)
    finally:
        tracemalloc.stop()
    assert peak <= 3.5, peak


def _white_noise(grid, ncomp):
    return SpectralField.from_values(grid, np.random.default_rng(5).standard_normal((ncomp, *grid.shape)))


@pytest.mark.parametrize("kind", ["scalar", "two_component", "undealiased_grad"])
def test_l2_norms_by_parseval_match_collocation(kind):
    for name, g in GRIDS.items():
        filt = default_filter(g)
        f = {
            "scalar": lambda: _white_noise(g, 1),
            "two_component": lambda: _white_noise(g, 2),
            # Nyquist modes of a gradient are not Hermitian: sum |c|^2 is off there
            "undealiased_grad": lambda: grad(_white_noise(g, 1)),
        }[kind]()

        def collocation(field):
            return math.sqrt(g.volume * float(np.mean(np.sum(field.values**2, axis=0))))

        assert lp_norm(f, 2.0) == pytest.approx(collocation(f), rel=1e-13), name
        norms = block_norms(f, 2.0, filt)
        for l in filt.levels:
            assert norms[l] == pytest.approx(collocation(dyadic_block(filt, f, l)), rel=1e-13), (name, l)
        if kind == "undealiased_grad":
            # plain sum |c|^2 counts the Nyquist planes: off by 1.8 % in 2-D and 11 % in 3-D;
            # the 1-D plane is one mode of 64, which holds 0.8 % of this field's plain power
            plain = math.sqrt(g.volume * float(np.sum(np.abs(f.coeffs) ** 2)))
            assert abs(plain / collocation(f) - 1.0) > (5e-3 if g.dim == 1 else 1e-2), name


def test_active_levels(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, 2, 3, 1, filt2d)
    act = active_levels(u, filt2d)
    assert set(act) <= {1, 2, 3, 4}
    assert 2 in act or 3 in act


def test_heat_characterization_two_sided(grid2d, filt2d, rng):
    u = random_band_field(grid2d, rng, 0, 3, 1, filt2d)
    ratio = heat_characterization_ratio(u, 0.5, 2, 1, filt2d)
    assert 0.05 < ratio < 20.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_block_norm_sum_vs_l2(seed):
    # almost-orthogonality: sum of squared block L2 norms ~ ||u||_L2^2
    g = make_grid(2, 32, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(seed)
    u = random_band_field(g, rng, filt.l_min + 1, filt.l_max - 1, 1, filt)
    total = sum(v**2 for v in block_norms(u, 2.0, filt).values())
    l2 = lp_norm(u, 2.0) ** 2
    if l2 > 0:
        assert 0.3 * l2 <= total <= 1.5 * l2
