import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlp import (
    SpectralField,
    curl_norm,
    dealias,
    dealias_mask,
    dilate,
    div,
    dump_field,
    grad,
    helmholtz_split,
    inverse_transform,
    laplacian,
    load_field,
    make_grid,
    mult,
    sym_grad,
    transform,
    xi_mag2,
)
from swlp.dyadic import default_filter


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(4, 64, 1.0)
    with pytest.raises(ValueError):
        make_grid(2, 48, 1.0)
    with pytest.raises(ValueError):
        make_grid(2, 64, -1.0)
    g = make_grid(2, 64, (1.0, 2.0))
    assert g.shape == (64, 64)
    assert g.volume == pytest.approx(2.0)


def test_transform_roundtrip_and_mean():
    g = make_grid(2, 32, (2 * math.pi, 2 * math.pi))
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((1, *g.shape))
    back = inverse_transform(transform(vals, g), g)
    assert np.abs(back - vals).max() < 1e-13
    const = SpectralField.from_values(g, np.full((1, *g.shape), 2.5))
    assert const.coeffs[0][0, 0] == pytest.approx(2.5)
    assert const.mean()[0] == pytest.approx(2.5)


def test_derivatives_match_analytic():
    # f = sin(3x) cos(2y) on the 2 pi box
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    x, y = g.coords(0), g.coords(1)  # broadcastable (64,1) and (1,64)
    f = SpectralField.from_values(g, (np.sin(3 * x) * np.cos(2 * y))[None])
    gf = grad(f)
    assert np.abs(gf.values[0] - 3 * np.cos(3 * x) * np.cos(2 * y)).max() < 1e-12
    assert np.abs(gf.values[1] + 2 * np.sin(3 * x) * np.sin(2 * y)).max() < 1e-12
    lf = laplacian(f)
    assert np.abs(lf.values[0] + 13 * f.values[0]).max() < 1e-10
    assert np.abs(div(gf).coeffs - lf.coeffs).max() < 1e-12


def test_xi_uses_physical_frequencies():
    g = make_grid(1, 16, (4.0,))
    # lowest nonzero frequency is 2 pi / period
    assert g.xi(0)[1] == pytest.approx(2 * math.pi / 4.0)


def test_mult_is_dealiased_product():
    g = make_grid(1, 64, (2 * math.pi,))
    x = g.coords(0)
    u = SpectralField.from_values(g, np.sin(5 * x)[None])
    v = SpectralField.from_values(g, np.cos(7 * x)[None])
    w = mult(u, v)
    # product fits inside the retained band -> exact
    assert np.abs(w.values[0] - np.sin(5 * x) * np.cos(7 * x)).max() < 1e-13
    assert np.abs(w.coeffs[:, ~dealias_mask(g)]).max() == 0.0


def test_mult_broadcasts_scalar_vector():
    g = make_grid(2, 32, (2 * math.pi, 2 * math.pi))
    rng = np.random.default_rng(1)
    s = dealias(SpectralField.from_values(g, rng.standard_normal((1, *g.shape))))
    u = dealias(SpectralField.from_values(g, rng.standard_normal((2, *g.shape))))
    w = mult(s, u)
    assert w.ncomp == 2
    w2 = mult(u, s)
    assert np.abs(w.coeffs - w2.coeffs).max() < 1e-14


def test_sym_grad_and_curl():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    x, y = g.coords(0), g.coords(1)
    u = SpectralField.from_values(
        g, np.stack([np.sin(y) * np.ones_like(x + y), np.zeros((64, 64))])
    )
    D = sym_grad(u)
    d01 = inverse_transform(D[0, 1][None], g)[0]
    assert np.abs(d01 - 0.5 * np.cos(y) * np.ones_like(x + y)).max() < 1e-12
    assert curl_norm(u) > 0.1
    pot = grad(SpectralField.from_values(g, (np.sin(x) * np.cos(y))[None]))
    assert curl_norm(pot) < 1e-12


def test_helmholtz_split():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    rng = np.random.default_rng(2)
    u = dealias(SpectralField.from_values(g, rng.standard_normal((2, *g.shape))))
    par, sol = helmholtz_split(u)
    assert np.abs((par + sol).coeffs - u.coeffs).max() < 1e-13
    assert curl_norm(par) < 1e-12
    div_sol = div(sol)
    assert np.abs(div_sol.coeffs).max() < 1e-12


def test_dilate_indices():
    g = make_grid(1, 64, (2 * math.pi,))
    x = g.coords(0)
    u = SpectralField.from_values(g, np.sin(3 * x)[None])
    d = dilate(u, 2)
    assert np.abs(d.values[0] - np.sin(6 * x)).max() < 1e-13
    hi = SpectralField.from_values(g, np.sin(20 * x)[None])
    with pytest.raises(ValueError):
        dilate(hi, 2)


def test_dump_load_roundtrip(tmp_path):
    g = make_grid(2, 32, (1.0, 3.0))
    rng = np.random.default_rng(3)
    u = SpectralField.from_values(g, rng.standard_normal((2, *g.shape)))
    dump_field(u, tmp_path / "field", time=1.25)
    back, t = load_field(tmp_path / "field")
    assert t == 1.25
    assert back.grid == g
    assert np.abs(back.values - u.values).max() < 1e-14
    header = (tmp_path / "field.json").read_text()
    for key in ('"dim"', '"n"', '"period"', '"components"', '"time"'):
        assert key in header


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parseval(seed):
    g = make_grid(1, 64, (2 * math.pi,))
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((1, *g.shape))
    coeffs = transform(vals, g)
    assert np.mean(vals**2) == pytest.approx(np.sum(np.abs(coeffs) ** 2), rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), frac_idx=st.integers(0, 1))
def test_dealias_projection(seed, frac_idx):
    frac = (0.5, 2.0 / 3.0)[frac_idx]
    g = make_grid(2, 32, (2 * math.pi, 2 * math.pi))
    rng = np.random.default_rng(seed)
    u = SpectralField.from_values(g, rng.standard_normal((1, *g.shape)))
    d = dealias(u, frac)
    # idempotent
    assert np.abs(dealias(d, frac).coeffs - d.coeffs).max() == 0.0
    mask = dealias_mask(g, frac)
    assert np.abs(d.coeffs - u.coeffs * mask).max() == 0.0


def test_cached_operators_are_shared_and_read_only():
    g = make_grid(2, 32, (2 * math.pi, 4 * math.pi))
    filt = default_filter(g)
    mag2 = xi_mag2(g)
    assert xi_mag2(make_grid(2, 32, (2 * math.pi, 4 * math.pi))) is mag2
    assert np.allclose(mag2, g.xi_mag() ** 2, rtol=1e-14, atol=0.0)
    for arr in (mag2, dealias_mask(g), filt.shell, filt.table):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    # one shell per distinct |xi|^2, so anisotropic periods stay exact
    assert np.array_equal(np.unique(mag2)[filt.shell], mag2)
    # the filter's multipliers are gathered per call and belong to the caller
    low = filt.cumulative_below(filt.l_max + 1)
    low[...] = 0.0
    assert filt.cumulative_below(filt.l_max + 1).max() > 0.5
