import math
import tracemalloc
import warnings

import numpy as np
import pytest

from swlp import (
    SpectralField,
    friction_exact_residual,
    gaussian_bump,
    heat_estimate_ratio,
    heat_evolve,
    kernel_decay_fit,
    kernel_rate,
    log_density,
    make_grid,
    max_principle_check,
    quasi_residual,
    velocity_from_density,
)
from swlp.besov import BesovSpec, lp_norm
from swlp.dyadic import default_filter
from swlp.grid import dealias, div, grad, mult
from swlp.quasi import _system_residual
from swlp.solver import random_band_field

from oracles import curl_norm, sym_grad


def test_sympy_pressureless_identity():
    """Symbolic proof: for any positive f with d_t f = mu d_xx f, the pair
    (rho, u) = (f, -mu d_x ln f) solves mass and pressureless momentum
    exactly (viscous stress mu rho d_x u in one dimension)."""
    import sympy as sp

    t, x, mu = sp.symbols("t x mu", positive=True)
    f = sp.Function("f", positive=True)(t, x)
    heat = {sp.Derivative(f, t): mu * sp.Derivative(f, x, 2)}

    rho = f
    u = -mu * sp.diff(sp.log(f), x)

    mass = sp.diff(rho, t) + sp.diff(rho * u, x)
    mass = mass.subs(heat).doit().subs(heat).doit()
    assert sp.simplify(mass) == 0

    mom = sp.diff(rho * u, t) + sp.diff(rho * u * u, x) - sp.diff(mu * rho * sp.diff(u, x), x)
    # substitute the heat equation for every time derivative that appears
    for _ in range(3):
        mom = mom.subs(heat).doit()
    assert sp.simplify(mom) == 0


def test_sympy_perturbation_mass_equation():
    """Symbolic check of the reformulated mass equation: with
    rho = f e^h, u = u1 + w, u1 = -mu d_x ln f and d_t f = mu d_xx f,
    the exact mass equation is equivalent to

        d_t h = -u d_x h - d_x w - w d_x ln f

    (note the sign of the w d_x ln f coupling)."""
    import sympy as sp

    t, x, mu = sp.symbols("t x mu", positive=True)
    f = sp.Function("f", positive=True)(t, x)
    h = sp.Function("h")(t, x)
    w = sp.Function("w")(t, x)
    heat = {sp.Derivative(f, t): mu * sp.Derivative(f, x, 2)}

    u1 = -mu * sp.diff(sp.log(f), x)
    u = u1 + w
    rho = f * sp.exp(h)

    claimed_ht = -u * sp.diff(h, x) - sp.diff(w, x) - w * sp.diff(sp.log(f), x)

    mass = sp.diff(rho, t) + sp.diff(rho * u, x)
    mass = mass.subs({sp.Derivative(h, t): claimed_ht}).subs(heat).doit()
    for _ in range(3):
        mass = mass.subs(heat).doit()
    assert sp.simplify(mass) == 0

    # the opposite coupling sign does not close the equation
    wrong_ht = -u * sp.diff(h, x) - sp.diff(w, x) + w * sp.diff(sp.log(f), x)
    bad = sp.diff(rho, t) + sp.diff(rho * u, x)
    bad = bad.subs({sp.Derivative(h, t): wrong_ht}).subs(heat).doit()
    for _ in range(3):
        bad = bad.subs(heat).doit()
    assert sp.simplify(bad) != 0


def test_heat_evolve_single_mode():
    g = make_grid(1, 64, (2 * math.pi,))
    x = g.coords(0)
    q0 = SpectralField.from_values(g, (0.3 * np.cos(2 * x))[None])
    q1 = heat_evolve(q0, 0.7, 0.5)
    expected = 0.3 * math.exp(-0.7 * 4 * 0.5) * np.cos(2 * x)
    assert np.abs(q1.values[0] - expected).max() < 1e-14
    # semigroup: evolving t = 0.5 and then 0.25 more is evolving t = 0.75
    later = heat_evolve(q1, 0.7, 0.25)
    assert np.abs(later.coeffs - heat_evolve(q0, 0.7, 0.75).coeffs).max() < 1e-15


def test_heat_evolve_validation():
    g = make_grid(1, 64, (2 * math.pi,))
    q0 = SpectralField.zeros(g, 1)
    with pytest.raises(ValueError):
        heat_evolve(q0, -1.0, 0.1)
    with pytest.raises(ValueError):
        heat_evolve(q0, 1.0, -0.1)
    low = SpectralField.from_values(g, np.full((1, 64), -0.9999999))
    with pytest.raises(ValueError):
        heat_evolve(low, 1.0, 0.0)
    nan = SpectralField.from_values(g, np.full((1, 64), np.nan))
    with pytest.raises(ValueError):
        heat_evolve(nan, 1.0, 0.0)


def test_gaussian_bump_amplitude_and_mean():
    g = make_grid(2, 128, (64.0, 64.0))
    q0 = gaussian_bump(g, 0.5, 1.0, 0.5)
    assert q0.values[0].max() == pytest.approx(0.5, rel=1e-12)
    assert q0.values[0].min() > -1e-10
    assert q0.mean()[0] > 0


def test_gaussian_bump_negative_amplitude_is_a_dip():
    g = make_grid(2, 128, (64.0, 64.0))
    dip = gaussian_bump(g, -0.5, 1.0, 0.1)
    assert dip.values[0].min() == pytest.approx(-0.5, abs=1e-12)
    assert np.abs(dip.coeffs + gaussian_bump(g, 0.5, 1.0, 0.1).coeffs).max() < 1e-15
    assert np.abs(gaussian_bump(g, 0.0, 1.0, 0.1).coeffs).max() == 0.0


@pytest.mark.parametrize("dim, n", [(1, 256), (3, 32)], ids=["1d", "3d"])
def test_gaussian_bump_in_1d_and_3d(dim, n):
    g = make_grid(dim, n, 16.0)
    bump = gaussian_bump(g, 0.5, 1.0, 0.5)
    centre = (n // 2,) * dim  # x = period/2 on every axis
    assert np.unravel_index(np.argmax(bump.values[0]), g.shape) == centre
    assert bump.values[0][centre] == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(gaussian_bump(g, -0.5, 1.0, 0.5).coeffs, -bump.coeffs)


def test_velocity_is_gradient():
    g = make_grid(2, 128, (64.0, 64.0))
    q0 = gaussian_bump(g, 0.4, 1.0, 0.5)
    u1 = velocity_from_density(heat_evolve(q0, 0.5, 1.0), 0.5)
    assert curl_norm(u1) < 1e-10


def test_max_principle():
    g = make_grid(2, 128, (64.0, 64.0))
    q0 = gaussian_bump(g, 0.5, 1.0, 0.5)
    lo0 = 1.0 + q0.values[0].min()
    hi0 = 1.0 + q0.values[0].max()
    for t in (0.1, 1.0, 10.0):
        lo, hi, ok = max_principle_check(heat_evolve(q0, 0.5, t), lo0, hi0)
        assert ok
        assert lo >= lo0 - 1e-8 and hi <= hi0 + 1e-8


def test_log_density_warns_on_a_truncated_tail():
    """The warning fires, once, when the log's tail beyond the dealiased band
    carries more than LOG_TAIL_TOL of its L2 mass, and not for a smooth bump."""
    g = make_grid(2, 64, 16.0)
    with pytest.warns(UserWarning, match="log-density truncation") as record:
        log_density(gaussian_bump(g, 0.5, 1.0, 0.1))
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_density(gaussian_bump(g, 0.5, 10.0, 0.1))


def test_quasi_residual_refinement():
    res = {}
    for n in (64, 128):
        g = make_grid(1, n, (2 * math.pi,))
        q1 = heat_evolve(gaussian_bump(g, 0.8, 1.0, 0.02), 0.1, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res[n] = max(quasi_residual(q1, 0.1))
    assert res[128] < res[64] / 10.0


def test_friction_relation_certification():
    g = make_grid(1, 512, (2 * math.pi,))
    q0 = gaussian_bump(g, 0.3, 0.5, 0.5)
    q1 = heat_evolve(q0, 0.5, 0.2)
    rep = friction_exact_residual(q1, 0.5, Fr=1.0, r=2.0)  # r mu Fr^2 = 1
    assert rep.certified and rep.residual < 1e-8
    rep2 = friction_exact_residual(q1, 0.5, Fr=1.0, r=1.0)
    assert not rep2.certified
    assert rep2.residual > 1e-3


def test_kernel_rate_formula():
    assert kernel_rate(2, 0, math.inf) == pytest.approx(1.0)
    assert kernel_rate(2, 1, math.inf) == pytest.approx(1.5)
    assert kernel_rate(1, 0, 2.0) == pytest.approx(0.25)


def test_kernel_decay_fit_matches_rate():
    g = make_grid(1, 256, (64.0,))
    q0 = gaussian_bump(g, 0.5, 1.0, 0.1)
    for alpha, p in ((0, math.inf), (1, math.inf), (0, 2.0)):
        fitted = kernel_decay_fit(q0, 0.1, alpha, p, (2.0, 20.0))
        assert fitted == pytest.approx(kernel_rate(1, alpha, p), rel=0.1)


def test_log_density_floor():
    g = make_grid(1, 64, (2 * math.pi,))
    q = SpectralField.from_values(g, np.full((1, 64), -0.9999995))
    with pytest.raises(ValueError):
        log_density(q)


def test_heat_estimate_ratio_finite():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(5)
    u0 = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
    snaps = [(float(t), random_band_field(g, rng, 0, 3, 1, filt, norm="l2"))
             for t in np.linspace(0, 1, 17)]
    ends = heat_estimate_ratio(u0, snaps, BesovSpec(1.0, 2, 1), 1.0, 0.5, filt)
    assert len(ends) == 2
    for r in ends:
        assert 0.0 < r < 10.0


@pytest.mark.parametrize(
    "p, ends, bound",
    [(1, (0.5045512297169001, 1.546882723510914), 12), (2, (0.5027204806341499, 1.5484117239152262), 12)],
)
def test_heat_estimate_ratio_holds_no_duhamel_field(p, ends, bound):
    """The tracemalloc peak of the ratio over 33 snapshots at 64^2, in real lattices
    (n^2 * 8 bytes): each Duhamel field gives its row of block norms as it is made and is
    dropped, and a p != 2 block norm takes one block's values at a time, caching none on
    the caller's snapshots.  Keeping every field peaked at 68 lattices for p = 2 and 544
    for p = 1, with the same ratios, caching each snapshot's stack at 265 for p = 1, and
    one stack of every block per norm at 26.6."""
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(5)
    u0 = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
    snaps = [(float(t), random_band_field(g, rng, 0, 3, 1, filt, norm="l2")) for t in np.linspace(0, 1, 33)]
    tracemalloc.start()
    try:
        got = heat_estimate_ratio(u0, snaps, BesovSpec(1.0, p, 1), 1.0, 0.5, filt)
        peak = tracemalloc.get_traced_memory()[1] / (8 * g.n**2)
    finally:
        tracemalloc.stop()
    assert got == ends
    assert peak <= bound


@pytest.mark.parametrize("times", [[0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.5, 1.5]], ids=["repeated", "decreasing"])
def test_heat_estimate_rejects_bad_times_before_the_solve(counted, times):
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(5)
    u0 = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
    snaps = [(t, random_band_field(g, rng, 0, 3, 1, filt, norm="l2")) for t in times]
    transforms = counted("grid", "transform")
    # the Duhamel solve starts by fetching |xi|^2
    multipliers = counted("grid", "xi_mag2")
    with pytest.raises(ValueError, match="strictly increasing"):
        heat_estimate_ratio(u0, snaps, BesovSpec(1.0, 2, 1), 1.0, 0.5, filt)
    assert transforms == [] and multipliers == []


def _one_product(rho, u, drho_dt, du_dt):
    """d_t(rho u) as one dealiased product, P(d_t rho u + rho d_t u)."""
    return dealias(SpectralField.from_values(u.grid, drho_dt.values * u.values + rho.values * du_dt.values))


def _two_products(rho, u, drho_dt, du_dt):
    """d_t(rho u) as P(d_t rho u) + P(rho d_t u): equal to ``_one_product`` but for round-off,
    P being linear."""
    return mult(drho_dt, u) + mult(rho, du_dt)


def _whole_field_residual(rho, u, drho_dt, du_dt, mu, pressure, drag, time_term=_one_product):
    """The system as whole-field terms summed left to right, each term's norm from its own
    field: the formula ``_system_residual`` builds one entry at a time."""
    g = u.grid
    dim = g.dim
    rho_u = mult(rho, u)
    outer = u.values[:, None] * rho_u.values[None, :]
    conv_rows = dealias(SpectralField.from_values(g, outer.reshape(dim * dim, *g.shape))).coeffs
    stress = SpectralField(g, sym_grad(u).reshape(dim * dim, *u.coeffs.shape[1:]))
    visc_rows = mult(rho, stress).coeffs

    def row_div(rows):
        return SpectralField(g, np.concatenate([div(SpectralField(g, rows[i * dim : (i + 1) * dim])).coeffs for i in range(dim)]))

    mass_terms = [div(rho_u)]
    mom_terms = [row_div(conv_rows), -(row_div(visc_rows) * mu), grad(rho) * pressure, rho_u * drag]
    if drho_dt is not None:
        mass_terms.insert(0, drho_dt)
        mom_terms.insert(0, time_term(rho, u, drho_dt, du_dt))
    mass = sum(mass_terms[1:], mass_terms[0])
    mom = sum(mom_terms[1:], mom_terms[0])

    def rel(total, terms):
        return lp_norm(total, 2.0) / max(lp_norm(t, 2.0) for t in terms)

    return mass, mom, rel(mass, mass_terms), rel(mom, mom_terms)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("with_rates", [True, False], ids=["rates", "no_rates"])
@pytest.mark.parametrize("pressure, drag", [(0.7, 0.3), (0.0, 0.0)], ids=["pressure_drag", "neither"])
def test_system_residual_matches_the_whole_field_sum(dim, n, with_rates, pressure, drag):
    """Built one entry at a time, the residual fields equal the whole-field sum
    (np.array_equal), and the relative residuals agree to 1e-13.  The time term
    d_t(rho u) is one dealiased product; the sum with its two products P(d_t rho u) +
    P(rho d_t u) differs only by round-off, at most 0.92 eps of the largest momentum
    coefficient over these cases (3-D)."""
    g = make_grid(dim, n, tuple(2 * math.pi * (1 + a) for a in range(dim)))
    rng = np.random.default_rng(dim)

    def field(ncomp, scale):
        return dealias(SpectralField.from_values(g, scale * rng.standard_normal((ncomp, *g.shape))))

    rho = field(1, 0.1).with_mean(1.0)
    u = field(dim, 1.0)
    rates = (field(1, 1.0), field(dim, 1.0)) if with_rates else (None, None)
    got = _system_residual(rho, u, (lambda: rates) if with_rates else None, 0.1, pressure, drag)
    want = _whole_field_residual(rho, u, *rates, 0.1, pressure, drag)
    assert np.array_equal(got[0].coeffs, want[0].coeffs)
    assert np.array_equal(got[1].coeffs, want[1].coeffs)
    assert got[2] == pytest.approx(want[2], rel=1e-13, abs=0)
    assert got[3] == pytest.approx(want[3], rel=1e-13, abs=0)
    if with_rates:
        two = _whole_field_residual(rho, u, *rates, 0.1, pressure, drag, time_term=_two_products)[1].coeffs
        mom = got[1].coeffs
        assert np.abs(mom - two).max() <= 2 * np.finfo(float).eps * np.abs(mom).max()
    # a random state is far from a solution: the residuals are not round-off
    assert min(got[2:]) > 1e-3
