import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlp import (
    SpectralField,
    dealias,
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
    transform,
    xi_mag2,
)
from swlp.dyadic import _block_values, default_filter
from swlp.grid import (
    _divergence,
    _heat_multiplier,
    _i_xi,
    _in_halves,
    _jacobian,
    _jacobian_upper,
    _workers,
    multiplied_values,
    dealiased_from_values,
    parseval_power,
    parseval_sum,
)
from swlp.paraproduct import para
from swlp.quasi import gaussian_bump, heat_evolve
from swlp.solver import SolverConfig, _implicit_multipliers, _implicit_solve, initial_state, step

from oracles import component, curl_norm, dealias_mask, sym_grad

GRIDS = {
    "1d": make_grid(1, 64, (4 * math.pi,)),
    "2d": make_grid(2, 64, (2 * math.pi, 2 * math.pi)),
    "3d": make_grid(3, 16, (2 * math.pi, 4 * math.pi, 2 * math.pi)),
}
on_grids = pytest.mark.parametrize("g", GRIDS.values(), ids=GRIDS.keys())
# at 2^16 lattice points and above every FFT pass runs on two threads
THREADED = {
    "2d_256": make_grid(2, 256, (2 * math.pi, 4 * math.pi)),
    "3d_64": make_grid(3, 64, (2 * math.pi, 4 * math.pi, 2 * math.pi)),
}


def numpy_values(coeffs, g):
    """numpy's real part of the full-lattice inverse DFT: the reference for ``inverse_transform``."""
    return np.real(np.fft.ifftn(coeffs, axes=tuple(range(-g.dim, 0)), norm="forward"))


def plane_wave(g):
    """f = prod_a cos(kappa_a x_a + phi_a): the wavenumbers kappa_a, the phases and f."""
    kappa = [2 * math.pi * m / a for m, a in zip((3, 2, 1), g.period)]
    phase = [k * g.coords(a) + phi for a, (k, phi) in enumerate(zip(kappa, (0.3, 1.1, -0.7)))]
    f = SpectralField.from_values(g, np.broadcast_to(math.prod(np.cos(x) for x in phase), g.shape)[None])
    return kappa, phase, f


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
    # the forward transform is numpy's fftn, and the inverse kernel numpy's real part on
    # every kind of array the package makes, Nyquist slabs included (n = 8 has the
    # largest share of them)
    small = [make_grid(dim, 8, (2 * math.pi, 3.0, 5.0)[:dim]) for dim in (1, 2, 3)]
    for g in (*GRIDS.values(), *small):
        u = SpectralField.from_values(g, rng.standard_normal((g.dim, *g.shape)))
        ref = np.fft.fftn(u.values, axes=tuple(range(-g.dim, 0)), norm="forward")
        assert np.abs(u.coeffs - ref).max() <= 1e-14 * np.abs(ref).max(), (g, "forward")
        # and it is exactly Hermitian: c(-k) = conj(c(k)) to the bit
        axes = tuple(range(-g.dim, 0))
        assert np.array_equal(np.roll(np.flip(u.coeffs, axes), 1, axes), np.conj(u.coeffs)), (g, "Hermitian")
        par, sol = helmholtz_split(u)
        filt = default_filter(g)
        multipliers = [xi_mag2(g), dealias_mask(g), *(filt.weight(l) for l in range(filt.l_min, filt.l_max + 1))]
        cases = {
            "noise": u.coeffs,
            "jacobian": _jacobian(u.coeffs, g),
            "irrotational": par.coeffs,
            "solenoidal": sol.coeffs,
            "sym_grad": sym_grad(u),
            "bump": gaussian_bump(g, 0.5, 1.0, 0.1).coeffs,
        }
        for name, coeffs in cases.items():
            ref = numpy_values(coeffs, g)
            back = inverse_transform(coeffs, g)
            assert np.abs(back - ref).max() <= 1e-14 * np.abs(ref).max(), (g, name)
            # working in the coefficients in place gives the same bits
            assert np.array_equal(inverse_transform(coeffs.copy(), g, overwrite=True), back), (g, name)
        ref = numpy_values(np.stack([m * u.coeffs for m in multipliers]), g)
        stack = multiplied_values(u.coeffs, multipliers, g)
        assert np.abs(stack - ref).max() <= 1e-14 * np.abs(ref).max(), (g, "stack")
        # one NaN value makes its whole component NaN, and only that component
        nan = u.values.copy()
        nan[(0,) * (g.dim + 1)] = np.nan
        back = inverse_transform(transform(nan, g), g)
        assert np.isnan(back[0]).all() and np.isfinite(back[1:]).all()
    # the threaded passes give the bits of numpy's single-threaded kernels, the forward
    # one for 0 < k_last < n/2: on the planes k_last = 0 and -n/2 the completion sets
    # half of the modes to their mirrors' conjugates
    for g, ncomp in zip(THREADED.values(), (3, 1)):
        assert _workers(g) == 2
        axes = tuple(range(-g.dim, 0))
        vals = rng.standard_normal((ncomp, *g.shape))
        coeffs = transform(vals, g)
        inner = (Ellipsis, slice(1, g.n // 2))
        assert np.array_equal(coeffs[inner], np.fft.rfftn(vals, axes=axes, norm="forward")[inner])
        assert np.array_equal(np.roll(np.flip(coeffs, axes), 1, axes), np.conj(coeffs))
        ref = np.fft.fftn(vals, axes=axes, norm="forward")
        assert np.abs(coeffs - ref).max() <= 1e-14 * np.abs(ref).max()
        back = inverse_transform(coeffs, g)
        half = coeffs[..., : g.n // 2 + 1]
        assert np.array_equal(back, np.fft.irfftn(half, s=g.shape, axes=axes, norm="forward"))
        assert np.abs(back - vals).max() < 1e-13
        grad_coeffs = _jacobian(coeffs[0], g)
        ref = numpy_values(grad_coeffs, g)
        back = inverse_transform(grad_coeffs, g)
        assert np.abs(back - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(inverse_transform(grad_coeffs.copy(), g, overwrite=True), back)


def test_threaded_transforms_from_concurrent_callers():
    """Callers on more threads than cores share the FFT pool: each gets its own result, bit for bit."""
    g = THREADED["2d_256"]
    rng = np.random.default_rng(3)
    fields = [rng.standard_normal((2, *g.shape)) for _ in range(4)]
    expected = [(transform(v, g), inverse_transform(transform(v, g), g)) for v in fields]

    multipliers = _implicit_multipliers(g, SolverConfig(mu=0.5, a=0.01, dt=0.01))
    expected = [(c, values, _implicit_solve(c, g, *multipliers)) for c, values in expected]

    def all_three(v):
        c = transform(v, g)
        return c, inverse_transform(c, g), _implicit_solve(c, g, *multipliers)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(fields)) as pool:
            got = [f.result(timeout=60) for f in [pool.submit(all_three, v) for v in fields for _ in range(3)]]
    finally:
        sys.setswitchinterval(interval)
    for results, results_ref in zip(got, [e for e in expected for _ in range(3)]):
        assert all(np.array_equal(a, b) for a, b in zip(results, results_ref, strict=True))


def _mirror(a, g):
    """a(-k) at every k of the lattice."""
    axes = tuple(range(-g.dim, 0))
    return np.roll(np.flip(a, axes), 1, axes)


@pytest.mark.parametrize("g", THREADED.values(), ids=THREADED.keys())
def test_split_operators_have_the_bits_of_their_numpy_expressions(g):
    """On the lattices whose operators run in two halves, each has the bits of the plain
    numpy expression it computes."""
    assert _workers(g) == 2
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((g.dim, *g.shape))
    # the transform: rfftn's half k_last >= 0, and the later mode of each mirror pair (in
    # row-major order, k_last last) the conjugate of the earlier one
    h = g.n // 2
    full = np.zeros(vals.shape, dtype=np.complex128)
    full[..., : h + 1] = np.fft.rfftn(vals, axes=tuple(range(-g.dim, 0)), norm="forward")
    order = np.arange(g.n**g.dim).reshape(g.shape)
    k_last = np.arange(g.n)
    later = (k_last > h) | (((k_last == 0) | (k_last == h)) & (order > _mirror(order, g)))
    c = transform(vals, g)
    assert np.array_equal(c, np.where(later, np.conj(_mirror(full, g)), full))

    i_xi = _i_xi(g)
    jac = _jacobian(c, g)
    for j, m in enumerate(i_xi):
        assert np.array_equal(jac[:, j], m * c)
    rows, cols = np.triu_indices(g.dim)
    assert np.array_equal(_jacobian_upper(c, g), np.stack([i_xi[j] * c[i] for i, j in zip(rows, cols)]))
    div_c = i_xi[0] * c[0]
    for j in range(1, g.dim):
        div_c += i_xi[j] * c[j]
    assert np.array_equal(_divergence(c, g), div_c)
    # the implicit solve, written out: m_sol u - grad(w div u)
    m_sol, w = _implicit_multipliers(g, SolverConfig(mu=0.5, a=0.01, dt=0.01))
    w_div = div_c * w
    solved = c * m_sol
    solved -= np.stack([m * w_div for m in i_xi])
    assert np.array_equal(_implicit_solve(c, g, m_sol, w), solved)
    q1 = gaussian_bump(g, 0.5, 1.0, 0.1)
    assert np.array_equal(heat_evolve(q1, 0.5, 0.01).coeffs, q1.coeffs * _heat_multiplier(g, 0.5, 0.01))
    assert np.array_equal((SpectralField(g, c) * -0.3).coeffs, c * -0.3)


def test_in_halves_joins_the_pool_half_and_raises_either_error():
    """An error of either half reaches the caller, and only once the pool half has finished."""
    g = THREADED["2d_256"]
    caller = threading.get_ident()
    finished = threading.Event()
    seen = []

    def caller_fails(index):
        seen.append(index)
        if threading.get_ident() == caller:
            raise ValueError("caller half")
        time.sleep(0.2)
        finished.set()

    with pytest.raises(ValueError, match="caller half"):
        _in_halves(caller_fails, g, 0)
    assert finished.is_set()
    # the two halves of axis 0, the second counted from the end
    assert sorted(seen, key=str) == [(Ellipsis, slice(-128, None), slice(None)), (Ellipsis, slice(None, 128), slice(None))]

    def pool_fails(index):
        if threading.get_ident() != caller:
            raise ValueError("pool half")

    with pytest.raises(ValueError, match="pool half"):
        _in_halves(pool_fails, g, 0)


def test_import_loads_no_scipy():
    """The transforms run on numpy's FFT: importing the package leaves scipy unloaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, swlp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@on_grids
def test_derivatives_match_analytic(g):
    kappa, phase, f = plane_wave(g)
    gf = grad(f)
    for j in range(g.dim):
        exact = -kappa[j] * math.prod(np.sin(x) if a == j else np.cos(x) for a, x in enumerate(phase))
        assert np.abs(gf.values[j] - exact).max() < 1e-12
    lf = laplacian(f)
    assert np.abs(lf.values[0] + sum(k**2 for k in kappa) * f.values[0]).max() < 1e-10
    assert np.abs(div(gf).coeffs - lf.coeffs).max() < 1e-12


@on_grids
def test_odd_derivatives_drop_the_nyquist_plane(g):
    """The values of d_j f are those of i xi_j c(f) with the plane k_j = -n/2 zeroed."""
    rng = np.random.default_rng(4)
    f = SpectralField.from_values(g, rng.standard_normal((1, *g.shape)))
    u = SpectralField.from_values(g, rng.standard_normal((g.dim, *g.shape)))

    def d(c, j):
        c = c.copy()
        c[(slice(None),) * j + (g.n // 2,)] = 0.0
        shape = [1] * g.dim
        shape[j] = g.n
        return 1j * g.xi(j).reshape(shape) * c

    assert g.wavenumbers()[g.n // 2] == -g.n // 2
    for j in range(g.dim):
        ref = numpy_values(d(f.coeffs[0], j), g)
        assert np.abs(grad(f).values[j] - ref).max() <= 1e-14 * np.abs(ref).max()
    ref = numpy_values(sum(d(u.coeffs[j], j) for j in range(g.dim)), g)
    assert np.abs(div(u).values[0] - ref).max() <= 1e-14 * np.abs(ref).max()


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


@on_grids
def test_sym_grad_and_curl(g):
    # a shear u_0 = sin(kappa x_m) along the last axis m
    m = g.dim - 1
    kappa = 2 * math.pi / g.period[m]
    vals = np.zeros((g.dim, *g.shape))
    vals[0] = np.sin(kappa * g.coords(m))
    u = SpectralField.from_values(g, vals)
    D = sym_grad(u)
    d0m = inverse_transform(D[0, m][None], g)[0]
    assert np.abs(d0m - (1.0 if m == 0 else 0.5) * kappa * np.cos(kappa * g.coords(m))).max() < 1e-12
    assert np.abs(D - np.swapaxes(D, 0, 1)).max() == 0.0
    # the one curl component d_m u_0 has L2 norm kappa sqrt(volume / 2)
    assert curl_norm(u) == pytest.approx(0.0 if m == 0 else kappa * math.sqrt(g.volume / 2), rel=1e-12)
    assert curl_norm(grad(plane_wave(g)[2])) < 1e-12


@on_grids
def test_curl_norm_is_the_collocation_norm(g):
    """Undealiased noise: the curl's values carry no Nyquist-plane terms, and neither does its norm."""
    u = SpectralField.from_values(g, np.random.default_rng(6).standard_normal((g.dim, *g.shape)))
    d = [grad(component(u, i)).values for i in range(g.dim)]  # d[i][j] = d_j u_i
    w2 = sum((d[j][i] - d[i][j]) ** 2 for i in range(g.dim) for j in range(i + 1, g.dim))
    assert curl_norm(u) == pytest.approx(math.sqrt(g.volume * float(np.mean(w2))), rel=1e-13)


@on_grids
def test_with_mean_sets_only_the_mean_mode(g):
    f = SpectralField.from_values(g, np.random.default_rng(7).standard_normal((2, *g.shape)))
    before = f.coeffs.copy()
    assert f.with_mean(f.mean()).coeffs.tobytes() == before.tobytes()
    zero = f.with_mean(0.0)
    assert not zero.mean().any()
    assert np.array_equal(f.coeffs - zero.coeffs, f.coeffs.real * (xi_mag2(g) == 0))
    assert np.array_equal(f.with_mean([1.5, -2.0]).mean(), [1.5, -2.0])
    assert np.array_equal(f.coeffs, before)


@on_grids
def test_helmholtz_split(g):
    rng = np.random.default_rng(2)
    u = dealias(SpectralField.from_values(g, rng.standard_normal((g.dim, *g.shape))))
    par, sol = helmholtz_split(u)
    assert np.abs((par + sol).coeffs - u.coeffs).max() < 1e-13
    assert curl_norm(par) < 1e-12
    div_sol = div(sol)
    assert np.abs(div_sol.coeffs).max() < 1e-12
    # the mean belongs to the irrotational part
    assert np.array_equal(par.mean(), u.mean())
    assert not sol.mean().any()


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


def roll_flip_power(coeffs, g):
    """|c_h|^2 with c_h = (c(k) + conj(c(-k)))/2 formed on the whole lattice by a roll and a flip."""
    axes = tuple(range(-g.dim, 0))
    h = np.roll(np.flip(coeffs, axes), 1, axes)
    np.conjugate(h, out=h)
    h += coeffs
    h *= 0.5
    return np.einsum("c...,c...->...", h.real, h.real) + np.einsum("c...,c...->...", h.imag, h.imag)


@pytest.mark.parametrize("g", [*GRIDS.values(), *THREADED.values()], ids=[*GRIDS, *THREADED])
def test_parseval_power_matches_the_whole_lattice_hermitian_part(g):
    """Off the Nyquist planes the power is |c|^2, and on them the planes' own Hermitian part:
    the same numbers as the reflected copy of the whole lattice, bit for bit."""
    rng = np.random.default_rng(8)
    white = SpectralField.from_values(g, rng.standard_normal((1, *g.shape)))
    vector = SpectralField.from_values(g, rng.standard_normal((g.dim, *g.shape)))
    cases = {
        "white": white.coeffs,
        "white_vector": vector.coeffs,
        "dealiased": dealias(vector).coeffs,
        # an odd derivative is not Hermitian on the Nyquist planes
        "undealiased_grad": grad(white).coeffs,
        "undealiased_jacobian": _jacobian(vector.coeffs, g)[0],
    }
    for name, coeffs in cases.items():
        assert np.array_equal(parseval_power(coeffs, g), roll_flip_power(coeffs, g)), name
    # on those planes plain |c|^2 is not the power
    grad_coeffs = cases["undealiased_grad"]
    assert not np.allclose(np.sum(np.abs(grad_coeffs) ** 2, 0), roll_flip_power(grad_coeffs, g), rtol=1e-3)


@pytest.mark.parametrize("g", [*GRIDS.values(), *THREADED.values()], ids=[*GRIDS, *THREADED])
def test_power_sums_match_the_power_array(g):
    """``parseval_sum`` is the sum of ``parseval_power``, also where the Nyquist planes are
    not Hermitian; it also takes one component's lattice without a component axis."""
    rng = np.random.default_rng(9)
    white = SpectralField.from_values(g, rng.standard_normal((1, *g.shape)))
    vector = SpectralField.from_values(g, rng.standard_normal((g.dim, *g.shape)))
    cases = {
        "white_vector": vector.coeffs,
        "dealiased": dealias(vector).coeffs,
        "undealiased_grad": grad(white).coeffs,
        "one_component": grad(white).coeffs[0],
    }
    for name, coeffs in cases.items():
        power = parseval_power(coeffs if coeffs.ndim > g.dim else coeffs[None], g)
        assert parseval_sum(coeffs, g) == pytest.approx(float(np.sum(power)), rel=1e-13, abs=0), name


@on_grids
def test_sym_grad_has_the_bits_of_the_symmetric_part_of_the_jacobian(g):
    """Filled from its upper triangle, D(u) equals (J + J^T)/2 of the whole Jacobian bit for bit."""
    u = SpectralField.from_values(g, np.random.default_rng(4).standard_normal((g.dim, *g.shape)))
    jac = _jacobian(u.coeffs, g)
    assert np.array_equal(sym_grad(u), 0.5 * (jac + np.swapaxes(jac, 0, 1)))


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
    # the implicit multipliers (m_sol, w): built once per (grid, config)
    multipliers = _implicit_multipliers(g, SolverConfig(mu=0.5, a=0.01, dt=0.01))
    equal_key = make_grid(2, 32, (2 * math.pi, 4 * math.pi)), SolverConfig(mu=0.5, a=0.01, dt=0.01)
    assert _implicit_multipliers(*equal_key) is multipliers
    assert _implicit_multipliers(g, SolverConfig(mu=0.5, a=0.01, dt=0.02)) is not multipliers
    m_sol, w = multipliers
    m_par = 1.0 / (1.0 + 0.01 * (0.5 * mag2))
    assert np.array_equal(m_sol, 1.0 / (1.0 + 0.01 * (0.25 * mag2)))
    # w = (m_par - m_sol)/|xi|^2, written without the cancellation: -(dt mu / 2) m_par m_sol
    assert np.array_equal(w, np.where(mag2 > 0, -0.0025 * m_par * m_sol, 0.0))
    assert w[mag2 == 0].tolist() == [0.0]
    off = mag2 > 0
    assert np.allclose(w[off], (m_par - m_sol)[off] / mag2[off], rtol=1e-12, atol=0.0)
    # the heat semigroup: one entry, the last (grid, mu, t) asked for
    heat = _heat_multiplier(g, 0.5, 0.01)
    assert _heat_multiplier(make_grid(2, 32, (2 * math.pi, 4 * math.pi)), 0.5, 0.01) is heat
    assert np.array_equal(heat, np.exp(-0.5 * mag2 * 0.01))
    for arr in (mag2, heat, filt.shell, filt.table, *multipliers):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    # one shell per distinct |xi|^2, so anisotropic periods stay exact
    assert np.array_equal(np.unique(mag2)[filt.shell], mag2)
    # the filter's multipliers are gathered per call and belong to the caller
    low = filt.cumulative_below(filt.l_max + 1)
    low[...] = 0.0
    assert filt.cumulative_below(filt.l_max + 1).max() > 0.5


def _made_fields(g):
    """A field from each way the package makes one: the constructor, ``from_values``, a
    transform, ``dealiased_from_values``, arithmetic, ``grad``, ``heat_evolve`` and a step."""
    rng = np.random.default_rng(4)
    values = rng.standard_normal((1, *g.shape))
    f = SpectralField.from_values(g, values)
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01)
    bump = gaussian_bump(g, 0.3, 1.0, cfg.mu)
    state = step(initial_state(bump, 0.01 * f, SpectralField.zeros(g, g.dim), cfg), cfg)
    return {
        "constructor": SpectralField(g, rng.standard_normal(g.shape) + 0j),
        "from_values": f,
        "transform": SpectralField(g, transform(values, g)),
        "dealiased_from_values": dealiased_from_values(g, values),
        "add": f + f,
        "sub": f - f,
        "mul": 2.0 * f,
        "neg": -f,
        "with_mean": f.with_mean(1.0),
        "grad": grad(f),
        "heat_evolve": heat_evolve(bump, cfg.mu, 0.1),
        **{f"step_{name}": getattr(state, name) for name in ("q1", "h2", "u2", "u1_cache")},
    }


@pytest.mark.parametrize("g", [GRIDS["2d"], THREADED["2d_256"]], ids=["2d", "2d_256"])
def test_fields_are_read_only(g):
    filt = default_filter(g)
    for name, f in _made_fields(g).items():
        for arr in (f.coeffs, f.values):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0
        assert not f.coeffs.flags.writeable and not f.values.flags.writeable, name
    # the Bony operators' cached block values, too
    f = _made_fields(g)["from_values"]
    para(filt, f, f)
    with pytest.raises(ValueError, match="read-only"):
        _block_values(filt, f)[0, 0, 0, 0] = 1.0


def test_a_field_keeps_no_alias_of_its_input():
    g = make_grid(2, 16, (2 * math.pi, 2 * math.pi))
    values = np.random.default_rng(2).standard_normal((1, *g.shape))
    f = SpectralField.from_values(g, values)
    given = values.copy()
    # the caller's array stays the caller's: zeroing it leaves the field as it was
    values[...] = 0.0
    assert np.array_equal(f.values, given)
    assert np.allclose(f.values, inverse_transform(f.coeffs, g), rtol=0.0, atol=1e-14)
    # the constructor takes the caller's coefficients as they are, and makes them read-only
    coeffs = transform(np.random.default_rng(3).standard_normal(g.shape), g)
    h = SpectralField(g, coeffs)
    assert np.shares_memory(h.coeffs, coeffs)
    with pytest.raises(ValueError, match="read-only"):
        coeffs[0, 0] = 0.0
    # an immutable value needs no copy
    assert dilate(f, 1) is f
    assert not hasattr(SpectralField, "copy")
