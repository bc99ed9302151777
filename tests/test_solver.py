import math

import numpy as np
import pytest

from swlp import (
    BlowupError,
    CflError,
    SimState,
    SolverConfig,
    SpectralField,
    assemble_rhs,
    cfl_number,
    full_residual,
    gaussian_bump,
    initial_state,
    lp_norm,
    make_grid,
    mult,
    recompose,
    scaling_check,
    step,
)
from swlp.besov import block_norms, hybrid_besov_norm, time_hybrid_besov_norm
from swlp.checks import perturbed_state
from swlp.dyadic import default_filter
from swlp.grid import _nyquist_hermitian, _nyquist_modes, dealias, div, grad
from swlp.harness import _Series
from swlp.quasi import _check_floor, heat_evolve, velocity_from_density
from swlp.solver import (
    _implicit_multipliers,
    _implicit_solve,
    ft_specs,
    gronwall_integrand,
    random_band_field,
)

from oracles import component, sym_grad


def _perturbed_state(dim, n, cfg, eps, seed):
    """``checks.perturbed_state`` in any dimension: a bump of amplitude 0.3 on the
    period-2pi box plus seeded band-0..2 perturbations of L^inf size eps."""
    g = make_grid(dim, n, 2 * math.pi)
    filt = default_filter(g)
    rng = np.random.default_rng(seed)
    return initial_state(
        gaussian_bump(g, 0.3, 1.0, cfg.mu),
        random_band_field(g, rng, 0, 2, 1, filt, amplitude=eps),
        random_band_field(g, rng, 0, 2, dim, filt, amplitude=eps),
        cfg,
    )


def _small_state(n=64, eps=1e-2, seed=3, mode="shallow_water", dim=2, **kw):
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01, mode=mode, **kw)
    st = _perturbed_state(dim, n, cfg, eps, seed)
    return st, cfg, default_filter(st.grid)


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 16)])
def test_solver_fields_hold_their_nyquist_hermitian_part(dim, n):
    """Every field a step makes is dealiased, so its Nyquist planes are zero and
    ``inverse_transform`` needs no Hermitian copy of its coefficients."""
    st, cfg, _ = _small_state(n=n, dim=dim)
    states = [st, step(st, cfg)]
    states.append(step(states[-1], cfg))
    for st in states:
        fields = (st.q1, st.h2, st.u2, st.u1_cache, *recompose(st))
        assert [_nyquist_hermitian(f.coeffs, _nyquist_modes(st.grid)) for f in fields] == [None] * 6, st.t


def _sum_products(pairs):
    """sum of the dealiased products a * b over the (a, b) pairs."""
    out = None
    for a, b in pairs:
        prod = mult(a, b)
        out = prod if out is None else out + prod
    return out


def _stack(grid, components):
    """A vector field from its scalar components."""
    return SpectralField(grid, np.concatenate([c.coeffs for c in components]))


def _grad_contract_sym(v_grad, D, grid):
    """(grad v . D w)_i = sum_j d_j v (Dw)_{ji}, dealiased."""
    return _stack(grid, [
        _sum_products((component(v_grad, j), SpectralField(grid, D[j, i])) for j in range(grid.dim))
        for i in range(grid.dim)
    ])


def _advect_scalar(u, s_grad, grid):
    """u . grad s for a scalar s, given grad s."""
    return _sum_products((component(u, j), component(s_grad, j)) for j in range(grid.dim))


def _advect_vector(u, w, grid):
    """(u . grad) w for a vector w."""
    return _stack(grid, [_advect_scalar(u, grad(component(w, i)), grid) for i in range(grid.dim)])


def _rhs_terms(st, cfg):
    """Reference oracle: the named terms of the perturbation system's explicit
    right-hand sides, one dealiased product at a time."""
    g = st.grid
    mu = cfg.mu
    _check_floor((1.0 + st.q1.values[0]) * np.exp(st.h2.values[0]))
    lnrho1_grad = st.u1_cache * (-1.0 / mu)
    u1 = st.u1_cache
    u_tot = u1 + st.u2
    h2_grad = grad(st.h2)
    Du1 = sym_grad(u1)
    Du2 = sym_grad(st.u2)
    terms_h = {
        "h2_transport": _advect_scalar(u_tot, h2_grad, g) * (-1.0),
        "h2_div_u2": div(st.u2) * (-1.0),
        "h2_coupling": _advect_scalar(st.u2, lnrho1_grad, g) * (-1.0),
    }
    terms_u = {
        "u2_transport": _advect_vector(u_tot, st.u2, g) * (-1.0),
        "u2_pressure": grad(st.h2) * (-cfg.pressure_coeff),
        "u2_shear_u1": _advect_vector(st.u2, u1, g) * (-1.0),
        "u2_visc_coupling": _grad_contract_sym(lnrho1_grad, Du2, g) * mu,
        "u2_forcing": lnrho1_grad * (-cfg.forcing_coeff),
        "u2_h2_du1": _grad_contract_sym(h2_grad, Du1, g) * mu,
        "u2_h2_du2": _grad_contract_sym(h2_grad, Du2, g) * mu,
    }
    return terms_h, terms_u


def test_fast_rhs_matches_term_sum():
    for dim, n in ((1, 64), (2, 64), (3, 32)):
        st, cfg, _ = _small_state(n, dim=dim)
        h2_rhs, u2_rhs, umax = assemble_rhs(st, cfg)
        assert umax == float(np.abs(st.u1_cache.values + st.u2.values).max()), dim
        terms_h, terms_u = _rhs_terms(st, cfg)
        assert np.abs(h2_rhs.coeffs - sum(t.coeffs for t in terms_h.values())).max() < 1e-13, dim
        assert np.abs(u2_rhs.coeffs - sum(t.coeffs for t in terms_u.values())).max() < 1e-13, dim


def test_zero_perturbation_stays_zero_without_forcing():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01, forcing=False)
    q1 = gaussian_bump(g, 0.3, 1.0, 0.5)
    st = initial_state(q1, SpectralField.zeros(g, 1), SpectralField.zeros(g, 2), cfg)
    for _ in range(5):
        st = step(st, cfg)
    assert lp_norm(st.h2, math.inf) < 1e-14
    assert lp_norm(st.u2, math.inf) < 1e-14


def test_friction_exact_mode_keeps_perturbation_tiny():
    # r mu Fr^2 = 1: the quasi-solution solves the friction system exactly,
    # so the forcing vanishes and the perturbation never grows.
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    cfg = SolverConfig(
        mu=0.5, a=0.0, Fr=1.0, r_fric=2.0, dt=0.01, mode="friction"
    )
    assert abs(cfg.r_fric * cfg.mu * cfg.Fr**2 - 1.0) <= 1e-12
    q1 = gaussian_bump(g, 0.3, 1.0, 0.5)
    st = initial_state(q1, SpectralField.zeros(g, 1), SpectralField.zeros(g, 2), cfg)
    for _ in range(10):
        st = step(st, cfg)
    assert lp_norm(st.u2, math.inf) < 1e-10
    assert lp_norm(st.h2, math.inf) < 1e-10


def test_friction_mode_full_residual():
    # r mu Fr^2 = 1 (r = 2): the unperturbed state solves the friction system,
    # so its frozen residual vanishes; r = 1 leaves the pressure defect.
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    q1 = gaussian_bump(g, 0.3, 1.0, 0.5)
    frozen = {}
    for r in (2.0, 1.0):
        cfg = SolverConfig(mu=0.5, a=0.0, Fr=1.0, r_fric=r, dt=0.01, mode="friction")
        st = initial_state(q1, SpectralField.zeros(g, 1), SpectralField.zeros(g, 2), cfg)
        frozen[r] = full_residual(st, cfg)[1]
        # the friction reformulation is exact for any perturbed state
        pert = perturbed_state(128, 10, cfg, 1e-3, width=0.5)
        mass_rel, mom_rel = full_residual(pert, cfg, include_perturbation_rate=True)
        assert mass_rel <= 1e-8 and mom_rel <= 1e-8, r
    assert frozen[2.0] <= 1e-10
    assert frozen[1.0] > 0.1


def test_reformulation_residual_certifies_exactness():
    # 3-D needs 64^3 here: at 32^3 the residual is resolution-limited near 1e-5
    for dim, n in ((1, 256), (2, 128), (3, 64)):
        st, cfg, _ = _small_state(n, dim=dim)
        mass_rel, mom_rel = full_residual(st, cfg, include_perturbation_rate=True)
        assert mass_rel < 1e-8, (dim, mass_rel)
        assert mom_rel < 1e-8, (dim, mom_rel)


def test_frozen_residual_negative_control():
    # frozen perturbation: the defect must NOT vanish for a generic state
    st, cfg, _ = _small_state(n=128, eps=5e-2)
    _, mom_rel = full_residual(st, cfg)
    assert mom_rel > 1e-4


def test_first_order_time_convergence():
    errs = {}
    for dt in (0.02, 0.01, 0.005):
        st, cfg, _ = _small_state()
        cfg = SolverConfig(**{**cfg.__dict__, "dt": dt})
        n_steps = int(round(0.1 / dt))
        for _ in range(n_steps):
            st = step(st, cfg)
        errs[dt] = st
    ref_cfg = _small_state()[1]
    ref = _small_state()[0]
    fine = SolverConfig(**{**ref_cfg.__dict__, "dt": 0.000625})
    for _ in range(160):
        ref = step(ref, fine)
    def err(s):
        return lp_norm(s.u2 - ref.u2, 2.0) + lp_norm(s.h2 - ref.h2, 2.0)
    e1, e2 = err(errs[0.02]), err(errs[0.01])
    order = math.log2(e1 / e2)
    assert 0.7 < order < 1.6


def test_cfl_error_raised(counted):
    """``step`` reads the largest speed from its right-hand side, not from ``cfl_number``, and
    checks the cap before the density floor."""
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    cfg = SolverConfig(mu=0.5, a=0.01, dt=1.0, cfl_max=0.4)
    q1 = gaussian_bump(g, 0.5, 1.0, 0.5)
    rng = np.random.default_rng(0)
    filt = default_filter(g)
    u2 = random_band_field(g, rng, 0, 2, 2, filt, amplitude=5.0, norm="linf")
    st = initial_state(q1, SpectralField.zeros(g, 1), u2, cfg)
    cfl = cfl_number(st, cfg)
    assert cfl > cfg.cfl_max
    message = f"advective CFL {cfl:.3g} exceeds cap {cfg.cfl_max:.3g}"
    calls = counted("solver", "cfl_number")
    with pytest.raises(CflError) as exc:
        step(st, cfg)
    assert str(exc.value) == message
    # e^{-20} puts rho below the density floor; the cap still fails first
    low = SimState(t=st.t, q1=st.q1, h2=SpectralField.zeros(g, 1).with_mean(-20.0), u2=st.u2, u1_cache=st.u1_cache)
    with pytest.raises(CflError) as exc:
        step(low, cfg)
    assert str(exc.value) == message
    slow, slow_cfg, _ = _small_state()
    step(slow, slow_cfg)
    low = SimState(t=slow.t, q1=slow.q1, h2=slow.h2.with_mean(-20.0), u2=slow.u2, u1_cache=slow.u1_cache)
    with pytest.raises(BlowupError, match="density floor"):
        step(low, slow_cfg)
    assert calls == []


def test_blowup_error_carries_state():
    st, cfg, _ = _small_state()
    bad = SimState(
        t=st.t,
        q1=st.q1,
        h2=st.h2,
        u2=SpectralField(st.grid, st.u2.coeffs * np.nan),
        u1_cache=st.u1_cache,
    )
    with pytest.raises(BlowupError) as exc:
        step(bad, cfg)
    assert exc.value.last_state is bad


def test_mass_drift_small_and_dt_convergent():
    def drift(dim, n, dt):
        st, cfg, _ = _small_state(n, dim=dim)
        cfg = SolverConfig(**{**cfg.__dict__, "dt": dt})
        masses = []
        for _ in range(int(round(0.1 / dt)) + 1):
            rho, _ = recompose(st)
            masses.append(float(rho.mean()[0]))
            st = step(st, cfg)
        return max(abs(m - masses[0]) for m in masses) / abs(masses[0])

    for dim, n in ((1, 64), (2, 64), (3, 32)):
        d1, d2 = drift(dim, n, 0.01), drift(dim, n, 0.0025)
        assert d1 < 1e-6, (dim, d1)
        assert d2 < d1 / 2.0, (dim, d1, d2)


def test_scaling_equivariance_and_negative_control():
    friction = SolverConfig(mu=0.5, a=0.0, Fr=0.5, r_fric=8.0, dt=0.01, mode="friction")
    for dim, n in ((1, 256), (2, 256), (3, 32)):
        st, cfg, _ = _small_state(n, eps=1e-2, dim=dim)
        defect, bad = scaling_check(st, cfg, 2)
        assert defect < 1e-10, (dim, defect)
        # without rescaling the pressure coefficient the symmetry is broken
        assert bad > 1e-6, (dim, bad)
        # friction mode: the pressure coefficient is 1/Fr^2, whatever a is
        st = _perturbed_state(dim, n, friction, 1e-2, 11)
        defect, bad = scaling_check(st, friction, 2)
        assert defect < 1e-10, dim
        assert bad > 1e-6, dim


def test_recompose_positive_density():
    st, cfg, _ = _small_state()
    rho, u = recompose(st)
    assert rho.values[0].min() > 0
    assert u.ncomp == 2
    # computed once per state
    again = recompose(st)
    assert again[0] is rho and again[1] is u


def test_p2_snapshot_norms_make_no_inverse_transform(inverse_transforms, monkeypatch):
    st, cfg, filt = _small_state()
    st = step(st, cfg)
    del inverse_transforms[:]
    # the working norm's history: a row of p = 2 block norms of h2 and of u2
    block_norms(st.h2, 2.0, filt)
    block_norms(st.u2, 2.0, filt)
    assert inverse_transforms == []

    inside = []

    def counted_hybrid(*args):
        before = len(inverse_transforms)
        out = hybrid_besov_norm(*args)
        inside.append(len(inverse_transforms) - before)
        return out

    monkeypatch.setattr("swlp.solver.hybrid_besov_norm", counted_hybrid)
    gronwall_integrand(st, filt)
    assert inside == [0, 0, 0]


def test_initial_state_validates_shapes():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01)
    q1 = gaussian_bump(g, 0.3, 1.0, 0.5)
    with pytest.raises(ValueError):
        initial_state(q1, SpectralField.zeros(g, 2), SpectralField.zeros(g, 2), cfg)
    with pytest.raises(ValueError):
        initial_state(q1, SpectralField.zeros(g, 1), SpectralField.zeros(g, 1), cfg)


def test_solver_config_validation():
    for bad in (
        {"mu": -1.0},
        {"mode": "bogus"},
        {"Fr": 0.0, "mode": "friction"},
        {"Fr": -1.0},
        {"r_fric": -1.0, "mode": "friction"},
        {"cfl_max": 0.0},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**{"mu": 0.5, "a": 0.01, "dt": 0.01, **bad})
    # a NaN or infinite float is rejected by name, whatever the other checks would say
    for name, value, mode in (
        ("mu", math.nan, "shallow_water"),
        ("mu", math.inf, "shallow_water"),
        ("a", math.nan, "shallow_water"),
        ("Fr", math.inf, "friction"),
        ("r_fric", math.nan, "friction"),
        ("dt", math.nan, "shallow_water"),
        ("dt", math.inf, "shallow_water"),
        ("cfl_max", math.inf, "shallow_water"),
    ):
        with pytest.raises(ValueError, match=f"^{name} = "):
            SolverConfig(**{"mu": 0.5, "a": 0.01, "dt": 0.01, "mode": mode, name: value})


@pytest.mark.parametrize("dim", [1, 2, 3], ids=["1d", "2d", "3d"])
def test_implicit_solve_decay_rates_per_helmholtz_part(dim):
    """u_0 = sin(2 x_m): irrotational for m = 0, a solenoidal shear for m > 0."""
    g = make_grid(dim, 16, 2 * math.pi)
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.1)
    for m in range(dim):
        vals = np.zeros((dim, *g.shape))
        vals[0] = np.sin(2 * g.coords(m))
        u = SpectralField.from_values(g, vals)
        out = SpectralField(g, _implicit_solve(u.coeffs, g, *_implicit_multipliers(g, cfg)))
        # mu |xi|^2 for the irrotational part, mu |xi|^2 / 2 for the solenoidal one
        rate = cfg.mu * 4.0 * (1.0 if m == 0 else 0.5)
        assert np.abs(out.values - vals / (1.0 + cfg.dt * rate)).max() < 1e-14, m


@pytest.mark.parametrize(
    "dim, n, mode, kw",
    [(1, 64, "shallow_water", {}), (2, 64, "shallow_water", {}), (3, 16, "shallow_water", {}),
     (2, 64, "friction", {"Fr": 1.0, "r_fric": 2.0})],
    ids=["1d", "2d", "3d", "friction"],
)
def test_stepped_fields_are_dealiased_as_made(dim, n, mode, kw):
    """``step`` zeroes no dropped mode itself: the right-hand sides and the state are
    dealiased and the implicit solve acts mode by mode, so the new h2 and u2 already
    hold their ``dealias``, to the bit (+0 on every dropped mode)."""
    st, cfg, _ = _small_state(n=n, dim=dim, mode=mode, **kw)
    for _ in range(3):
        st = step(st, cfg)
        for f in (st.h2, st.u2):
            assert f.coeffs.tobytes() == dealias(f).coeffs.tobytes(), st.t


def test_heat_only_step_moves_only_q1():
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01, mode="heat_only")
    for dim, n in ((1, 64), (2, 64), (3, 32)):
        st, _, _ = _small_state(n, dim=dim)
        nxt = step(st, cfg)
        assert nxt.h2 is st.h2 and nxt.u2 is st.u2
        assert np.array_equal(nxt.q1.coeffs, heat_evolve(st.q1, cfg.mu, cfg.dt).coeffs)
        assert np.array_equal(nxt.u1_cache.coeffs, velocity_from_density(heat_evolve(st.q1, cfg.mu, cfg.dt), cfg.mu).coeffs)
        assert nxt.t == st.t + cfg.dt


def test_ft_norm_matches_time_hybrid_norms():
    st, cfg, filt = _small_state()
    history = [st]
    for _ in range(2):
        history.append(step(history[-1], cfg))
    specs = ft_specs(2)
    h2_snaps = [(s.t, s.h2) for s in history]
    u2_snaps = [(s.t, s.u2) for s in history]
    reference = (
        time_hybrid_besov_norm(h2_snaps, math.inf, specs["h2_inf"], filt)
        + time_hybrid_besov_norm(u2_snaps, math.inf, specs["u2_inf"], filt)
        + time_hybrid_besov_norm(h2_snaps, 1.0, specs["h2_l1"], filt)
        + time_hybrid_besov_norm(u2_snaps, 1.0, specs["u2_l1"], filt)
    )
    series = _Series(cfg, filt)
    values = [series.record(s)["ft_norm"] for s in history]
    assert values[-1] == reference
    assert reference > 0
    start = time_hybrid_besov_norm(h2_snaps[:1], math.inf, specs["h2_inf"], filt)
    start += time_hybrid_besov_norm(u2_snaps[:1], math.inf, specs["u2_inf"], filt)
    assert values[0] == start
    assert start > 0
