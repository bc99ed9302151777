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
    mass_drift,
    recompose,
    scaling_check,
    step,
)
from swlp.besov import time_hybrid_besov_norm
from swlp.dyadic import default_filter
from swlp.solver import ft_norm, ft_specs, random_band_field


def _small_state(n=64, eps=1e-2, seed=3, mode="shallow_water", **kw):
    g = make_grid(2, n, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01, mode=mode, **kw)
    q1 = gaussian_bump(g, 0.3, 1.0, 0.5)
    h2 = random_band_field(g, rng, 0, 2, 1, filt, amplitude=eps, norm="linf")
    u2 = random_band_field(g, rng, 0, 2, g.dim, filt, amplitude=eps, norm="linf")
    return initial_state(q1, h2, u2, cfg), cfg, filt


def test_fast_rhs_matches_term_sum():
    st, cfg, _ = _small_state()
    fast = assemble_rhs(st, cfg)
    slow = assemble_rhs(st, cfg, with_terms=True)
    assert np.abs(fast.h2_rhs.coeffs - slow.h2_rhs.coeffs).max() < 1e-13
    assert np.abs(fast.u2_rhs.coeffs - slow.u2_rhs.coeffs).max() < 1e-13
    assert slow.terms is not None and len(slow.terms) >= 6


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
    assert cfg.friction_exact
    q1 = gaussian_bump(g, 0.3, 1.0, 0.5)
    st = initial_state(q1, SpectralField.zeros(g, 1), SpectralField.zeros(g, 2), cfg)
    for _ in range(10):
        st = step(st, cfg)
    assert lp_norm(st.u2, math.inf) < 1e-10
    assert lp_norm(st.h2, math.inf) < 1e-10


def test_reformulation_residual_certifies_exactness():
    st, cfg, _ = _small_state(n=128)
    mass_rel, mom_rel = full_residual(st, cfg, include_perturbation_rate=True)
    assert mass_rel < 1e-8
    assert mom_rel < 1e-8


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


def test_cfl_error_raised():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    cfg = SolverConfig(mu=0.5, a=0.01, dt=1.0, cfl_max=0.4)
    q1 = gaussian_bump(g, 0.5, 1.0, 0.5)
    rng = np.random.default_rng(0)
    filt = default_filter(g)
    u2 = random_band_field(g, rng, 0, 2, 2, filt, amplitude=5.0, norm="linf")
    st = initial_state(q1, SpectralField.zeros(g, 1), u2, cfg)
    assert cfl_number(st, cfg) > cfg.cfl_max
    with pytest.raises(CflError):
        step(st, cfg)


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
    def drift(dt):
        st, cfg, _ = _small_state()
        cfg = SolverConfig(**{**cfg.__dict__, "dt": dt})
        masses = []
        for _ in range(int(round(0.1 / dt)) + 1):
            rho, _ = recompose(st)
            masses.append((st.t, float(rho.mean()[0])))
            st = step(st, cfg)
        return mass_drift(masses)

    d1, d2 = drift(0.01), drift(0.0025)
    assert d1 < 1e-6
    assert d2 < d1 / 2.0


def test_scaling_equivariance_and_negative_control():
    st, cfg, _ = _small_state(n=256, eps=1e-2)
    defect = scaling_check(st, cfg, 2)
    assert defect < 1e-10
    # without rescaling the pressure coefficient the symmetry is broken
    bad = scaling_check(st, cfg, 2, adjust_pressure=False)
    assert bad > 1e-6


def test_recompose_positive_density():
    st, cfg, _ = _small_state()
    rho, u = recompose(st)
    assert rho.values[0].min() > 0
    assert u.ncomp == 2


def test_initial_state_validates_shapes():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01)
    q1 = gaussian_bump(g, 0.3, 1.0, 0.5)
    with pytest.raises(ValueError):
        initial_state(q1, SpectralField.zeros(g, 2), SpectralField.zeros(g, 2), cfg)
    with pytest.raises(ValueError):
        initial_state(q1, SpectralField.zeros(g, 1), SpectralField.zeros(g, 1), cfg)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=-1.0, a=0.01, dt=0.01)
    with pytest.raises(ValueError):
        SolverConfig(mu=0.5, a=0.01, dt=0.01, mode="bogus")


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
    assert ft_norm(history, filt) == pytest.approx(reference, rel=1e-12)
    assert reference > 0
    start = time_hybrid_besov_norm(h2_snaps[:1], math.inf, specs["h2_inf"], filt)
    start += time_hybrid_besov_norm(u2_snaps[:1], math.inf, specs["u2_inf"], filt)
    assert ft_norm(history[:1], filt) == pytest.approx(start, rel=1e-12)
    assert start > 0
