"""Acceptance gate: each test prints one PASS/FAIL line for its criterion."""

import json
import math

import numpy as np
import pytest

from swlp import (
    SolverConfig,
    SpectralField,
    default_filter,
    friction_exact_residual,
    gaussian_bump,
    heat_evolve,
    initial_state,
    kernel_decay_fit,
    kernel_rate,
    lp_norm,
    make_grid,
    mult,
    para,
    quasi_residual,
    remainder,
    scaling_check,
    step,
)
from swlp.dyadic import dyadic_block
from swlp.harness import fit_series
from swlp.solver import random_band_field
from swlp.sweeps import RATIO_NAMES, _TWO_SIDED, load_frozen, sweep_ratios


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {tag}  {name}  {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_partition_and_reconstruction():
    worst_part, worst_rec = 0.0, 0.0
    for dim, n in ((1, 256), (2, 128)):
        g = make_grid(dim, n, (2 * math.pi,) * dim)
        filt = default_filter(g)
        total = np.zeros(g.shape)
        for l in filt.levels:
            total += filt.weight(l)
        mask = g.xi_mag() > 0
        worst_part = max(worst_part, float(np.abs(total[mask] - 1.0).max()))
        rng = np.random.default_rng(11 + dim)
        u = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
        rec = sum(dyadic_block(filt, u, l).coeffs for l in filt.levels)
        target = u.coeffs.copy()
        target[(0,) + (0,) * dim] = 0.0
        worst_rec = max(worst_rec, float(np.abs(rec - target).max()))
    ok = worst_part <= 1e-10 and worst_rec <= 1e-10
    _report(1, "dyadic partition of unity / LP reconstruction", ok,
            f"partition={worst_part:.2e} reconstruction={worst_rec:.2e}")


def test_criterion_02_bony_identity():
    g = make_grid(2, 128, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        u = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
        v = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
        lhs = para(filt, u, v) + para(filt, v, u) + remainder(filt, u, v)
        rhs = mult(u, v)
        rel = lp_norm(lhs - rhs, 2.0) / lp_norm(rhs, 2.0)
        worst = max(worst, rel)
    ok = worst <= 1e-12
    _report(2, "Bony decomposition reproduces the dealiased product", ok,
            f"max relative L2 error={worst:.2e} over 100 pairs")


def test_criterion_03_quasi_solution_identity():
    g1 = make_grid(1, 1024, (2 * math.pi,))
    x = g1.coords(0)
    rho0 = 1.0 + 0.4 * np.sin(x) + 0.1 * np.cos(3 * x)  # in [0.5, 1.5]
    st1 = heat_evolve(SpectralField.from_values(g1, (rho0 - 1.0)[None]), 0.1, 0.2)
    res1 = quasi_residual(st1)[1]

    res2 = {}
    for n in (128, 256):
        g2 = make_grid(2, n, (64.0, 64.0))
        st2 = heat_evolve(gaussian_bump(g2, 0.5, 1.0, 0.5), 0.1, 0.5)
        res2[n] = quasi_residual(st2)[1]
    ok = res1 <= 1e-8 and res2[256] <= 1e-6 and res2[256] <= res2[128] / 10.0
    _report(3, "quasi-solution momentum residual", ok,
            f"1D@1024={res1:.2e} 2D@256={res2[256]:.2e} "
            f"refinement x{res2[128] / max(res2[256], 1e-300):.1f}")


def test_criterion_04_friction_exactness():
    g = make_grid(2, 128, (2 * math.pi, 2 * math.pi))
    st = heat_evolve(gaussian_bump(g, 0.3, 1.0, 1.0), 1.0, 0.3)
    exact = friction_exact_residual(st, Fr=1.0, r=1.0)  # r mu Fr^2 = 1

    # negative control: r mu Fr^2 != 1 leaves a residual proportional to
    # the gradient of the density
    controls = []
    for amp in (0.1, 0.2):
        stc = heat_evolve(gaussian_bump(g, amp, 1.0, 1.0), 1.0, 0.3)
        controls.append(friction_exact_residual(stc, Fr=1.0, r=3.0))
    grad_ratio = controls[1].grad_rho_norm / controls[0].grad_rho_norm
    res_ratio = controls[1].absolute_residual / controls[0].absolute_residual
    ok = (
        exact.certified
        and exact.residual <= 1e-8
        and all(c.residual > 1e-3 for c in controls)
        and abs(res_ratio / grad_ratio - 1.0) < 0.25
    )
    _report(4, "friction system solved exactly when r*mu*Fr^2 = 1", ok,
            f"residual={exact.residual:.2e} control residual ratio/grad ratio="
            f"{res_ratio:.2f}/{grad_ratio:.2f}")


def test_criterion_05_decay_exponents(acceptance_run):
    rep = fit_series(acceptance_run.out_dir / "series.csv")
    by_col = {f["column"]: f for f in rep["fits"]}
    rho = by_col["linf_rho_minus_1"]
    u = by_col["besov_u_m1_inf"]
    ok = rep["passed"]
    _report(5, "decay exponents (rho: 1.0 +/- 0.15, u: 1.5 +/- 0.20)", ok,
            f"rho={rho['exponent']:.3f} u={u['exponent']:.3f}")


def test_criterion_06_kernel_rates():
    details, ok = [], True
    for dim in (1, 2):
        g = make_grid(dim, 256 if dim == 1 else 128, (64.0,) * dim)
        q0 = gaussian_bump(g, 0.5, 1.0, 0.1)
        for alpha, p in ((0, math.inf), (1, math.inf), (0, 2.0)):
            fitted = kernel_decay_fit(q0, 0.1, alpha, p, (2.0, 20.0))
            expected = kernel_rate(dim, alpha, p)
            rel = abs(fitted - expected) / expected
            ok = ok and rel <= 0.15
            details.append(f"N={dim}(|a|={alpha},p={p:g}):{fitted:.3f}/{expected:.3f}")
    _report(6, "heat-kernel decay rates within 15%", ok, " ".join(details))


def test_criterion_07_maximum_principle(acceptance_run):
    cfg = acceptance_run.config
    g = make_grid(cfg.dim, cfg.n, (cfg.period,) * cfg.dim)
    q0 = gaussian_bump(g, cfg.amplitude, cfg.width, cfg.mu)
    lo0 = 1.0 + float(q0.values[0].min())
    hi0 = 1.0 + float(q0.values[0].max())
    worst_lo, worst_hi = lo0, hi0
    for t in np.arange(0.0, cfg.t_end + 1e-9, cfg.snapshot_dt):
        st = heat_evolve(q0, cfg.mu, float(t))
        rho1 = st.rho1_values()
        worst_lo = min(worst_lo, float(rho1.min()))
        worst_hi = max(worst_hi, float(rho1.max()))
    ok = worst_lo >= lo0 - 1e-8 and worst_hi <= hi0 + 1e-8
    _report(7, "maximum principle across all snapshots", ok,
            f"range [{worst_lo:.6f}, {worst_hi:.6f}] vs initial [{lo0:.6f}, {hi0:.6f}]")


def test_criterion_08_conservation_and_convergence(acceptance_run):
    drift = max(row["mass_drift"] for row in acceptance_run.rows)

    # dt-convergence order on a small companion problem
    def final_state(dt):
        g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
        filt = default_filter(g)
        rng = np.random.default_rng(8)
        cfg = SolverConfig(mu=0.5, a=0.01, dt=dt)
        st = initial_state(
            gaussian_bump(g, 0.3, 1.0, 0.5),
            random_band_field(g, rng, 0, 2, 1, filt, amplitude=1e-2, norm="linf"),
            random_band_field(g, rng, 0, 2, 2, filt, amplitude=1e-2, norm="linf"),
            cfg,
        )
        for _ in range(int(round(0.1 / dt))):
            st = step(st, cfg)
        return st

    ref = final_state(0.000625)
    def err(st):
        return lp_norm(st.h2 - ref.h2, 2.0) + lp_norm(st.u2 - ref.u2, 2.0)
    e_coarse, e_fine = err(final_state(0.02)), err(final_state(0.01))
    order = math.log2(e_coarse / e_fine)
    ok = drift <= 1e-6 and abs(order - 1.0) <= 0.2
    _report(8, "mass drift <= 1e-6 and dt order 1.0 +/- 0.2", ok,
            f"drift={drift:.2e} order={order:.3f}")


def test_criterion_09_uniform_bound_proxy(acceptance_run):
    summary = json.loads((acceptance_run.out_dir / "summary.json").read_text())
    ft0 = summary["ft_initial"]
    worst = max(row["ft_norm"] for row in acceptance_run.rows)
    finite = all(np.isfinite(row["linf_rho_minus_1"]) for row in acceptance_run.rows)
    ok = worst <= 10.0 * ft0 and finite
    _report(9, "working norm stays within 10x initial; no blowup", ok,
            f"max ft/ft0={worst / ft0:.2f}")


def test_criterion_10_frozen_estimate_constants():
    frozen = load_frozen()
    worst = {name: 0.0 for name in RATIO_NAMES}
    low = {name: math.inf for name in RATIO_NAMES}
    for seed in range(1000, 1010):
        ratios = sweep_ratios(seed)
        for name in RATIO_NAMES:
            worst[name] = max(worst[name], ratios[name])
            low[name] = min(low[name], ratios[name])
    ok = all(worst[n] <= 1.1 * frozen[n]["max"] for n in RATIO_NAMES) and all(
        low[n] >= frozen[n]["min"] / 1.1 for n in _TWO_SIDED
    )
    margins = {n: round(worst[n] / frozen[n]["max"], 3) for n in RATIO_NAMES}
    _report(10, "estimate ratios within frozen envelope over 10 seeds", ok,
            f"max/frozen={margins}")


def test_criterion_11_scaling_equivariance():
    g = make_grid(2, 256, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(11)
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01)
    st = initial_state(
        gaussian_bump(g, 0.3, 1.0, 0.5),
        random_band_field(g, rng, 0, 2, 1, filt, amplitude=1e-2, norm="linf"),
        random_band_field(g, rng, 0, 2, 2, filt, amplitude=1e-2, norm="linf"),
        cfg,
    )
    defect = scaling_check(st, cfg, 2)
    control = scaling_check(st, cfg, 2, adjust_pressure=False)
    ok = defect <= 1e-10 and control > 1e-6
    _report(11, "scaling equivariance at l=2 with adjusted pressure", ok,
            f"defect={defect:.2e} negative control={control:.2e}")
