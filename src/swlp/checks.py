"""The acceptance criteria: one registry behind ``swlp verify`` and the pytest gate.

Each criterion's function returns its check records and the detail text of
its gate line. Criteria 5, 7, 8 and 9 take a finished ``harness.RunResult``
(with an output directory); ``verify`` runs the others.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .besov import BesovSpec, HybridBesovSpec, besov_norm, hybrid_besov_norm, lp_norm
from .dyadic import default_filter, dyadic_block
from .grid import SpectralField, make_grid, mult
from .harness import DECAY_FITS, RunResult, fit_series
from .paraproduct import para, remainder
from .quasi import (
    friction_exact_residual,
    gaussian_bump,
    heat_evolve,
    kernel_decay_fit,
    kernel_rate,
    max_principle_check,
    quasi_residual,
)
from .solver import SolverConfig, full_residual, initial_state, random_band_field, scaling_check, step
from .sweeps import _TWO_SIDED, RATIO_NAMES, load_frozen, sweep_ratios

__all__ = ["Criterion", "REGISTRY", "SUITES", "check", "perturbed_state", "verify"]

_PASSES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def check(name: str, value: float, side: str, bound: float) -> dict:
    """A record of the measured ``value``, the threshold ``bound`` and the
    ``side`` of it that passes; ``passed`` is ``value <side> bound``."""
    value, bound = float(value), float(bound)
    passed = bool(_PASSES[side](value, bound))
    return {"name": name, "value": value, "side": side, "bound": bound, "passed": passed}


@dataclass(frozen=True)
class Criterion:
    number: int
    suite: str
    title: str
    evaluate: Callable[..., tuple[list[dict], str]]
    needs_run: bool = False

    def line(self, records: list[dict], detail: str) -> str:
        """The gate's printed line for one evaluation."""
        tag = "PASS" if all(r["passed"] for r in records) else "FAIL"
        return f"[criterion {self.number:2d}] {tag}  {self.title}  {detail}"


REGISTRY: list[Criterion] = []


def _criterion(number: int, suite: str, title: str, needs_run: bool = False):
    def register(fn):
        REGISTRY.append(Criterion(number, suite, title, fn, needs_run))
        return fn

    return register


@_criterion(1, "lp", "dyadic partition of unity / LP reconstruction")
def partition_and_reconstruction():
    worst_part, worst_rec = 0.0, 0.0
    for dim, n in ((1, 256), (2, 128)):
        g = make_grid(dim, n, (2 * math.pi,) * dim)
        filt = default_filter(g)
        total = sum(filt.weight(l) for l in filt.levels)
        mask = g.xi_mag() > 0
        worst_part = max(worst_part, float(np.abs(total[mask] - 1.0).max()))
        rng = np.random.default_rng(11 + dim)
        u = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
        rec = sum(dyadic_block(filt, u, l).coeffs for l in filt.levels)
        target = u.with_mean(0.0).coeffs
        worst_rec = max(worst_rec, float(np.abs(rec - target).max()))
    records = [
        check("partition_of_unity", worst_part, "<=", 1e-10),
        check("block_reconstruction", worst_rec, "<=", 1e-10),
    ]
    return records, f"partition={worst_part:.2e} reconstruction={worst_rec:.2e}"


@_criterion(2, "paraproduct", "Bony decomposition reproduces the dealiased product")
def bony_identity():
    g = make_grid(2, 128, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        u = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
        v = random_band_field(g, rng, 0, 3, 1, filt, norm="l2")
        lhs = para(filt, u, v) + para(filt, v, u) + remainder(filt, u, v)
        rhs = mult(u, v)
        worst = max(worst, lp_norm(lhs - rhs, 2.0) / lp_norm(rhs, 2.0))
    records = [check("bony_identity", worst, "<=", 1e-12)]
    return records, f"max relative L2 error={worst:.2e} over 100 pairs"


@_criterion(3, "quasi", "quasi-solution momentum residual")
def quasi_solution_identity():
    g1 = make_grid(1, 1024, (2 * math.pi,))
    x = g1.coords(0)
    rho0 = 1.0 + 0.4 * np.sin(x) + 0.1 * np.cos(3 * x)  # in [0.5, 1.5]
    q1 = heat_evolve(SpectralField.from_values(g1, (rho0 - 1.0)[None]), 0.1, 0.2)
    res1 = quasi_residual(q1, 0.1)[1]

    res2 = {}
    for n in (128, 256):
        g2 = make_grid(2, n, (64.0, 64.0))
        q2 = heat_evolve(gaussian_bump(g2, 0.5, 1.0, 0.5), 0.1, 0.5)
        res2[n] = quasi_residual(q2, 0.1)[1]
    refinement = res2[128] / max(res2[256], 1e-300)
    records = [
        check("quasi_momentum_residual_1d", res1, "<=", 1e-8),
        check("quasi_momentum_residual_2d_256", res2[256], "<=", 1e-6),
        check("refinement_factor_128_to_256", refinement, ">=", 10.0),
    ]
    return records, f"1D@1024={res1:.2e} 2D@256={res2[256]:.2e} refinement x{refinement:.1f}"


@_criterion(4, "quasi", "friction system solved exactly when r*mu*Fr^2 = 1")
def friction_exactness():
    g = make_grid(2, 128, (2 * math.pi, 2 * math.pi))
    q1 = heat_evolve(gaussian_bump(g, 0.3, 1.0, 1.0), 1.0, 0.3)
    exact = friction_exact_residual(q1, 1.0, Fr=1.0, r=1.0)  # r mu Fr^2 = 1

    # negative control: r mu Fr^2 != 1 leaves a residual proportional to
    # the gradient of the density
    controls = []
    for amp in (0.1, 0.2):
        qc = heat_evolve(gaussian_bump(g, amp, 1.0, 1.0), 1.0, 0.3)
        controls.append(friction_exact_residual(qc, 1.0, Fr=1.0, r=3.0))
    grad_ratio = controls[1].grad_rho_norm / controls[0].grad_rho_norm
    res_ratio = controls[1].absolute_residual / controls[0].absolute_residual
    records = [
        check("friction_relation_error", exact.relation_error, "<=", 1e-12),
        check("friction_exact", exact.residual, "<=", 1e-8),
        check("friction_negative_control_amp0.1", controls[0].residual, ">", 1e-3),
        check("friction_negative_control_amp0.2", controls[1].residual, ">", 1e-3),
        check("control_residual_vs_gradient_ratio", abs(res_ratio / grad_ratio - 1.0), "<", 0.25),
    ]
    return records, (
        f"residual={exact.residual:.2e} control residual ratio/grad ratio="
        f"{res_ratio:.2f}/{grad_ratio:.2f}"
    )


def _decay_bound(fit) -> str:
    """A fit's expected exponent in the 2-d acceptance run and its tolerance."""
    _, alpha, tolerance = fit
    return f"{kernel_rate(2, alpha, math.inf):.1f} +/- {tolerance:.2f}"


_DECAY_TITLE = "decay exponents (rho: {}, u: {})".format(*map(_decay_bound, DECAY_FITS))


@_criterion(5, "decay", _DECAY_TITLE, needs_run=True)
def decay_exponents(run: RunResult):
    rho, u = fit_series(run.out_dir / "series.csv")["fits"]
    records = [
        check(f"decay_exponent_{f['column']}", abs(f["exponent"] - f["expected"]), "<=", f["tolerance"])
        for f in (rho, u)
    ]
    return records, f"rho={rho['exponent']:.3f} u={u['exponent']:.3f}"


@_criterion(6, "decay", "heat-kernel decay rates within 15%")
def kernel_rates():
    records, details = [], []
    for dim in (1, 2):
        g = make_grid(dim, 256 if dim == 1 else 128, (64.0,) * dim)
        q0 = gaussian_bump(g, 0.5, 1.0, 0.1)
        for alpha, p in ((0, math.inf), (1, math.inf), (0, 2.0)):
            fitted = kernel_decay_fit(q0, 0.1, alpha, p, (2.0, 20.0))
            expected = kernel_rate(dim, alpha, p)
            rel = abs(fitted - expected) / expected
            records.append(check(f"kernel_rate_N{dim}_a{alpha}_p{p:g}", rel, "<=", 0.15))
            details.append(f"N={dim}(|a|={alpha},p={p:g}):{fitted:.3f}/{expected:.3f}")
    return records, " ".join(details)


@_criterion(7, "quasi", "maximum principle across all snapshots", needs_run=True)
def maximum_principle(run: RunResult):
    cfg = run.config
    g = make_grid(cfg.dim, cfg.n, cfg.period)
    q0 = gaussian_bump(g, cfg.amplitude, cfg.width, cfg.mu)
    lo0 = 1.0 + float(q0.values[0].min())
    hi0 = 1.0 + float(q0.values[0].max())
    worst_lo, worst_hi = lo0, hi0
    for t in np.arange(0.0, cfg.t_end + 1e-9, cfg.snapshot_dt):
        lo, hi, _ = max_principle_check(heat_evolve(q0, cfg.mu, float(t)), lo0, hi0)
        worst_lo, worst_hi = min(worst_lo, lo), max(worst_hi, hi)
    records = [
        check("min_rho1", worst_lo, ">=", lo0 - 1e-8),
        check("max_rho1", worst_hi, "<=", hi0 + 1e-8),
    ]
    return records, f"range [{worst_lo:.6f}, {worst_hi:.6f}] vs initial [{lo0:.6f}, {hi0:.6f}]"


def perturbed_state(n: int, seed: int, cfg: SolverConfig, eps: float, width: float = 1.0):
    """A 2-D bump of amplitude 0.3 plus seeded band-0..2 perturbations of L^inf size eps."""
    g = make_grid(2, n, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(seed)
    return initial_state(
        gaussian_bump(g, 0.3, width, cfg.mu),
        random_band_field(g, rng, 0, 2, 1, filt, amplitude=eps),
        random_band_field(g, rng, 0, 2, 2, filt, amplitude=eps),
        cfg,
    )


def _companion_final_state(dt: float):
    """The small problem whose dt-refinement measures criterion 8's order."""
    cfg = SolverConfig(mu=0.5, a=0.01, dt=dt)
    st = perturbed_state(64, 8, cfg, 1e-2)
    for _ in range(int(round(0.1 / dt))):
        st = step(st, cfg)
    return st


@_criterion(8, "solver", "mass drift <= 1e-6 and dt order 1.0 +/- 0.2", needs_run=True)
def conservation_and_convergence(run: RunResult):
    drift = max(row["mass_drift"] for row in run.rows)
    ref = _companion_final_state(0.000625)

    def err(st):
        return lp_norm(st.h2 - ref.h2, 2.0) + lp_norm(st.u2 - ref.u2, 2.0)

    order = math.log2(err(_companion_final_state(0.02)) / err(_companion_final_state(0.01)))
    records = [
        check("mass_drift", drift, "<=", 1e-6),
        check("dt_order_deviation", abs(order - 1.0), "<=", 0.2),
    ]
    return records, f"drift={drift:.2e} order={order:.3f}"


@_criterion(9, "solver", "working norm stays within 10x initial; no blowup", needs_run=True)
def uniform_bound_proxy(run: RunResult):
    summary = json.loads((run.out_dir / "summary.json").read_text())
    growth = max(row["ft_norm"] for row in run.rows) / summary["ft_initial"]
    nonfinite = sum(not np.isfinite(row["linf_rho_minus_1"]) for row in run.rows)
    records = [
        check("working_norm_growth", growth, "<=", 10.0),
        check("nonfinite_snapshots", nonfinite, "<=", 0),
    ]
    return records, f"max ft/ft0={growth:.2f}"


@_criterion(10, "paraproduct", "estimate ratios within frozen envelope over 10 seeds")
def frozen_estimate_constants():
    frozen = load_frozen()
    worst = {name: 0.0 for name in RATIO_NAMES}
    low = {name: math.inf for name in RATIO_NAMES}
    for seed in range(1000, 1010):
        ratios = sweep_ratios(seed)
        for name in RATIO_NAMES:
            worst[name] = max(worst[name], ratios[name])
            low[name] = min(low[name], ratios[name])
    records = [check(f"{n}_max", worst[n], "<=", 1.1 * frozen[n]["max"]) for n in RATIO_NAMES]
    records += [check(f"{n}_min", low[n], ">=", frozen[n]["min"] / 1.1) for n in _TWO_SIDED]
    margins = {n: round(worst[n] / frozen[n]["max"], 3) for n in RATIO_NAMES}
    return records, f"max/frozen={margins}"


@_criterion(11, "solver", "scaling equivariance at l=2 with adjusted pressure")
def scaling_equivariance():
    cfg = SolverConfig(mu=0.5, a=0.01, dt=0.01)
    st = perturbed_state(256, 11, cfg, 1e-2)
    defect = scaling_check(st, cfg, 2)
    control = scaling_check(st, cfg, 2, adjust_pressure=False)
    records = [
        check("scaling_equivariance", defect, "<=", 1e-10),
        check("scaling_negative_control", control, ">", 1e-6),
    ]
    return records, f"defect={defect:.2e} negative control={control:.2e}"


@_criterion(12, "lp", "LP blocks and the mean reconstruct a white-noise field")
def white_noise_reconstruction():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(7)
    f = SpectralField.from_values(g, rng.standard_normal((1, *g.shape)))
    recon = sum(dyadic_block(filt, f, l).coeffs for l in filt.levels)
    rel = lp_norm(SpectralField(g, f.with_mean(0.0).coeffs - recon), 2.0) / lp_norm(f, 2.0)
    return [check("block_reconstruction", rel, "<=", 1e-12)], f"relative L2 error={rel:.2e}"


@_criterion(13, "besov", "hybrid Besov norm with equal indices is the Besov norm; homogeneity")
def besov_consistency():
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(8)
    f = random_band_field(g, rng, -1, 3, 1, filt, amplitude=1.0)
    spec = BesovSpec(1.0, 2, 1)
    n_plain = besov_norm(f, spec, filt)
    n_hyb = hybrid_besov_norm(f, HybridBesovSpec(1.0, 1.0, 2, 2, 1, 1, 0), filt)
    hybrid = abs(n_plain - n_hyb) / n_plain
    homogeneity = abs(besov_norm(f * 2.0, spec, filt) - 2 * n_plain) / (2 * n_plain)
    records = [
        check("hybrid_matches_plain", hybrid, "<=", 1e-12),
        check("homogeneity", homogeneity, "<=", 1e-12),
    ]
    return records, f"hybrid/plain={hybrid:.2e} homogeneity={homogeneity:.2e}"


@_criterion(14, "quasi", "quasi-solution mass residual")
def quasi_mass_residual():
    g = make_grid(1, 1024, (2 * math.pi,))
    q1 = heat_evolve(gaussian_bump(g, 0.5, 1.0, 0.1), 0.1, 0.5)
    res = quasi_residual(q1, 0.1)[0]
    return [check("quasi_mass_residual_1d", res, "<=", 1e-8)], f"1D@1024={res:.2e}"


@_criterion(15, "solver", "reformulated perturbation system residuals at t = 0")
def reformulation_residual():
    cfg = SolverConfig(mu=0.1, a=1e-2, dt=0.01)
    st = perturbed_state(128, 10, cfg, 1e-3, width=0.5)
    mr, pr = full_residual(st, cfg, include_perturbation_rate=True)
    records = [
        check("reformulation_mass", mr, "<=", 1e-8),
        check("reformulation_momentum", pr, "<=", 1e-8),
    ]
    return records, f"mass={mr:.2e} momentum={pr:.2e}"


SUITES = tuple(dict.fromkeys(c.suite for c in REGISTRY))


def verify(suite: str = "all") -> dict:
    """Run a suite's criteria that need no run; returns a JSON-serializable report."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {[*SUITES, 'all']}")
    report = {"suites": {}, "passed": True}
    for c in REGISTRY:
        if c.needs_run or suite not in ("all", c.suite):
            continue
        records, _ = c.evaluate()
        report["suites"].setdefault(c.suite, []).extend({"criterion": c.number, **r} for r in records)
        report["passed"] = report["passed"] and all(r["passed"] for r in records)
    return report
