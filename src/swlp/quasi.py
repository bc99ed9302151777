"""Heat-driven irrotational states and their exactness diagnostics.

A state carries q1 = rho1 - 1 where rho1 solves d_t rho1 = mu * Lap rho1
exactly (Fourier multiplier), and the derived velocity is
u1 = -mu * grad(ln rho1).  The pair (rho1, u1) solves the pressureless
system (mass + viscous momentum, no pressure) identically, and the
friction system with drag r and Froude number Fr whenever r*mu*Fr^2 = 1.
Time derivatives in all residuals are substituted analytically from the
heat equation, never finite-differenced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .besov import BesovSpec, besov_norm, lp_norm, time_besov_norm
from .dyadic import DyadicFilter
from .grid import (
    Grid,
    SpectralField,
    dealias,
    div,
    grad,
    laplacian,
    mult,
    sym_grad,
    xi_mag2,
)

__all__ = [
    "HeatState",
    "kernel_rate",
    "heat_evolve",
    "velocity_from_density",
    "max_principle_check",
    "kernel_decay_fit",
    "quasi_residual",
    "friction_exact_residual",
    "heat_estimate_ratio",
    "gaussian_bump",
]

DENSITY_FLOOR = 1e-6
LOG_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class HeatState:
    """Exactly heat-evolved irrotational state at time t."""

    t: float
    q1: SpectralField
    mu: float

    @property
    def grid(self) -> Grid:
        return self.q1.grid

    def rho1_values(self) -> np.ndarray:
        return 1.0 + self.q1.values[0]


def kernel_rate(dim: int, alpha_order: int, p: float) -> float:
    """Heat-kernel L^p decay exponent N/2 (1 - 1/p) + |alpha|/2."""
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return dim / 2.0 * (1.0 - inv_p) + alpha_order / 2.0


def _check_floor(rho_values: np.ndarray, floor: float) -> None:
    low = float(rho_values.min())
    if low < floor:
        raise ValueError(f"density floor violated: min(rho1) = {low:.3g} < {floor:.3g}")


def heat_evolve(
    q1_initial: SpectralField, mu: float, t: float, floor: float = DENSITY_FLOOR
) -> HeatState:
    """Exact semigroup solution of d_t rho1 = mu Lap rho1 at time t >= 0."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if q1_initial.ncomp != 1:
        raise ValueError("q1 must be a scalar field")
    _check_floor(1.0 + q1_initial.values[0], floor)
    coeffs = q1_initial.coeffs * np.exp(-mu * xi_mag2(q1_initial.grid) * t)
    return HeatState(t=t, q1=SpectralField(q1_initial.grid, coeffs), mu=mu)


def advance(state: HeatState, dt: float) -> HeatState:
    evolved = heat_evolve(state.q1, state.mu, dt)
    return HeatState(t=state.t + dt, q1=evolved.q1, mu=state.mu)


def log_density(q1: SpectralField, floor: float = DENSITY_FLOOR) -> SpectralField:
    """ln(1 + q1) evaluated pointwise and re-projected to the dealiased band.

    The log is not band-limited; a warning fires when the discarded tail
    carries more than 1e-10 of the L2 mass.
    """
    rho = 1.0 + q1.values[0]
    _check_floor(rho, floor)
    full = SpectralField.from_values(q1.grid, np.log(rho))
    trimmed = dealias(full)
    total = float(np.sum(np.abs(full.coeffs) ** 2))
    kept = float(np.sum(np.abs(trimmed.coeffs) ** 2))
    if total > 0 and (total - kept) / total > LOG_TAIL_TOL:
        warnings.warn(
            "log-density truncation tail exceeds 1e-10 of the L2 mass; "
            "increase resolution",
            stacklevel=3,
        )
    return trimmed


def velocity_from_density(state: HeatState, floor: float = DENSITY_FLOOR) -> SpectralField:
    """u1 = -mu grad(ln rho1); irrotational by construction."""
    return grad(log_density(state.q1, floor)) * (-state.mu)


def max_principle_check(
    state: HeatState,
    initial_min: float,
    initial_max: float,
    tol: float = 1e-8,
) -> tuple[float, float, bool]:
    rho = state.rho1_values()
    lo, hi = float(rho.min()), float(rho.max())
    ok = lo >= initial_min - tol and hi <= initial_max + tol
    return lo, hi, ok


def gaussian_bump(
    grid: Grid,
    amplitude: float,
    width: float,
    mu: float,
    center: tuple[float, ...] | None = None,
) -> SpectralField:
    """Gaussian initial bump with variance 2*mu*width per axis.

    ``width`` is the diffusion-time offset t0: the bump evolves under the
    heat flow exactly like the kernel at time t0 + t, so its L^p norms
    follow (t0 + t)^{-r} power laws with no transient.  Built in Fourier
    space, hence exactly periodic.
    """
    if center is None:
        center = tuple(a / 2 for a in grid.period)
    var = 2.0 * mu * width
    xi = grid.xi_grids()
    phase = np.zeros(grid.shape, dtype=np.complex128)
    for ax in range(grid.dim):
        phase = phase - 1j * xi[ax] * center[ax]
    coeffs = amplitude * np.exp(-var * xi_mag2(grid) / 2.0 + phase)
    # normalize so the collocation maximum is the requested amplitude
    f = SpectralField(grid, coeffs[None])
    peak = float(np.abs(f.values).max())
    return f * (amplitude / peak)


def kernel_decay_fit(
    q1_initial: SpectralField,
    mu: float,
    alpha_order: int,
    p: float,
    t_window: tuple[float, float],
    n_samples: int = 24,
) -> float:
    """Log-log slope (positive convention) of ||D^alpha q1(t)||_{L^p} vs 1+t.

    The window must stay in the pre-saturation regime: sqrt(4 mu t) must not
    exceed an eighth of the smallest period, else the torus images destroy
    the free-space power law.
    """
    t0, t1 = t_window
    if t1 <= t0 or t0 < 0:
        raise ValueError("need 0 <= t0 < t1")
    min_period = min(q1_initial.grid.period)
    if math.sqrt(4.0 * mu * t1) > min_period / 8.0:
        raise ValueError(
            "decay window reaches the torus-saturation regime "
            f"(sqrt(4 mu t) > period/8 at t = {t1:g})"
        )
    if alpha_order not in (0, 1, 2):
        raise ValueError("alpha_order must be 0, 1 or 2")
    times = np.geomspace(1.0 + t0, 1.0 + t1, n_samples) - 1.0
    norms = np.empty(n_samples)
    for i, t in enumerate(times):
        st = heat_evolve(q1_initial, mu, t)
        f = st.q1
        if alpha_order == 1:
            f = grad(f)
        elif alpha_order == 2:
            f = laplacian(f)
        norms[i] = lp_norm(f, p)
    slope = np.polyfit(np.log1p(times), np.log(norms), 1)[0]
    return float(-slope)


def _heat_rates(state: HeatState, floor: float = DENSITY_FLOOR):
    """(rho1, d_t rho1, d_t u1) with the rates substituted from the heat equation:
    d_t rho1 = mu Lap rho1 and d_t u1 = -mu grad(d_t rho1 / rho1)."""
    g = state.grid
    rho = SpectralField(g, state.q1.coeffs.copy())
    rho.coeffs[(0,) * (g.dim + 1)] += 1.0
    drho_dt = laplacian(rho) * state.mu
    du1_dt = grad(mult(drho_dt, _reciprocal(rho, floor))) * (-state.mu)
    return rho, drho_dt, du1_dt


def _pressureless_momentum_parts(state: HeatState, floor: float = DENSITY_FLOOR):
    """Terms of d_t(rho1 u1) + div(rho1 u1 x u1) - div(mu rho1 D(u1))."""
    mu = state.mu
    u1 = velocity_from_density(state, floor)
    rho, drho_dt, du1_dt = _heat_rates(state, floor)

    rho_u = mult(rho, u1)
    dt_rho_u = mult(drho_dt, u1) + mult(rho, du1_dt)

    conv = _div_outer(rho_u, u1)
    visc = _div_scaled_symgrad(rho, u1, mu)
    return dt_rho_u, conv, visc, rho, u1, drho_dt


def _reciprocal(rho: SpectralField, floor: float) -> SpectralField:
    vals = rho.values
    _check_floor(vals[0], floor)
    return dealias(SpectralField.from_values(rho.grid, 1.0 / vals))


def _div_outer(a: SpectralField, b: SpectralField) -> SpectralField:
    """div(a x b) for vector fields a, b: component i is sum_j d_j (a_j b_i)."""
    g = a.grid
    out = np.zeros((g.dim, *g.shape), dtype=np.complex128)
    xi = g.xi_grids()
    for i in range(g.dim):
        for j in range(g.dim):
            prod = mult(a.component(j), b.component(i))
            out[i] += 1j * xi[j] * prod.coeffs[0]
    return SpectralField(g, out)


def _div_scaled_symgrad(rho: SpectralField, u: SpectralField, mu: float) -> SpectralField:
    """div(mu rho D(u)): component i is sum_j d_j (mu rho (Du)_{ij})."""
    g = u.grid
    D = sym_grad(u)
    xi = g.xi_grids()
    out = np.zeros((g.dim, *g.shape), dtype=np.complex128)
    for i in range(g.dim):
        for j in range(g.dim):
            dij = SpectralField(g, D[i, j][None])
            prod = mult(rho, dij)
            out[i] += 1j * xi[j] * mu * prod.coeffs[0]
    return SpectralField(g, out)


def _rel_l2(residual: SpectralField, scales: list[SpectralField]) -> float:
    num = lp_norm(residual, 2.0)
    den = max((lp_norm(s, 2.0) for s in scales), default=0.0)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def quasi_residual(state: HeatState, floor: float = DENSITY_FLOOR) -> tuple[float, float]:
    """Relative L2 residuals of the pressureless system at the state.

    mass:     d_t rho1 + div(rho1 u1)
    momentum: d_t(rho1 u1) + div(rho1 u1 x u1) - div(mu rho1 D(u1))
    with d_t terms substituted analytically via the heat equation.
    """
    dt_rho_u, conv, visc, rho, u1, drho_dt = _pressureless_momentum_parts(state, floor)
    mass_res = drho_dt + div(mult(rho, u1))
    mass_rel = _rel_l2(mass_res, [drho_dt, div(mult(rho, u1))])
    mom_res = dt_rho_u + conv - visc
    mom_rel = _rel_l2(mom_res, [dt_rho_u, conv, visc])
    return mass_rel, mom_rel


@dataclass(frozen=True)
class FrictionReport:
    residual: float
    certified: bool
    relation_error: float
    absolute_residual: float
    grad_rho_norm: float


def friction_exact_residual(state: HeatState, Fr: float, r: float, floor: float = DENSITY_FLOOR) -> FrictionReport:
    """Relative L2 momentum residual of the friction system at the state.

    Includes grad(rho)/Fr^2 + r rho u; the friction and pressure terms
    cancel exactly iff r * mu * Fr^2 = 1.  When the relation fails the
    residual is still reported but exactness certification is refused.
    """
    if Fr <= 0 or r < 0:
        raise ValueError("need Fr > 0 and r >= 0")
    dt_rho_u, conv, visc, rho, u1, _ = _pressureless_momentum_parts(state, floor)
    pressure = grad(rho) * (1.0 / Fr**2)
    drag = mult(rho, u1) * r
    mom_res = dt_rho_u + conv - visc + pressure + drag
    rel = _rel_l2(mom_res, [dt_rho_u, conv, visc, pressure, drag])
    relation_error = abs(r * state.mu * Fr**2 - 1.0)
    certified = relation_error <= 1e-12 and rel <= 1e-8
    return FrictionReport(
        residual=rel,
        certified=certified,
        relation_error=relation_error,
        absolute_residual=lp_norm(mom_res, 2.0),
        grad_rho_norm=lp_norm(grad(rho), 2.0),
    )


def heat_estimate_ratio(
    u0: SpectralField,
    f_snapshots,
    spec: BesovSpec,
    rho1: float,
    rho2: float,
    mu: float,
    filt: DyadicFilter,
) -> float:
    """Diagnostic ratio for the smoothing estimate of the forced heat flow.

    Solves d_t u - mu Lap u = f by exact multiplier plus trapezoidal
    Duhamel on the forcing snapshots, then returns

        ||u||_{Ltilde^rho1(B^{s + 2/rho1})} /
        ( ||u0||_{B^s} + mu^{1/rho2 - 1} ||f||_{Ltilde^rho2(B^{s - 2 + 2/rho2})} )

    nan when both data are zero (degenerate).
    """
    if not f_snapshots:
        raise ValueError("empty forcing snapshot list")
    times = [t for t, _ in f_snapshots]
    if times[0] != 0.0:
        raise ValueError("forcing snapshots must start at t = 0")
    g = u0.grid
    mag2 = xi_mag2(g)
    u_snaps = [(0.0, u0)]
    u_prev = u0.coeffs
    for (t_prev, f_prev), (t_next, f_next) in zip(f_snapshots[:-1], f_snapshots[1:]):
        dt = t_next - t_prev
        decay = np.exp(-mu * mag2 * dt)
        u_next = decay * u_prev + 0.5 * dt * (decay * f_prev.coeffs + f_next.coeffs)
        u_snaps.append((t_next, SpectralField(g, u_next)))
        u_prev = u_next

    inv_r1 = 0.0 if math.isinf(rho1) else 1.0 / rho1
    inv_r2 = 0.0 if math.isinf(rho2) else 1.0 / rho2
    lhs_spec = BesovSpec(spec.s + 2.0 * inv_r1, spec.p, spec.r)
    f_spec = BesovSpec(spec.s - 2.0 + 2.0 * inv_r2, spec.p, spec.r)
    lhs = time_besov_norm(u_snaps, rho1, lhs_spec, filt)
    rhs = besov_norm(u0, spec, filt) + mu ** (inv_r2 - 1.0) * time_besov_norm(
        f_snapshots, rho2, f_spec, filt
    )
    if rhs == 0.0:
        return math.nan
    return lhs / rhs
