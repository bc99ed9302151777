"""Heat-driven irrotational states and their exactness diagnostics.

A state carries q1 = rho1 - 1 where rho1 solves d_t rho1 = mu * Lap rho1
exactly (Fourier multiplier), and the derived velocity is
u1 = -mu * grad(ln rho1).  The pair (rho1, u1) solves the pressureless
system (mass + viscous momentum, no pressure) identically, and the
friction system with drag r and Froude number Fr whenever r*mu*Fr^2 = 1.
Time derivatives in all residuals are substituted analytically from the
heat equation, never finite-differenced.

The viscous shallow-water system (mass and momentum, with a pressure and a
drag coefficient) is written once, in ``_system_residual``: the
quasi-solution and friction residuals here, and ``solver.full_residual``
and ``solver.scaling_check``, all evaluate it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .besov import (
    BesovSpec,
    _as_hybrid,
    _check_times,
    _time_hybrid,
    besov_norm,
    block_norms,
    lp_norm,
    time_besov_norm,
)
from .dyadic import DyadicFilter
from .grid import (
    Grid,
    SpectralField,
    _dealias_in_place,
    _divergence,
    _read_only,
    dealias_mask,
    dealiased_from_values,
    div,
    grad,
    laplacian,
    mult,
    parseval_power,
    shift_phase,
    sym_grad,
    transform,
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


def _check_floor(rho_values: np.ndarray) -> None:
    """Reject density samples below ``DENSITY_FLOOR`` or NaN (a minimum over values, no transform)."""
    low = float(rho_values.min())
    if not low >= DENSITY_FLOOR:
        raise ValueError(f"density floor violated: min(rho) = {low:.3g} < {DENSITY_FLOOR:.3g}")


# the one key that repeats is the step's (grid, mu, dt): a run calls heat_evolve
# with nothing else between its steps, so one entry serves every hit
@lru_cache(maxsize=1)
def _heat_multiplier(grid: Grid, mu: float, t: float) -> np.ndarray:
    """The heat semigroup e^{-mu |xi|^2 t} on the lattice; built once per (grid, mu, t), read-only."""
    return _read_only(np.exp(-mu * xi_mag2(grid) * t))


def heat_evolve(q1_initial: SpectralField, mu: float, t: float) -> HeatState:
    """Exact semigroup solution of d_t rho1 = mu Lap rho1 at time t >= 0."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if q1_initial.ncomp != 1:
        raise ValueError("q1 must be a scalar field")
    _check_floor(1.0 + q1_initial.values[0])
    coeffs = q1_initial.coeffs * _heat_multiplier(q1_initial.grid, mu, t)
    return HeatState(t=t, q1=SpectralField(q1_initial.grid, coeffs), mu=mu)


def log_density(q1: SpectralField) -> SpectralField:
    """ln(1 + q1) evaluated pointwise and re-projected to the dealiased band.

    The log is not band-limited; a warning fires when the discarded tail
    carries more than 1e-10 of the L2 mass.
    """
    g = q1.grid
    rho = 1.0 + q1.values[0]
    _check_floor(rho)
    coeffs = transform(np.log(rho)[None], g)
    # the mask is even in k, so the power of the trimmed field is the masked power
    power = parseval_power(coeffs, g)
    total = float(np.sum(power))
    kept = float(np.sum(power * dealias_mask(g)))
    if total > 0 and (total - kept) / total > LOG_TAIL_TOL:
        warnings.warn(
            "log-density truncation tail exceeds 1e-10 of the L2 mass; "
            "increase resolution",
            stacklevel=3,
        )
    return SpectralField(g, _dealias_in_place(coeffs, g))


def velocity_from_density(state: HeatState) -> SpectralField:
    """u1 = -mu grad(ln rho1); irrotational by construction."""
    return grad(log_density(state.q1)) * (-state.mu)


def max_principle_check(
    state: HeatState, initial_min: float, initial_max: float
) -> tuple[float, float, bool]:
    """min and max of rho1, and whether both stay within 1e-8 of the initial range."""
    rho = state.rho1_values()
    lo, hi = float(rho.min()), float(rho.max())
    ok = lo >= initial_min - 1e-8 and hi <= initial_max + 1e-8
    return lo, hi, ok


def gaussian_bump(grid: Grid, amplitude: float, width: float, mu: float) -> SpectralField:
    """Gaussian bump at the box center with variance 2*mu*width per axis.

    ``width`` is the diffusion-time offset t0: the bump evolves under the
    heat flow exactly like the kernel at time t0 + t, so its L^p norms
    follow (t0 + t)^{-r} power laws with no transient.  Built in Fourier
    space, hence exactly periodic.  A negative ``amplitude`` gives a dip.
    """
    var = 2.0 * mu * width
    phase = shift_phase(grid, [a / 2 for a in grid.period])
    coeffs = abs(amplitude) * np.exp(-var * xi_mag2(grid) / 2.0 + phase)
    # scale the unsigned profile so its peak is |amplitude|, with amplitude's sign
    f = SpectralField(grid, coeffs[None])
    peak = float(np.abs(f.values).max())
    return f * (amplitude / peak) if peak > 0 else f


def kernel_decay_fit(
    q1_initial: SpectralField,
    mu: float,
    alpha_order: int,
    p: float,
    t_window: tuple[float, float],
) -> float:
    """Log-log slope (positive convention) of ||D^alpha q1(t)||_{L^p} vs 1+t,
    sampled at 24 log-spaced times.

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
    times = np.geomspace(1.0 + t0, 1.0 + t1, 24) - 1.0
    norms = np.empty(times.size)
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


def _heat_rates(state: HeatState):
    """(rho1, d_t rho1, d_t u1) with the rates substituted from the heat equation:
    d_t rho1 = mu Lap rho1 and d_t u1 = -mu grad(d_t rho1 / rho1)."""
    q1 = state.q1
    rho = q1.with_mean(q1.mean() + 1.0)
    drho_dt = laplacian(rho) * state.mu
    du1_dt = grad(mult(drho_dt, _reciprocal(rho))) * (-state.mu)
    return rho, drho_dt, du1_dt


def _reciprocal(rho: SpectralField) -> SpectralField:
    vals = rho.values
    _check_floor(vals[0])
    return dealiased_from_values(rho.grid, 1.0 / vals)


def _row_div(tensor: SpectralField) -> SpectralField:
    """Row divergence of a tensor stacked row-major as dim*dim components:
    component i is sum_j d_j T_ij."""
    g = tensor.grid
    c = tensor.coeffs
    return SpectralField(g, _divergence(c.reshape(g.dim, g.dim, *c.shape[1:]), g))


def _rows(tensor: np.ndarray) -> np.ndarray:
    """A (dim, dim, ...) tensor stacked row-major as dim*dim components."""
    return tensor.reshape(-1, *tensor.shape[2:])


def _rel_l2(residual: SpectralField, scales: list[SpectralField]) -> float:
    num = lp_norm(residual, 2.0)
    den = max((lp_norm(s, 2.0) for s in scales), default=0.0)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _system_residual(rho, u, drho_dt, du_dt, mu: float, pressure: float, drag: float):
    """The viscous shallow-water system at (rho, u): ``(mass, momentum, mass_rel, momentum_rel)``.

    mass:     d_t rho + div(rho u)
    momentum: d_t(rho u) + div(rho u x u) - div(mu rho D(u)) + pressure grad(rho) + drag rho u

    The rates ``drho_dt`` and ``du_dt`` are given fields, or both None to drop
    the time terms.  The relative residuals divide each L2 norm by the
    largest L2 norm of its terms.  A zero ``pressure`` or ``drag`` adds exact
    zeros: the sum is bit-for-bit the sum without that term.
    """
    g = u.grid
    rho_u = mult(rho, u)
    # all products u_i (rho u)_j in one forward transform and one dealias (it is linear)
    outer = u.values[:, None] * rho_u.values[None, :]
    conv = _row_div(dealiased_from_values(g, _rows(outer)))
    visc = _row_div(mult(rho, SpectralField(g, _rows(sym_grad(u))))) * mu
    mass_terms = [div(rho_u)]
    mom_terms = [conv, -visc, grad(rho) * pressure, rho_u * drag]
    if drho_dt is not None:
        mass_terms.insert(0, drho_dt)
        mom_terms.insert(0, mult(drho_dt, u) + mult(rho, du_dt))
    # added left to right, time term first
    mass = sum(mass_terms[1:], mass_terms[0])
    mom = sum(mom_terms[1:], mom_terms[0])
    return mass, mom, _rel_l2(mass, mass_terms), _rel_l2(mom, mom_terms)


def quasi_residual(state: HeatState) -> tuple[float, float]:
    """Relative L2 residuals of the pressureless system at the state.

    mass:     d_t rho1 + div(rho1 u1)
    momentum: d_t(rho1 u1) + div(rho1 u1 x u1) - div(mu rho1 D(u1))
    with d_t terms substituted analytically via the heat equation.
    """
    rho, drho_dt, du1_dt = _heat_rates(state)
    u1 = velocity_from_density(state)
    _, _, mass_rel, mom_rel = _system_residual(rho, u1, drho_dt, du1_dt, state.mu, 0.0, 0.0)
    return mass_rel, mom_rel


@dataclass(frozen=True)
class FrictionReport:
    residual: float
    certified: bool
    relation_error: float
    absolute_residual: float
    grad_rho_norm: float


def friction_exact_residual(state: HeatState, Fr: float, r: float) -> FrictionReport:
    """Relative L2 momentum residual of the friction system at the state.

    Includes grad(rho)/Fr^2 + r rho u; the friction and pressure terms
    cancel exactly iff r * mu * Fr^2 = 1.  When the relation fails the
    residual is still reported but exactness certification is refused.
    """
    if Fr <= 0 or r < 0:
        raise ValueError("need Fr > 0 and r >= 0")
    rho, drho_dt, du1_dt = _heat_rates(state)
    u1 = velocity_from_density(state)
    _, mom_res, _, rel = _system_residual(rho, u1, drho_dt, du1_dt, state.mu, 1.0 / Fr**2, r)
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
    rho2: float,
    mu: float,
    filt: DyadicFilter,
) -> tuple[float, float]:
    """Diagnostic ratio for the smoothing estimate of the forced heat flow.

    Solves d_t u - mu Lap u = f by exact multiplier plus trapezoidal
    Duhamel on the forcing snapshots, then returns

        ||u||_{Ltilde^rho1(B^{s + 2/rho1})} /
        ( ||u0||_{B^s} + mu^{1/rho2 - 1} ||f||_{Ltilde^rho2(B^{s - 2 + 2/rho2})} )

    for rho1 = inf and rho1 = rho2, the ends of the range that bound every
    rho1 between them (Hoelder in time).  nan when both data are zero.
    """
    times = _check_times([t for t, _ in f_snapshots])
    if times[0] != 0.0:
        raise ValueError("forcing snapshots must start at t = 0")
    inv_r2 = 0.0 if math.isinf(rho2) else 1.0 / rho2
    f_spec = BesovSpec(spec.s - 2.0 + 2.0 * inv_r2, spec.p, spec.r)
    rhs = besov_norm(u0, spec, filt) + mu ** (inv_r2 - 1.0) * time_besov_norm(
        f_snapshots, rho2, f_spec, filt
    )
    if rhs == 0.0:
        return math.nan, math.nan
    g = u0.grid
    mag2 = xi_mag2(g)
    u_fields = [u0]
    u_prev = u0.coeffs
    for (t_prev, f_prev), (t_next, f_next) in zip(f_snapshots[:-1], f_snapshots[1:]):
        dt = t_next - t_prev
        decay = np.exp(-mu * mag2 * dt)
        u_next = decay * u_prev + 0.5 * dt * (decay * f_prev.coeffs + f_next.coeffs)
        u_fields.append(SpectralField(g, u_next))
        u_prev = u_next

    rows = {spec.p: [list(block_norms(f, spec.p, filt).values()) for f in u_fields]}
    ends = []
    for rho1, inv_r1 in ((math.inf, 0.0), (rho2, inv_r2)):
        lhs_spec = _as_hybrid(BesovSpec(spec.s + 2.0 * inv_r1, spec.p, spec.r), filt)
        ends.append(_time_hybrid(times, rows, rho1, lhs_spec, filt.levels) / rhs)
    return ends[0], ends[1]
