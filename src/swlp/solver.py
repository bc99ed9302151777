"""Time integration of the perturbation system around the heat-driven state.

State: the exactly evolved q1 (hence rho1 and u1 = -mu grad ln rho1) plus a
perturbation pair (h2, u2); the physical fields are recomposed as
rho = rho1 * exp(h2) and u = u1 + u2.

The perturbation system integrated here is the exact reformulation of the
full system obtained by substituting the recomposition into mass/momentum
and subtracting the pressureless identities satisfied by (rho1, u1):

    d_t h2 + u . grad h2 + div u2 = -u2 . grad ln rho1
    d_t u2 + u . grad u2 - mu div_sym(u2) + a grad h2 =
        -u2 . grad u1 + mu grad ln rho1 . D(u2) - c_f grad ln rho1
        + mu grad h2 . D(u1) + mu grad h2 . D(u2)           [- r u2]

where div_sym(w) = (Lap w + grad div w)/2 = div D(w) is the viscous
operator induced by the symmetric gradient, c_f is the pressure-forcing
coefficient (a in shallow-water mode, 1/Fr^2 - r*mu in friction mode, where
it vanishes exactly under r*mu*Fr^2 = 1), and the bracketed drag appears in
friction mode only.  grad v . D(w) contracts as sum_j d_j v (Dw)_{ji}
(D is symmetric, so the two index readings coincide).

Stepping is first-order IMEX: explicit transport/couplings, exact implicit
multipliers for diffusion (and drag), applied per Helmholtz component --
irrotational modes decay by 1/(1 + (mu |xi|^2 + r) dt), solenoidal modes by
1/(1 + (mu |xi|^2 / 2 + r) dt).

``full_residual`` and ``scaling_check`` evaluate the full system through the
one residual of the package, ``quasi._system_residual``, with the
configuration's ``pressure_coeff``; ``full_residual`` adds its ``drag``,
``scaling_check`` drops the time terms and the drag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .besov import HybridBesovSpec, _time_hybrid, block_norms, hybrid_besov_norm, lp_norm
from .dyadic import DyadicFilter, default_filter
from .grid import (
    _OPERATOR_CACHE,
    Grid,
    SpectralField,
    _jacobian,
    _read_only,
    dealias,
    dealias_mask,
    dilate,
    div,
    grad,
    helmholtz_split,
    inverse_transform,
    laplacian,
    mult,
    transform,
    xi_mag2,
)
from .quasi import (
    HeatState,
    _check_floor,
    _heat_rates,
    _rel_l2,
    _rows,
    _system_residual,
    heat_evolve,
    velocity_from_density,
)

__all__ = [
    "SolverConfig",
    "SimState",
    "CflError",
    "BlowupError",
    "initial_state",
    "assemble_rhs",
    "step",
    "recompose",
    "full_residual",
    "gronwall_integrand",
    "GronwallTracker",
    "ft_specs",
    "FtTracker",
    "scaling_check",
    "random_band_field",
]

MODES = ("shallow_water", "friction", "heat_only")


class CflError(RuntimeError):
    pass


class BlowupError(RuntimeError):
    """Raised when a non-finite sample appears; carries the last valid state."""

    def __init__(self, message: str, last_state: "SimState"):
        super().__init__(message)
        self.last_state = last_state


def _check_finite(config) -> None:
    """Reject a NaN or infinite float in any field of a config dataclass, naming the field."""
    for name, value in vars(config).items():
        if any(isinstance(v, float) and not math.isfinite(v) for v in np.ravel(value)):
            raise ValueError(f"{name} = {value} must be finite")


@dataclass(frozen=True)
class SolverConfig:
    mu: float = 0.1
    a: float = 1e-5
    Fr: float = 1.0
    r_fric: float = 0.0
    mode: str = "shallow_water"
    dt: float = 0.05
    cfl_max: float = 0.4
    forcing: bool = True

    def __post_init__(self):
        _check_finite(self)
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.Fr <= 0:
            raise ValueError("Fr must be positive")
        if self.r_fric < 0:
            raise ValueError("r_fric must be nonnegative")
        if self.cfl_max <= 0:
            raise ValueError("cfl_max must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "shallow_water" and self.a <= 0:
            raise ValueError("a must be positive in shallow_water mode")

    @property
    def pressure_coeff(self) -> float:
        """Coefficient of grad h2 in the perturbation momentum equation."""
        if self.mode == "friction":
            return 1.0 / self.Fr**2
        return self.a

    @property
    def forcing_coeff(self) -> float:
        """Coefficient of grad ln rho1 (the quasi-solution's pressure defect)."""
        if not self.forcing:
            return 0.0
        if self.mode == "friction":
            return 1.0 / self.Fr**2 - self.r_fric * self.mu
        return self.a

    @property
    def drag(self) -> float:
        return self.r_fric if self.mode == "friction" else 0.0


@dataclass(frozen=True)
class SimState:
    t: float
    q1: SpectralField
    h2: SpectralField
    u2: SpectralField
    u1_cache: SpectralField

    @property
    def grid(self) -> Grid:
        return self.q1.grid

    def heat_state(self, mu: float) -> HeatState:
        return HeatState(t=self.t, q1=self.q1, mu=mu)

    @cached_property
    def _exp_h2(self) -> np.ndarray:
        """e^{h2} at the grid points; built once per state."""
        return np.exp(self.h2.values[0])

    @cached_property
    def _rho_values(self) -> np.ndarray:
        """rho1 e^{h2} at the grid points, checked against the density floor; built once per state."""
        rho_vals = (1.0 + self.q1.values[0]) * self._exp_h2
        _check_floor(rho_vals)
        return rho_vals

    @cached_property
    def _recomposed(self) -> tuple[SpectralField, SpectralField]:
        """(rho, u) = (rho1 e^{h2}, u1 + u2), re-band-limited; built once per state."""
        rho = dealias(SpectralField.from_values(self.grid, self._rho_values))
        return rho, self.u1_cache + self.u2


def initial_state(
    q1: SpectralField,
    h2: SpectralField,
    u2: SpectralField,
    config: SolverConfig,
) -> SimState:
    g = q1.grid
    if h2.ncomp != 1 or u2.ncomp != g.dim:
        raise ValueError("h2 must be scalar and u2 a dim-component field")
    q1 = dealias(q1)
    h2 = dealias(h2)
    u2 = dealias(u2)
    u1 = velocity_from_density(HeatState(t=0.0, q1=q1, mu=config.mu))
    state = SimState(t=0.0, q1=q1, h2=h2, u2=u2, u1_cache=u1)
    state._rho_values  # the density floor fails here, before any step
    return state


def assemble_rhs(state: SimState, config: SolverConfig) -> tuple[SpectralField, SpectralField]:
    """Explicit right-hand sides ``(h2_rhs, u2_rhs)`` of the perturbation system.

    Diffusion of u2 (and the friction drag) are left to the implicit part
    of the stepper and are not included here.  Everything is assembled in
    collocation space with one forward transform per output component.
    """
    g = state.grid
    dim = g.dim
    mu = config.mu
    state._rho_values  # checks the density floor, once per state

    u1v = state.u1_cache.values
    u2v = state.u2.values
    # grad ln rho1 = -u1/mu, so its derivatives come from u1's coefficients
    glr = -u1v / mu
    gh2 = inverse_transform(_jacobian(state.h2.coeffs[0], g), g)
    du2 = inverse_transform(_jacobian(state.u2.coeffs, g), g)
    # (Du1)_{ij} = -mu d_i d_j ln rho1, already symmetric: transform the upper triangle only
    upper = np.triu_indices(dim)
    du1_upper = inverse_transform(_jacobian(state.u1_cache.coeffs, g)[upper], g)
    du1 = np.empty((dim, dim, *g.shape))
    du1[upper] = du1_upper
    du1[upper[::-1]] = du1_upper
    Du2 = 0.5 * (du2 + np.swapaxes(du2, 0, 1))
    utot = u1v + u2v

    h2_rhs_v = -np.einsum("j...,j...->...", utot, gh2)
    h2_rhs_v -= np.einsum("jj...->...", du2)
    h2_rhs_v -= np.einsum("j...,j...->...", u2v, glr)

    u2_rhs_v = -np.einsum("j...,ij...->i...", utot, du2)
    u2_rhs_v -= config.pressure_coeff * gh2
    u2_rhs_v -= np.einsum("j...,ji...->i...", u2v, du1)
    u2_rhs_v += mu * np.einsum("j...,ji...->i...", glr, Du2)
    u2_rhs_v -= config.forcing_coeff * glr
    u2_rhs_v += mu * np.einsum("j...,ji...->i...", gh2, du1 + Du2)

    mask = dealias_mask(g)
    h2_rhs = SpectralField(g, transform(h2_rhs_v[None], g) * mask)
    u2_rhs = SpectralField(g, transform(u2_rhs_v, g) * mask)
    return h2_rhs, u2_rhs


@lru_cache(maxsize=_OPERATOR_CACHE)
def _implicit_multipliers(grid: Grid, config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Implicit decay of the irrotational and solenoidal parts; built once per (grid, config), read-only."""
    mag2 = xi_mag2(grid)
    m_par = 1.0 / (1.0 + config.dt * (config.mu * mag2 + config.drag))
    m_sol = 1.0 / (1.0 + config.dt * (0.5 * config.mu * mag2 + config.drag))
    return _read_only(m_par), _read_only(m_sol)


def _implicit_solve(u2_coeffs: np.ndarray, grid: Grid, m_par, m_sol) -> np.ndarray:
    f = SpectralField(grid, u2_coeffs)
    par, sol = helmholtz_split(f)
    return par.coeffs * m_par + sol.coeffs * m_sol


def cfl_number(state: SimState, config: SolverConfig) -> float:
    # the values of both fields are cached on them, and assemble_rhs reads them too
    umax = float(np.abs(state.u1_cache.values + state.u2.values).max())
    g = state.grid
    return umax * config.dt * g.n / min(g.period)


def step(state: SimState, config: SolverConfig) -> SimState:
    """One IMEX step; q1 advances by its exact semigroup."""
    g = state.grid
    dt = config.dt
    heat_next = heat_evolve(state.q1, config.mu, dt)
    q1_next = heat_next.q1
    if config.mode == "heat_only":
        u1_next = velocity_from_density(heat_next)
        return SimState(t=state.t + dt, q1=q1_next, h2=state.h2, u2=state.u2, u1_cache=u1_next)

    cfl = cfl_number(state, config)
    if cfl > config.cfl_max:
        raise CflError(f"advective CFL {cfl:.3g} exceeds cap {config.cfl_max:.3g}")

    m_par, m_sol = _implicit_multipliers(g, config)
    h2_rhs, u2_rhs = assemble_rhs(state, config)
    h2_new = state.h2.coeffs + dt * h2_rhs.coeffs
    u2_new = _implicit_solve(state.u2.coeffs + dt * u2_rhs.coeffs, g, m_par, m_sol)

    h2_f = dealias(SpectralField(g, h2_new))
    u2_f = dealias(SpectralField(g, u2_new))
    if not (np.isfinite(h2_f.values).all() and np.isfinite(u2_f.values).all()):
        raise BlowupError(f"non-finite sample at t = {state.t + dt:g}", state)
    u1_next = velocity_from_density(heat_next)
    return SimState(t=state.t + dt, q1=q1_next, h2=h2_f, u2=u2_f, u1_cache=u1_next)


def recompose(state: SimState) -> tuple[SpectralField, SpectralField]:
    """(rho, u) = (rho1 e^{h2}, u1 + u2), re-band-limited.

    Computed once per state: every later call returns the same two fields.
    """
    return state._recomposed


def full_residual(
    state: SimState,
    config: SolverConfig,
    include_perturbation_rate: bool = False,
) -> tuple[float, float]:
    """Relative L2 residuals of the recomposed (rho, u) in the full system.

    By default the perturbation pair is treated as frozen (d_t h2 = d_t u2
    = 0) so the result measures the defect of the current state as a
    candidate solution whose only dynamics is the heat flow -- for
    h2 = u2 = 0 in shallow-water mode this isolates exactly the pressure
    term, and in friction mode with r mu Fr^2 = 1 it vanishes.  With
    ``include_perturbation_rate=True`` the time derivatives of (h2, u2) are
    substituted from the perturbation system, which certifies that the
    integrated system is an exact reformulation (residuals at the spectral
    truncation floor for any state).
    """
    g = state.grid
    mu = config.mu
    rho, u = recompose(state)
    _, drho1_dt, du1_dt = _heat_rates(state.heat_state(mu))

    exp_h2 = dealias(SpectralField.from_values(g, state._exp_h2))
    drho_dt = mult(drho1_dt, exp_h2)
    du_dt = du1_dt
    if include_perturbation_rate:
        h2_rhs, u2_rhs = assemble_rhs(state, config)
        # the implicit part of the step: mu div D(u2) - drag u2
        u2 = state.u2
        du2_dt = u2_rhs + (laplacian(u2) + grad(div(u2))) * (0.5 * mu) + u2 * (-config.drag)
        drho_dt = drho_dt + mult(rho, h2_rhs)
        du_dt = du_dt + du2_dt
    _, _, mass_rel, mom_rel = _system_residual(
        rho, u, drho_dt, du_dt, mu, config.pressure_coeff, config.drag
    )
    return mass_rel, mom_rel


def gronwall_integrand(state: SimState, filt: DyadicFilter, l0: int = 0) -> float:
    """Instantaneous integrand of the Gronwall exponent V(T)."""
    dim = state.grid.dim
    spec_q_quartic = HybridBesovSpec(dim / 2 - 0.5, dim / 2 + 0.5, 2, 2, math.inf, math.inf, l0)
    spec_q_linear = HybridBesovSpec(dim / 2 + 1, dim / 2 + 2, 2, 2, math.inf, math.inf, l0)
    spec_du1 = HybridBesovSpec(dim / 2 - 1, dim / 2, 2, 2, math.inf, math.inf, l0)
    q1 = state.q1
    u1 = state.u1_cache
    u = u1 + state.u2
    du1 = grad_norm_field(u1)
    du = grad_norm_field(u)
    return (
        hybrid_besov_norm(q1, spec_q_quartic, filt) ** 4
        + hybrid_besov_norm(q1, spec_q_linear, filt)
        + max(lp_norm(du1, math.inf), hybrid_besov_norm(du1, spec_du1, filt))
        + lp_norm(du, math.inf)
    )


class GronwallTracker:
    """V(T): trapezoidal integral of ``gronwall_integrand`` over the snapshots so far."""

    def __init__(self, filt: DyadicFilter, l0: int = 0):
        self.filt = filt
        self.l0 = l0
        self.history: list[tuple[float, float]] = []

    def update(self, state: SimState) -> float:
        self.history.append((state.t, gronwall_integrand(state, self.filt, self.l0)))
        times, values = zip(*self.history)
        return float(np.trapezoid(values, times))


def grad_norm_field(u: SpectralField) -> SpectralField:
    """All first derivatives of a vector field, stacked as components: d_j u_i is component i*dim + j."""
    g = u.grid
    return SpectralField(g, _rows(_jacobian(u.coeffs, g)))


def ft_specs(dim: int, l0: int = 0):
    """The four hybrid specs of the working norm: the sup-in-time pair, then the time-integrated pair."""
    return {
        "h2_inf": HybridBesovSpec(dim / 2 - 1, dim / 2, 2, 2, 1, 1, l0),
        "u2_inf": HybridBesovSpec(dim / 2 - 1, dim / 2 - 1, 2, 2, 1, 1, l0),
        "h2_l1": HybridBesovSpec(dim / 2 + 1, dim / 2, 2, 2, 1, 1, l0),
        "u2_l1": HybridBesovSpec(dim / 2 + 1, dim / 2 + 1, 2, 2, 1, 1, l0),
    }


class FtTracker:
    """Working-space norm of a growing (h2, u2) history.

    The norm is the sum of four Chemin-Lerner hybrid norms: a sup-in-time
    pair and a time-integrated pair.  The tracker keeps the snapshot times
    and a row of p = 2 block norms per field and snapshot, so a snapshot
    costs one block decomposition per field; the value is the time norm of
    those rows.
    """

    def __init__(self, filt: DyadicFilter, l0: int = 0):
        self.filt = filt
        self.specs = ft_specs(filt.grid.dim, l0)
        self.times: list[float] = []
        self.rows: dict[str, list[list[float]]] = {"h2": [], "u2": []}

    def update(self, state: SimState) -> float:
        self.times.append(state.t)
        for key, rows in self.rows.items():
            rows.append(list(block_norms(getattr(state, key), 2.0, self.filt).values()))
        return self.value()

    def value(self) -> float:
        times = np.asarray(self.times)
        out = 0.0
        for name, hspec in self.specs.items():
            key, time_norm = name.split("_")
            rho = math.inf if time_norm == "inf" else 1.0
            out += _time_hybrid(times, {2.0: self.rows[key]}, rho, hspec, self.filt.levels)
        return out


def scaling_check(
    state: SimState,
    config: SolverConfig,
    l_factor: int,
    adjust_pressure: bool = True,
) -> float:
    """Equivariance defect of the spatial operators under x -> l x, u -> l u.

    Compares the convective + viscous + pressure (with the coefficient
    rescaled by l^2 when ``adjust_pressure``) momentum operator applied to
    the index-dilated state against the dilated, l^3-scaled operator output;
    the mass-flux operator is checked with factor l^2.  Returns the max of
    the two relative discrepancies.
    """
    rho, u = recompose(state)
    # The exactness of the check needs triple products of the dilated
    # fields to stay inside the dealiased band, and the operator output of
    # the undilated fields to stay dilatable: |k| < n/(10 l) is safe.
    band = 1.0 / (5.0 * l_factor)
    rho = dealias(rho, band)
    u = dealias(u, band)
    rho_d = dilate(rho, l_factor)
    u_d = dilate(u, l_factor) * float(l_factor)
    a = config.pressure_coeff
    a_resc = a * l_factor**2 if adjust_pressure else a

    # drag is left out: r rho u scales with l, not l^3
    mass_lhs, mom_lhs, _, _ = _system_residual(rho_d, u_d, None, None, config.mu, a_resc, 0.0)
    mass, mom, _, _ = _system_residual(rho, u, None, None, config.mu, a, 0.0)
    mom_rhs = dilate(mom, l_factor) * float(l_factor**3)
    mass_rhs = dilate(mass, l_factor) * float(l_factor**2)
    return max(
        _rel_l2(mom_lhs - mom_rhs, [mom_lhs, mom_rhs]),
        _rel_l2(mass_lhs - mass_rhs, [mass_lhs, mass_rhs]),
    )


def _check_band(name: str, l_lo: int, l_hi: int, l_min: int, l_max: int) -> None:
    if max(l_lo, l_min) > min(l_hi, l_max):
        raise ValueError(f"{name} = [{l_lo}, {l_hi}] holds none of the filter levels [{l_min}, {l_max}]")


def random_band_field(
    grid: Grid,
    rng: np.random.Generator,
    l_lo: int,
    l_hi: int,
    ncomp: int = 1,
    filt: DyadicFilter | None = None,
    amplitude: float = 1.0,
    norm: str = "linf",
) -> SpectralField:
    """Random real field band-limited to dyadic blocks [l_lo, l_hi].

    Normalized so the chosen norm ("linf" or "l2") equals ``amplitude``.
    A band that holds none of the filter's levels is rejected.
    """
    if filt is None:
        filt = default_filter(grid)
    _check_band("[l_lo, l_hi]", l_lo, l_hi, filt.l_min, filt.l_max)
    noise = rng.standard_normal((ncomp, *grid.shape))
    f = SpectralField.from_values(grid, noise)
    f = SpectralField(grid, f.coeffs * filt.band(l_lo, l_hi))
    if norm == "linf":
        scale = lp_norm(f, math.inf)
    elif norm == "l2":
        scale = lp_norm(f, 2.0)
    else:
        raise ValueError(f"unknown normalization {norm!r}")
    if scale == 0.0:
        return f
    return f * (amplitude / scale)
