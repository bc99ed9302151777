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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .besov import HybridBesovSpec, block_norms, hybrid_besov_norm, lp_norm
from .dyadic import DyadicFilter, default_filter
from .grid import (
    Grid,
    SpectralField,
    dealias,
    dealias_mask,
    dilate,
    div,
    grad,
    helmholtz_split,
    inverse_transform,
    mult,
    sym_grad,
    transform,
    xi_mag2,
)
from .quasi import (
    DENSITY_FLOOR,
    HeatState,
    _div_outer,
    _div_scaled_symgrad,
    _heat_rates,
    _rel_l2,
    heat_evolve,
    velocity_from_density,
)

__all__ = [
    "SolverConfig",
    "SimState",
    "RhsTerms",
    "CflError",
    "BlowupError",
    "initial_state",
    "assemble_rhs",
    "step",
    "recompose",
    "full_residual",
    "mass_drift",
    "gronwall_integrand",
    "GronwallTracker",
    "ft_specs",
    "FtTracker",
    "ft_norm",
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
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
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

    @property
    def friction_exact(self) -> bool:
        return abs(self.r_fric * self.mu * self.Fr**2 - 1.0) <= 1e-12


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


@dataclass
class RhsTerms:
    h2_rhs: SpectralField
    u2_rhs: SpectralField
    terms: dict[str, SpectralField] = field(repr=False, default_factory=dict)

    def term_norms(self) -> dict[str, float]:
        return {k: lp_norm(v, 2.0) for k, v in self.terms.items()}


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
    rho = (1.0 + q1.values[0]) * np.exp(h2.values[0])
    if rho.min() < DENSITY_FLOOR:
        raise ValueError("recomposed density below the floor at t = 0")
    u1 = velocity_from_density(HeatState(t=0.0, q1=q1, mu=config.mu))
    return SimState(t=0.0, q1=q1, h2=h2, u2=u2, u1_cache=u1)


def _grad_contract_sym(v_grad: SpectralField, D: np.ndarray, grid: Grid) -> SpectralField:
    """(grad v . D w)_i = sum_j d_j v (Dw)_{ji}, dealiased."""
    out = SpectralField.zeros(grid, grid.dim)
    for i in range(grid.dim):
        acc = None
        for j in range(grid.dim):
            prod = mult(v_grad.component(j), SpectralField(grid, D[j, i][None]))
            acc = prod if acc is None else acc + prod
        out.coeffs[i] = acc.coeffs[0]
    return out


def _advect_scalar(u: SpectralField, s_grad: SpectralField, grid: Grid) -> SpectralField:
    """u . grad s for a scalar s, given grad s."""
    acc = None
    for j in range(grid.dim):
        prod = mult(u.component(j), s_grad.component(j))
        acc = prod if acc is None else acc + prod
    return acc


def _advect_vector(u: SpectralField, w: SpectralField, grid: Grid) -> SpectralField:
    """(u . grad) w for a vector w."""
    xi = grid.xi_grids()
    out = SpectralField.zeros(grid, grid.dim)
    for i in range(grid.dim):
        acc = None
        for j in range(grid.dim):
            dw = SpectralField(grid, (1j * xi[j] * w.coeffs[i])[None])
            prod = mult(u.component(j), dw)
            acc = prod if acc is None else acc + prod
        out.coeffs[i] = acc.coeffs[0]
    return out


def assemble_rhs(state: SimState, config: SolverConfig, with_terms: bool = False) -> RhsTerms:
    """Explicit right-hand sides of the perturbation system.

    Diffusion of u2 (and the friction drag) are left to the implicit part
    of the stepper and are not included here.  The default path assembles
    everything in collocation space with one forward transform per output
    component; ``with_terms`` switches to the slower per-term construction
    exposing the named breakdown.
    """
    if with_terms:
        return _assemble_rhs_terms(state, config)
    g = state.grid
    dim = g.dim
    mu = config.mu
    rho = (1.0 + state.q1.values[0]) * np.exp(state.h2.values[0])
    if rho.min() < DENSITY_FLOOR:
        raise ValueError("recomposed density below the floor")

    xi = g.xi_grids()
    u1c = state.u1_cache.coeffs
    u1v = state.u1_cache.values
    u2v = state.u2.values
    # grad ln rho1 = -u1/mu, so its derivatives come from u1's coefficients
    glr = -u1v / mu
    gh2 = inverse_transform(
        np.stack([1j * xi[j] * state.h2.coeffs[0] for j in range(dim)]), g
    )
    du2 = inverse_transform(
        np.stack([1j * xi[j] * state.u2.coeffs[i] for i in range(dim) for j in range(dim)]),
        g,
    ).reshape(dim, dim, *g.shape)
    # (Du1)_{ij} = -mu d_i d_j ln rho1, already symmetric
    iu = [(i, j) for i in range(dim) for j in range(i, dim)]
    du1_flat = inverse_transform(
        np.stack([1j * xi[j] * u1c[i] for i, j in iu]), g
    )
    du1 = np.empty((dim, dim, *g.shape))
    for k, (i, j) in enumerate(iu):
        du1[i, j] = du1_flat[k]
        du1[j, i] = du1_flat[k]
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
    return RhsTerms(h2_rhs=h2_rhs, u2_rhs=u2_rhs)


def _assemble_rhs_terms(state: SimState, config: SolverConfig) -> RhsTerms:
    g = state.grid
    mu = config.mu
    lnrho1_grad = state.u1_cache * (-1.0 / mu)  # grad ln rho1
    rho = (1.0 + state.q1.values[0]) * np.exp(state.h2.values[0])
    if rho.min() < DENSITY_FLOOR:
        raise ValueError("recomposed density below the floor")
    u1 = state.u1_cache
    u_tot = u1 + state.u2
    h2_grad = grad(state.h2)
    Du1 = sym_grad(u1)
    Du2 = sym_grad(state.u2)

    terms_h: dict[str, SpectralField] = {}
    terms_h["h2_transport"] = _advect_scalar(u_tot, h2_grad, g) * (-1.0)
    terms_h["h2_div_u2"] = div(state.u2) * (-1.0)
    terms_h["h2_coupling"] = _advect_scalar(state.u2, lnrho1_grad, g) * (-1.0)

    terms_u: dict[str, SpectralField] = {}
    terms_u["u2_transport"] = _advect_vector(u_tot, state.u2, g) * (-1.0)
    terms_u["u2_pressure"] = grad(state.h2) * (-config.pressure_coeff)
    terms_u["u2_shear_u1"] = _advect_vector(state.u2, u1, g) * (-1.0)
    terms_u["u2_visc_coupling"] = _grad_contract_sym(lnrho1_grad, Du2, g) * mu
    terms_u["u2_forcing"] = lnrho1_grad * (-config.forcing_coeff)
    terms_u["u2_h2_du1"] = _grad_contract_sym(h2_grad, Du1, g) * mu
    terms_u["u2_h2_du2"] = _grad_contract_sym(h2_grad, Du2, g) * mu

    h2_rhs = SpectralField.zeros(g, 1)
    for v in terms_h.values():
        h2_rhs = h2_rhs + v
    u2_rhs = SpectralField.zeros(g, g.dim)
    for v in terms_u.values():
        u2_rhs = u2_rhs + v
    terms = dict(terms_h)
    terms.update(terms_u)
    return RhsTerms(h2_rhs=h2_rhs, u2_rhs=u2_rhs, terms=terms)


def _implicit_multipliers(grid: Grid, config: SolverConfig, dt: float):
    mag2 = xi_mag2(grid)
    m_par = 1.0 / (1.0 + dt * (config.mu * mag2 + config.drag))
    m_sol = 1.0 / (1.0 + dt * (0.5 * config.mu * mag2 + config.drag))
    return m_par, m_sol


def _implicit_solve(u2_coeffs: np.ndarray, grid: Grid, m_par, m_sol) -> np.ndarray:
    f = SpectralField(grid, u2_coeffs)
    par, sol = helmholtz_split(f)
    return par.coeffs * m_par + sol.coeffs * m_sol


def cfl_number(state: SimState, config: SolverConfig) -> float:
    u = state.u1_cache + state.u2
    umax = float(np.abs(u.values).max())
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

    m_par, m_sol = _implicit_multipliers(g, config, dt)
    rhs = assemble_rhs(state, config)
    h2_new = state.h2.coeffs + dt * rhs.h2_rhs.coeffs
    u2_new = _implicit_solve(state.u2.coeffs + dt * rhs.u2_rhs.coeffs, g, m_par, m_sol)

    h2_f = dealias(SpectralField(g, h2_new))
    u2_f = dealias(SpectralField(g, u2_new))
    if not (np.isfinite(h2_f.values).all() and np.isfinite(u2_f.values).all()):
        raise BlowupError(f"non-finite sample at t = {state.t + dt:g}", state)
    u1_next = velocity_from_density(heat_next)
    return SimState(t=state.t + dt, q1=q1_next, h2=h2_f, u2=u2_f, u1_cache=u1_next)


def recompose(state: SimState) -> tuple[SpectralField, SpectralField]:
    """(rho, u) = (rho1 e^{h2}, u1 + u2), re-band-limited."""
    rho_vals = (1.0 + state.q1.values[0]) * np.exp(state.h2.values[0])
    if rho_vals.min() < DENSITY_FLOOR:
        raise ValueError("recomposed density below the floor")
    rho = dealias(SpectralField.from_values(state.grid, rho_vals))
    u = state.u1_cache + state.u2
    return rho, u


def _visc_sym_op(w: SpectralField, mu: float) -> SpectralField:
    """mu * div D(w) = mu/2 (Lap w + grad div w)."""
    g = w.grid
    xi = g.xi_grids()
    mag2 = xi_mag2(g)
    divw = np.zeros(g.shape, dtype=np.complex128)
    for j in range(g.dim):
        divw += 1j * xi[j] * w.coeffs[j]
    out = np.empty_like(w.coeffs)
    for i in range(g.dim):
        out[i] = 0.5 * mu * (-mag2 * w.coeffs[i] + 1j * xi[i] * divw)
    return SpectralField(g, out)


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

    if include_perturbation_rate:
        rhs = assemble_rhs(state, config)
        dh2_dt = rhs.h2_rhs
        du2_dt = rhs.u2_rhs + _visc_sym_op(state.u2, mu) + state.u2 * (-config.drag)
    else:
        dh2_dt = SpectralField.zeros(g, 1)
        du2_dt = SpectralField.zeros(g, g.dim)

    exp_h2 = dealias(SpectralField.from_values(g, np.exp(state.h2.values[0])))
    drho_dt = mult(drho1_dt, exp_h2) + mult(rho, dh2_dt)
    du_dt = du1_dt + du2_dt

    rho_u = mult(rho, u)
    mass_res = drho_dt + div(rho_u)
    mass_rel = _rel_l2(mass_res, [drho_dt, div(rho_u)])

    dt_rho_u = mult(drho_dt, u) + mult(rho, du_dt)
    conv = _div_outer(rho_u, u)
    visc = _div_scaled_symgrad(rho, u, mu)
    terms = [dt_rho_u, conv, visc]
    mom_res = dt_rho_u + conv - visc
    if config.mode == "friction":
        pressure = grad(rho) * (1.0 / config.Fr**2)
        drag = rho_u * config.r_fric
        mom_res = mom_res + pressure + drag
        terms += [pressure, drag]
    else:
        pressure = grad(rho) * config.a
        mom_res = mom_res + pressure
        terms += [pressure]
    mom_rel = _rel_l2(mom_res, terms)
    return mass_rel, mom_rel


def mass_drift(history) -> float:
    """Max relative deviation of the total mass from its initial value.

    ``history`` is a sequence of (t, total_mass) pairs or SimState objects.
    """
    masses = []
    for item in history:
        if isinstance(item, SimState):
            rho, _ = recompose(item)
            masses.append(rho.mean()[0] * item.grid.volume)
        else:
            masses.append(item[1])
    if len(masses) < 2:
        raise ValueError("need at least two snapshots")
    m0 = masses[0]
    return float(max(abs(m - m0) for m in masses) / abs(m0))


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
    """V(T): running trapezoidal integral of ``gronwall_integrand`` over snapshots."""

    def __init__(self, filt: DyadicFilter, l0: int = 0):
        self.filt = filt
        self.l0 = l0
        self.total = 0.0
        self.prev: tuple[float, float] | None = None

    def update(self, state: SimState) -> float:
        val = gronwall_integrand(state, self.filt, self.l0)
        if self.prev is not None:
            t0, v0 = self.prev
            self.total += 0.5 * (state.t - t0) * (v0 + val)
        self.prev = (state.t, val)
        return self.total


def grad_norm_field(u: SpectralField) -> SpectralField:
    """All first derivatives of a vector field, stacked as components."""
    g = u.grid
    xi = g.xi_grids()
    out = np.empty((g.dim * u.ncomp, *g.shape), dtype=np.complex128)
    idx = 0
    for i in range(u.ncomp):
        for j in range(g.dim):
            out[idx] = 1j * xi[j] * u.coeffs[i]
            idx += 1
    return SpectralField(g, out)


def ft_specs(dim: int, l0: int = 0):
    """The four hybrid specs of the working norm (h2 pair, u2 pair)."""
    return {
        "h2_inf": HybridBesovSpec(dim / 2 - 1, dim / 2, 2, 2, 1, 1, l0),
        "h2_l1": HybridBesovSpec(dim / 2 + 1, dim / 2, 2, 2, 1, 1, l0),
        "u2_inf": HybridBesovSpec(dim / 2 - 1, dim / 2 - 1, 2, 2, 1, 1, l0),
        "u2_l1": HybridBesovSpec(dim / 2 + 1, dim / 2 + 1, 2, 2, 1, 1, l0),
    }


class FtTracker:
    """Working-space norm of a growing (h2, u2) history.

    The norm is the sum of four Chemin-Lerner hybrid norms: a sup-in-time
    pair and a time-integrated pair.  The tracker keeps per-block running
    maxima and running trapezoidal integrals, so each snapshot costs one
    block decomposition per field.
    """

    def __init__(self, filt: DyadicFilter, l0: int = 0):
        self.filt = filt
        self.specs = ft_specs(filt.grid.dim, l0)
        self.sup: dict[str, dict[int, float]] = {"h2": {}, "u2": {}}
        self.integral: dict[str, dict[int, float]] = {"h2": {}, "u2": {}}
        self.prev: tuple[float, dict[str, dict[int, float]]] | None = None

    def update(self, state: SimState) -> float:
        cur = {
            "h2": block_norms(state.h2, 2.0, self.filt),
            "u2": block_norms(state.u2, 2.0, self.filt),
        }
        for key in ("h2", "u2"):
            for l, v in cur[key].items():
                self.sup[key][l] = max(self.sup[key].get(l, 0.0), v)
            if self.prev is not None:
                t0, prev = self.prev
                dt = state.t - t0
                for l in cur[key]:
                    self.integral[key][l] = self.integral[key].get(l, 0.0) + 0.5 * dt * (
                        prev[key][l] + cur[key][l]
                    )
        self.prev = (state.t, cur)
        return self.value()

    def _weighted(self, per_block: dict[int, float], spec: HybridBesovSpec) -> float:
        out = 0.0
        for l, v in per_block.items():
            s = spec.s_low if l <= spec.l0 else spec.s_high
            out += (2.0**l) ** s * v
        return out

    def value(self) -> float:
        out = self._weighted(self.sup["h2"], self.specs["h2_inf"])
        out += self._weighted(self.sup["u2"], self.specs["u2_inf"])
        out += self._weighted(self.integral["h2"], self.specs["h2_l1"])
        out += self._weighted(self.integral["u2"], self.specs["u2_l1"])
        return out


def ft_norm(history, filt: DyadicFilter, l0: int = 0) -> float:
    """Working-space norm of a (h2, u2) history of ``SimState`` snapshots."""
    if not history:
        raise ValueError("empty history")
    tracker = FtTracker(filt, l0)
    for state in history:
        tracker.update(state)
    return tracker.value()


def scaling_check(
    state: SimState,
    config: SolverConfig,
    l_factor: int,
    include_pressure: bool = True,
    adjust_pressure: bool = True,
) -> float:
    """Equivariance defect of the spatial operators under x -> l x, u -> l u.

    Compares the convective + viscous (+ pressure, with the coefficient
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
    mu = config.mu

    def mom_op(rho_f, u_f, a_coeff):
        rho_u = mult(rho_f, u_f)
        out = _div_outer(rho_u, u_f) - _div_scaled_symgrad(rho_f, u_f, mu)
        if include_pressure:
            out = out + grad(rho_f) * a_coeff
        return out

    def mass_op(rho_f, u_f):
        return div(mult(rho_f, u_f))

    rho_d = dilate(rho, l_factor)
    u_d = dilate(u, l_factor) * float(l_factor)
    a_resc = config.a * l_factor**2 if adjust_pressure else config.a

    mom_lhs = mom_op(rho_d, u_d, a_resc)
    mom_rhs = dilate(mom_op(rho, u, config.a), l_factor) * float(l_factor**3)
    mass_lhs = mass_op(rho_d, u_d)
    mass_rhs = dilate(mass_op(rho, u), l_factor) * float(l_factor**2)

    def rel(a_f, b_f):
        den = max(lp_norm(a_f, 2.0), lp_norm(b_f, 2.0))
        if den == 0.0:
            return 0.0
        return lp_norm(a_f - b_f, 2.0) / den

    return max(rel(mom_lhs, mom_rhs), rel(mass_lhs, mass_rhs))


def random_band_field(
    grid: Grid,
    rng: np.random.Generator,
    l_lo: int,
    l_hi: int,
    ncomp: int = 1,
    filt: DyadicFilter | None = None,
    amplitude: float = 1.0,
    norm: str = "linf",
    hspec: HybridBesovSpec | None = None,
) -> SpectralField:
    """Random real field band-limited to dyadic blocks [l_lo, l_hi].

    Normalized so the chosen norm equals ``amplitude`` ("linf", "l2", or a
    hybrid Besov norm when ``hspec`` is given and norm == "hybrid").
    """
    if filt is None:
        filt = default_filter(grid)
    noise = rng.standard_normal((ncomp, *grid.shape))
    f = SpectralField.from_values(grid, noise)
    band = np.zeros(grid.shape)
    for l in range(max(l_lo, filt.l_min), min(l_hi, filt.l_max) + 1):
        band += filt.weight(l)
    f = SpectralField(grid, f.coeffs * band)
    if norm == "linf":
        scale = lp_norm(f, math.inf)
    elif norm == "l2":
        scale = lp_norm(f, 2.0)
    elif norm == "hybrid":
        if hspec is None:
            raise ValueError("hspec required for hybrid normalization")
        scale = hybrid_besov_norm(f, hspec, filt)
    else:
        raise ValueError(f"unknown normalization {norm!r}")
    if scale == 0.0:
        return f
    return f * (amplitude / scale)
