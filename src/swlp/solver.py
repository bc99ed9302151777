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
irrotational modes decay by m_par = 1/(1 + (mu |xi|^2 + r) dt), solenoidal
modes by m_sol = 1/(1 + (mu |xi|^2 / 2 + r) dt).  The irrotational part is
-grad(div u)/|xi|^2, so the solve is one projector multiply,
u <- m_sol u - grad(w div u) with w = (m_par - m_sol)/|xi|^2 (0 at xi = 0),
and no Helmholtz split is formed.  The explicit right-hand sides are
assembled pointwise and transformed once per output, dealiased
(``grid.dealiased_from_values``).  The state's h2 and u2 are dealiased and the
implicit solve acts mode by mode, so each new h2 and u2 is dealiased as made.
q1 advances by the heat semigroup of ``grid._heat_multiplier``
(``quasi.heat_evolve``).

``full_residual`` and ``scaling_check`` evaluate the full system through the
one residual of the package, ``quasi._system_residual``, with the
configuration's ``pressure_coeff``; ``full_residual`` adds its ``drag``,
``scaling_check`` drops the time terms and the drag.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .besov import HybridBesovSpec, hybrid_besov_norm, lp_norm
from .dyadic import DyadicFilter, _check_grid, default_filter
from .grid import (
    _OPERATOR_CACHE,
    Grid,
    SpectralField,
    _divergence,
    _in_halves,
    _jacobian,
    _partial,
    _read_only,
    dealias,
    dealiased_from_values,
    dilate,
    div,
    grad,
    inverse_transform,
    laplacian,
    mult,
    parseval_sum,
    xi_mag2,
)
from .quasi import (
    DensityFloorError,
    _check_floor,
    _heat_rates,
    _rel_l2,
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
    "ft_specs",
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# what a config field of each declared type takes: an int or a float is never a bool
_TAKES = {
    "int": lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool),
    "float": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "float | list[float]": lambda v: _is_number(v) or (isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}


def _check_types(config) -> None:
    """Reject a value that a field of a config dataclass does not take by its annotation, naming the field."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _TAKES[f.type](value):
            raise ValueError(f"{f.name} = {value!r} is not {f.type} (got {type(value).__name__})")


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
        _check_types(self)
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

    @cached_property
    def _exp_h2(self) -> np.ndarray:
        """e^{h2} at the grid points; built once per state."""
        return np.exp(self.h2.values[0])

    @property
    def _rho_values(self) -> np.ndarray:
        """rho1 e^{h2} at the grid points, checked against the density floor; not kept: ``step``
        checks each state whose h2 it moves, and ``_recomposed`` reads it once."""
        rho_vals = (1.0 + self.q1.values[0]) * self._exp_h2
        _check_floor(rho_vals)
        return rho_vals

    @cached_property
    def _recomposed(self) -> tuple[SpectralField, SpectralField]:
        """(rho, u) = (rho1 e^{h2}, u1 + u2), re-band-limited; built once per state."""
        rho = dealiased_from_values(self.grid, self._rho_values)
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
    u1 = velocity_from_density(q1, config.mu)
    state = SimState(t=0.0, q1=q1, h2=h2, u2=u2, u1_cache=u1)
    state._rho_values  # the density floor fails here, before any step
    return state


def assemble_rhs(state: SimState, config: SolverConfig) -> tuple[SpectralField, SpectralField, float]:
    """Explicit right-hand sides ``(h2_rhs, u2_rhs)`` of the perturbation system, and the
    largest |u_i| at the grid points, from which ``step`` checks the CFL cap.

    Diffusion of u2 (and the friction drag) are left to the implicit part
    of the stepper and are not included here.  Everything is assembled in
    collocation space with one forward transform per output component, from
    the values of the derivatives, each transformed on its own.

    grad ln rho1 = -u1/mu, so its products fold into those of u1 and grad h2,
    and D(u2) splits into d_j u2_i and d_i u2_j (grad u1 is symmetric):

        h2_rhs   = sum_j (u2_j u1_j / mu - u_j d_j h2 - d_j u2_j)
        u2_rhs_i = (c_f / mu) u1_i - a d_i h2
                   + sum_j (p_j d_j u2_i + q_j d_i u2_j + w_j d_j u1_i)

    with q = (mu grad h2 - u1)/2, p = q - u and w = mu grad h2 - u2.  The
    products are formed pointwise, in blocks of ``_RHS_BLOCK`` points.  The
    density floor is not checked: ``step`` checks each state it makes.
    """
    g = state.grid
    dim = g.dim
    upper = list(zip(*np.triu_indices(dim)))
    gh2 = _derivative_values(state.h2, [(0, j) for j in range(dim)], g)
    du2 = _derivative_values(state.u2, list(np.ndindex(dim, dim)), g).reshape(dim, dim, *g.shape)  # du2[i, j] = d_j u2_i
    # grad u1 = -mu grad grad ln rho1 is symmetric: only its upper triangle is transformed
    du1 = _derivative_values(state.u1_cache, upper, g)
    # the lattice axes of every value array as one axis of points
    inputs = [a.reshape(*a.shape[:-dim], -1) for a in (state.u1_cache.values, state.u2.values, gh2, du2, du1)]
    points = g.n**dim
    h2_rhs = np.empty(points)
    u2_rhs = np.empty((dim, points))
    umax = 0.0
    for lo in range(0, points, _RHS_BLOCK):
        block = slice(lo, lo + _RHS_BLOCK)
        umax = max(umax, _rhs_block(*(a[..., block] for a in inputs), upper, h2_rhs[block], u2_rhs[:, block], config))
    return (
        dealiased_from_values(g, h2_rhs.reshape(g.shape)),
        dealiased_from_values(g, u2_rhs.reshape(dim, *g.shape)),
        umax,
    )


def _derivative_values(f: SpectralField, entries, grid: Grid) -> np.ndarray:
    """The values of the derivatives d_j f_i, (i, j) in ``entries``, stacked in that order:
    each is transformed on its own, in its own coefficients, and copied into its place."""
    values = np.empty((len(entries), *grid.shape))
    for out, (i, j) in zip(values, entries):
        out[...] = inverse_transform(_partial(f.coeffs[i], grid, j), grid, overwrite=True)
    return values


# points per block of the pointwise products: a block's two dozen arrays stay in the
# cache, which at 512^2 on a 2-vCPU Xeon halved the arithmetic (16 ms against 32 ms)
_RHS_BLOCK = 8192


def _rhs_block(u1, u2, gh2, du2, du1_upper, upper, h2_out, u2_out, config: SolverConfig) -> float:
    """The formulas of ``assemble_rhs`` on one block of points, written into ``h2_out`` and ``u2_out``;
    returns the block's largest |u_i|, u = u1 + u2.

    ``du1_upper`` holds the entries ``upper`` (pairs i <= j) of the symmetric grad u1.
    """
    dim = u1.shape[0]
    mu = config.mu
    du1 = {}
    for (i, j), d in zip(upper, du1_upper):
        du1[i, j] = du1[j, i] = d
    u = u1 + u2
    umax = max(float(u.max()), -float(u.min()))
    u1_mu = u1 / mu
    tmp = np.empty_like(h2_out)

    h2_out[...] = 0.0
    for j in range(dim):
        np.multiply(u2[j], u1_mu[j], out=tmp)
        h2_out += tmp
        np.multiply(u[j], gh2[j], out=tmp)
        h2_out -= tmp
        h2_out -= du2[j, j]

    w = mu * gh2
    q = w - u1
    q *= 0.5
    # p = q - u is made in u's place: u is not read again
    p = np.subtract(q, u, out=u)
    w -= u2
    for i, out in enumerate(u2_out):
        np.multiply(config.forcing_coeff, u1_mu[i], out=out)
        np.multiply(config.pressure_coeff, gh2[i], out=tmp)
        out -= tmp
        for j in range(dim):
            np.multiply(p[j], du2[i, j], out=tmp)
            out += tmp
            np.multiply(q[j], du2[j, i], out=tmp)
            out += tmp
            np.multiply(w[j], du1[i, j], out=tmp)
            out += tmp
    return umax


@lru_cache(maxsize=_OPERATOR_CACHE)
def _implicit_multipliers(grid: Grid, config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """The implicit solve's multipliers ``(m_sol, w)``; built once per (grid, config), read-only.

    m_par and m_sol are the implicit decays of the irrotational and the
    solenoidal part, and w = (m_par - m_sol)/|xi|^2, 0 at xi = 0.  Written
    as -(dt mu / 2) m_par m_sol, w has no cancellation at small |xi|.
    """
    mag2 = xi_mag2(grid)
    m_par = 1.0 / (1.0 + config.dt * (config.mu * mag2 + config.drag))
    m_sol = 1.0 / (1.0 + config.dt * (0.5 * config.mu * mag2 + config.drag))
    w = np.where(mag2 > 0, (-0.5 * config.dt * config.mu) * m_par * m_sol, 0.0)
    return _read_only(m_sol), _read_only(w)


def _implicit_solve(u2_coeffs: np.ndarray, grid: Grid, m_sol, w) -> np.ndarray:
    """m_par on the irrotational part of u2 and m_sol on its solenoidal part, as one projector multiply.

    The irrotational part is -grad(div u)/|xi|^2, so the result is
    m_sol u - grad(w div u).  At xi = 0, where the mean sits, m_par = m_sol.
    """
    w_div = _divergence(u2_coeffs, grid)
    _in_halves(lambda h: np.multiply(w_div[h], w[h], out=w_div[h]), grid, 0)
    w_grad = _jacobian(w_div, grid)
    out = np.empty(u2_coeffs.shape, dtype=np.complex128)
    # out = m_sol u, then out -= grad(w div u), one half at a time
    _in_halves(lambda h: np.subtract(np.multiply(u2_coeffs[h], m_sol[h], out=out[h]), w_grad[h], out=out[h]), grid, 0)
    return out


def _cfl(umax: float, grid: Grid, config: SolverConfig) -> float:
    """The advective CFL number of a largest speed ``umax``."""
    return umax * config.dt * grid.n / min(grid.period)


def cfl_number(state: SimState, config: SolverConfig) -> float:
    # the values of both fields are cached on them, and assemble_rhs reads them too
    return _cfl(float(np.abs(state.u1_cache.values + state.u2.values).max()), state.grid, config)


def step(state: SimState, config: SolverConfig) -> SimState:
    """One IMEX step; q1 advances by its exact semigroup.

    The new state's time is its step count times dt, the count of ``state`` being
    ``round(state.t / dt)``: a running sum t + dt drifts by round-off over a run.
    A density below the floor, in ``state``'s q1 or in the new state, raises a
    ``BlowupError`` that carries ``state``; a ``heat_only`` step leaves h2 as it is
    and checks only q1.
    """
    g = state.grid
    dt = config.dt
    t = (round(state.t / dt) + 1) * dt
    try:
        q1_next = heat_evolve(state.q1, config.mu, dt)
        h2_f, u2_f = state.h2, state.u2
        if config.mode != "heat_only":
            h2_rhs, u2_rhs, umax = assemble_rhs(state, config)
            cfl = _cfl(umax, g, config)
            if cfl > config.cfl_max:
                raise CflError(f"advective CFL {cfl:.3g} exceeds cap {config.cfl_max:.3g}")
            # fields are read-only: the update is made in new arrays, and each right-hand side goes once read
            h2_new = h2_rhs.coeffs * dt
            del h2_rhs
            h2_new += state.h2.coeffs
            u2_new = u2_rhs.coeffs * dt
            del u2_rhs
            u2_new += state.u2.coeffs
            # dealiased as made: so are the right-hand sides and the state, and the solve acts mode by mode
            h2_f = SpectralField(g, h2_new)
            u2_f = SpectralField(g, _implicit_solve(u2_new, g, *_implicit_multipliers(g, config)))
            if not (np.isfinite(h2_f.values).all() and np.isfinite(u2_f.values).all()):
                raise BlowupError(f"non-finite sample at t = {t:g}", state)
        new = SimState(t=t, q1=q1_next, h2=h2_f, u2=u2_f, u1_cache=velocity_from_density(q1_next, config.mu))
        if config.mode != "heat_only":
            new._rho_values  # h2 moved: the density floor, checked as the state is made
    except DensityFloorError as exc:
        raise BlowupError(str(exc), state) from None
    return new


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

    The rates of rho1 come from q1 (``quasi._heat_rates``), and d_t rho =
    P(d_t rho1 P(e^{h2})).  ``quasi._system_residual`` makes the rates first,
    and what they are made from goes before it goes on: it builds every term one
    entry at a time, in the order time, convection, viscosity, pressure, drag,
    each kind added into one running sum, with the bits of the whole-field sum
    of those terms.
    """
    g = state.grid
    mu = config.mu
    rho, u = recompose(state)

    def rates():
        drho1_dt, du_dt = _heat_rates(state.q1, mu)
        # mult(d_t rho1, e^{h2}), e^{h2}'s coefficients gone once its values are made
        drho_dt = dealiased_from_values(g, drho1_dt.values * dealiased_from_values(g, state._exp_h2).values)
        # the rate of rho1 and its values go once the rate of rho is made
        del drho1_dt
        if include_perturbation_rate:
            h2_rhs, u2_rhs, _ = assemble_rhs(state, config)
            # the implicit part of the step: mu div D(u2) - drag u2
            u2 = state.u2
            du2_dt = u2_rhs + (laplacian(u2) + grad(div(u2))) * (0.5 * mu) + u2 * (-config.drag)
            drho_dt = drho_dt + mult(rho, h2_rhs)
            du_dt = du_dt + du2_dt
        return drho_dt, du_dt

    _, _, mass_rel, mom_rel = _system_residual(rho, u, rates, mu, config.pressure_coeff, config.drag)
    return mass_rel, mom_rel


def _grad_linf(u: SpectralField) -> float:
    """max |grad u| at the grid points, the bits of ``lp_norm(grad_norm_field(u), inf)``: its
    squared magnitude is a running sum, one derivative d_j u_i at a time in the order of the
    components (with one component, sqrt(d^2) = |d| exactly)."""
    g = u.grid

    def square(i, j):
        d = inverse_transform(_partial(u.coeffs[i], g, j), g, overwrite=True)
        return np.square(d, out=d)

    entries = np.ndindex(u.ncomp, g.dim)
    mag = square(*next(entries))
    for ij in entries:
        mag += square(*ij)
    # sqrt is monotone and correctly rounded: the sqrt of the max is the max of the sqrt
    return math.sqrt(mag.max())


def gronwall_integrand(state: SimState, filt: DyadicFilter, l0: int = 0) -> float:
    """Instantaneous integrand of the Gronwall exponent V(T)."""
    dim = state.grid.dim
    spec_q_quartic = HybridBesovSpec(dim / 2 - 0.5, dim / 2 + 0.5, 2, 2, math.inf, math.inf, l0)
    spec_q_linear = HybridBesovSpec(dim / 2 + 1, dim / 2 + 2, 2, 2, math.inf, math.inf, l0)
    spec_du1 = HybridBesovSpec(dim / 2 - 1, dim / 2, 2, 2, math.inf, math.inf, l0)
    q1 = state.q1
    u1 = state.u1_cache
    du1_term = max(_grad_linf(u1), hybrid_besov_norm(grad_norm_field(u1), spec_du1, filt))
    return (
        hybrid_besov_norm(q1, spec_q_quartic, filt) ** 4
        + hybrid_besov_norm(q1, spec_q_linear, filt)
        + du1_term
        + _grad_linf(u1 + state.u2)
    )


def grad_norm_field(u: SpectralField) -> SpectralField:
    """All first derivatives of a vector field, stacked as components: d_j u_i is component i*dim + j."""
    g = u.grid
    jac = _jacobian(u.coeffs, g)
    return SpectralField(g, jac.reshape(-1, *jac.shape[2:]))


def ft_specs(dim: int, l0: int = 0):
    """The four hybrid specs of the working norm: the sup-in-time pair, then the time-integrated pair."""
    return {
        "h2_inf": HybridBesovSpec(dim / 2 - 1, dim / 2, 2, 2, 1, 1, l0),
        "u2_inf": HybridBesovSpec(dim / 2 - 1, dim / 2 - 1, 2, 2, 1, 1, l0),
        "h2_l1": HybridBesovSpec(dim / 2 + 1, dim / 2, 2, 2, 1, 1, l0),
        "u2_l1": HybridBesovSpec(dim / 2 + 1, dim / 2 + 1, 2, 2, 1, 1, l0),
    }


def scaling_check(state: SimState, config: SolverConfig, l_factor: int) -> tuple[float, float]:
    """Equivariance defect of the spatial operators under x -> l x, u -> l u, and its negative control.

    Compares the convective + viscous + pressure momentum operator applied to
    the index-dilated state against the dilated, l^3-scaled operator output;
    the mass-flux operator is checked with factor l^2.  Each value is the max of
    the two relative discrepancies: the defect with the pressure coefficient
    rescaled by l^2, the control without, which breaks the symmetry.
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
    mass, mom, _, _ = _system_residual(rho, u, None, config.mu, a, 0.0)
    mom_rhs = dilate(mom, l_factor) * float(l_factor**3)
    mass_rhs = dilate(mass, l_factor) * float(l_factor**2)
    g = state.grid

    def defect(a_lhs: float) -> float:
        # drag is left out: r rho u scales with l, not l^3
        mass_lhs, mom_lhs, _, _ = _system_residual(rho_d, u_d, None, config.mu, a_lhs, 0.0)
        return max(
            _rel_l2(parseval_sum((lhs - rhs).coeffs, g), [parseval_sum(lhs.coeffs, g), parseval_sum(rhs.coeffs, g)])
            for lhs, rhs in ((mom_lhs, mom_rhs), (mass_lhs, mass_rhs))
        )

    return defect(a * l_factor**2), defect(a)


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
    An unknown norm or a band that holds none of the filter's levels is
    rejected before ``rng`` draws anything.
    """
    p = {"linf": math.inf, "l2": 2.0}.get(norm)
    if p is None:
        raise ValueError(f"unknown normalization {norm!r}")
    if filt is None:
        filt = default_filter(grid)
    _check_band("[l_lo, l_hi]", l_lo, l_hi, filt.l_min, filt.l_max)
    noise = rng.standard_normal((ncomp, *grid.shape))
    f = SpectralField.from_values(grid, noise)
    _check_grid(filt, f)
    f = SpectralField(grid, f.coeffs * filt.band(l_lo, l_hi))
    scale = lp_norm(f, p)
    if scale == 0.0:
        return f
    return f * (amplitude / scale)
