"""Heat-driven irrotational states and their exactness diagnostics.

A heat-driven state is the pair (q1, mu): q1 = rho1 - 1, where rho1 solves
d_t rho1 = mu * Lap rho1 exactly (``heat_evolve``, one multiply by the
semigroup ``grid._heat_multiplier``), and the derived velocity is
u1 = -mu * grad(ln rho1) (``velocity_from_density``).  The functions here
take q1 and mu as they are; no wrapper type carries them.  The pair
(rho1, u1) solves the pressureless system (mass + viscous momentum, no
pressure) identically, and the friction system with drag r and Froude
number Fr whenever r*mu*Fr^2 = 1.  Time derivatives in all residuals are
substituted analytically from the heat equation, never finite-differenced.

The viscous shallow-water system (mass and momentum, with a pressure and a
drag coefficient) is written once, in ``_system_residual``: the
quasi-solution and friction residuals here, and ``solver.full_residual``
and ``solver.scaling_check``, all evaluate it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    _divergence,
    _heat_multiplier,
    _in_halves,
    _jacobian,
    _partial,
    _square_sum,
    _sym_grad_entry,
    dealiased_from_values,
    grad,
    inverse_transform,
    laplacian,
    parseval_sum,
    shift_phase,
    xi_mag2,
)

__all__ = [
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


def kernel_rate(dim: int, alpha_order: int, p: float) -> float:
    """Heat-kernel L^p decay exponent N/2 (1 - 1/p) + |alpha|/2."""
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return dim / 2.0 * (1.0 - inv_p) + alpha_order / 2.0


class DensityFloorError(ValueError):
    """A density sample below ``DENSITY_FLOOR``, or NaN."""


def _check_floor(rho_values: np.ndarray) -> None:
    """Reject density samples below ``DENSITY_FLOOR`` or NaN (a minimum over values, no transform)."""
    low = float(rho_values.min())
    if not low >= DENSITY_FLOOR:
        raise DensityFloorError(f"density floor violated: min(rho) = {low:.3g} < {DENSITY_FLOOR:.3g}")


def heat_evolve(q1: SpectralField, mu: float, t: float) -> SpectralField:
    """q1 at time t >= 0: the exact semigroup solution of d_t rho1 = mu Lap rho1."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if q1.ncomp != 1:
        raise ValueError("q1 must be a scalar field")
    _check_floor(1.0 + q1.values[0])
    decay = _heat_multiplier(q1.grid, mu, t)
    out = np.empty(q1.coeffs.shape, dtype=np.complex128)
    _in_halves(lambda h: np.multiply(q1.coeffs[h], decay[h], out=out[h]), q1.grid, 0)
    return SpectralField(q1.grid, out)


def log_density(q1: SpectralField) -> SpectralField:
    """ln(1 + q1) evaluated pointwise and re-projected to the dealiased band.

    The log is not band-limited; a warning fires when the discarded tail
    carries more than 1e-10 of the L2 mass.
    """
    g = q1.grid
    rho = 1.0 + q1.values[0]
    _check_floor(rho)
    log_rho = np.log(rho)
    out = dealiased_from_values(g, log_rho)
    # Parseval: the power of the coefficients is the mean square of the values
    total = _square_sum(log_rho) / log_rho.size
    kept = _square_sum(out.coeffs)
    if total > 0 and (total - kept) / total > LOG_TAIL_TOL:
        warnings.warn(
            "log-density truncation tail exceeds 1e-10 of the L2 mass; "
            "increase resolution",
            stacklevel=3,
        )
    return out


def velocity_from_density(q1: SpectralField, mu: float) -> SpectralField:
    """u1 = -mu grad(ln rho1), rho1 = 1 + q1; irrotational by construction."""
    return _scaled_grad(log_density(q1), -mu)


def _scaled_grad(f: SpectralField, c: float) -> SpectralField:
    """c grad f of a scalar field, the gradient scaled in place: the bits of ``grad(f) * c``."""
    g = f.grid
    jac = _jacobian(f.coeffs[0], g)
    _in_halves(lambda h: np.multiply(jac[h], c, out=jac[h]), g, 0)
    return SpectralField(g, jac)


def max_principle_check(
    q1: SpectralField, initial_min: float, initial_max: float
) -> tuple[float, float, bool]:
    """min and max of rho1 = 1 + q1, and whether both stay within 1e-8 of the initial range."""
    rho = 1.0 + q1.values[0]
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
        f = heat_evolve(q1_initial, mu, t)
        if alpha_order == 1:
            f = grad(f)
        elif alpha_order == 2:
            f = laplacian(f)
        norms[i] = lp_norm(f, p)
    slope = np.polyfit(np.log1p(times), np.log(norms), 1)[0]
    return float(-slope)


def _density(q1: SpectralField) -> SpectralField:
    """rho1 = 1 + q1."""
    return q1.with_mean(q1.mean() + 1.0)


def _heat_rates(q1: SpectralField, mu: float):
    """(d_t rho1, d_t u1) at rho1 = 1 + q1, substituted from the heat equation:
    d_t rho1 = mu Lap q1 and d_t u1 = -mu grad(d_t rho1 / rho1).  rho1's values,
    checked against the density floor, are 1 + q1's, which a state has already made."""
    g = q1.grid
    rho_vals = 1.0 + q1.values[0]
    _check_floor(rho_vals)
    drho_dt = laplacian(q1) * mu
    # mult(d_t rho1, 1/rho1), with 1/rho1's coefficients gone once its values are made
    quotient = dealiased_from_values(g, drho_dt.values * dealiased_from_values(g, 1.0 / rho_vals).values)
    return drho_dt, _scaled_grad(quotient, -mu)


def _rel_l2(residual_sq: float, scales_sq) -> float:
    """sqrt(residual_sq / max(scales_sq)): a relative L2 norm from squared norms (0.0 for 0/0)."""
    den = max(scales_sq, default=0.0)
    if den == 0.0:
        return 0.0 if residual_sq == 0.0 else math.inf
    return math.sqrt(residual_sq / den)


def _system_residual(rho, u, rates, mu: float, pressure: float, drag: float):
    """The viscous shallow-water system at (rho, u): ``(mass, momentum, mass_rel, momentum_rel)``.

    mass:     d_t rho + div(rho u)
    momentum: d_t(rho u) + div(rho u x u) - div(mu rho D(u)) + pressure grad(rho) + drag rho u

    ``rates`` makes the pair ``(d_t rho, d_t u)`` of fields when called, or is None to
    drop the time terms: the rates are made first, and each goes once its values are
    made and its last term is.  The relative residuals divide each L2 norm by the
    largest L2 norm of its terms.  A zero ``pressure`` or ``drag`` drops its term.

    Every field term is built one entry at a time, with P the 2/3 dealias: (rho u)_j
    and its derivative, then the momentum one kind of term at a time over the
    components i, each added into component i's running sum, which starts at zero,
    as it is made, keeping only its squared Parseval norm: P(d_t rho u_i + rho d_t u_i)
    (one product, P being linear), sum_j d_j P(u_i (rho u)_j), -mu sum_j d_j P(rho D(u)_ij),
    pressure d_i rho and drag (rho u)_i.  Each entry D(u)_ij is transformed once and
    goes after its last row.  Every product is dealiased as in the whole-field sum of
    these terms, left to right, so both fields have that sum's bits; only the relative
    residuals move, by the order of the norms' sums.
    """
    g = u.grid
    rho_vals, u_vals = rho.values[0], u.values

    def product(a, b):
        """P(a b) of two value arrays of one component: its coefficients."""
        return dealiased_from_values(g, a * b).coeffs[0]

    if rates is not None:
        drho_dt, du_dt = rates()
        du_vals = du_dt.values
        del du_dt
    # div(rho u), and the values of rho u, one component (rho u)_j at a time
    ru_vals = []

    def rho_u(j):
        ru_j = product(rho_vals, u_vals[j])
        ru_vals.append(inverse_transform(ru_j, g))
        return ru_j

    mass = _divergence(map(rho_u, range(g.dim)), g)
    mass_sq = [parseval_sum(mass, g)]
    mom = np.zeros(u.coeffs.shape, dtype=np.complex128)
    # the squared norm of each kind of term, summed over the components
    mom_sq = []

    def add(term):
        """Add ``term(i)``, made when asked for, into the running sum of every component i."""
        square = 0.0
        for i, total in enumerate(mom):
            t = term(i)
            square += parseval_sum(t, g)
            total += t
            del t
        mom_sq.append(square)

    if rates is not None:
        mass_sq.append(parseval_sum(drho_dt.coeffs, g))
        # d_t rho + div(rho u), in the flux's array
        mass += drho_dt.coeffs[0]
        drho_vals = drho_dt.values[0]
        del drho_dt
        # d_t(rho u)_i, one product: P is linear
        add(lambda i: dealiased_from_values(g, drho_vals * u_vals[i] + rho_vals * du_vals[i]).coeffs[0])
        del drho_vals, du_vals
    add(lambda i: _divergence((product(u_vals[i], ru_vals[j]) for j in range(g.dim)), g))
    del ru_vals
    # D(u)_ij = D(u)_ji by its upper entry, made at its first row and dropped after its last
    sym = {}

    def stress(i, j):
        key = min(i, j), max(i, j)
        if key not in sym:
            sym[key] = inverse_transform(_sym_grad_entry(u.coeffs, g, *key), g, overwrite=True)
        return product(rho_vals, sym.pop(key) if i == key[1] else sym[key])

    def visc(i):
        out = _divergence((stress(i, j) for j in range(g.dim)), g)
        out *= -mu
        return out

    add(visc)
    if pressure != 0.0:
        add(lambda i: _partial(rho.coeffs[0], g, i) * pressure)
    if drag != 0.0:
        # (rho u)_i, with the bits of the component of mult(rho, u)
        add(lambda i: product(rho_vals, u_vals[i]) * drag)
    return (
        SpectralField(g, mass),
        SpectralField(g, mom),
        _rel_l2(parseval_sum(mass, g), mass_sq),
        _rel_l2(parseval_sum(mom, g), mom_sq),
    )


def quasi_residual(q1: SpectralField, mu: float) -> tuple[float, float]:
    """Relative L2 residuals of the pressureless system at the heat-driven state (q1, mu).

    mass:     d_t rho1 + div(rho1 u1)
    momentum: d_t(rho1 u1) + div(rho1 u1 x u1) - div(mu rho1 D(u1))
    with d_t terms substituted analytically via the heat equation.
    """
    rho = _density(q1)
    u1 = velocity_from_density(q1, mu)
    _, _, mass_rel, mom_rel = _system_residual(rho, u1, lambda: _heat_rates(q1, mu), mu, 0.0, 0.0)
    return mass_rel, mom_rel


@dataclass(frozen=True)
class FrictionReport:
    residual: float
    certified: bool
    relation_error: float
    absolute_residual: float
    grad_rho_norm: float


def friction_exact_residual(q1: SpectralField, mu: float, Fr: float, r: float) -> FrictionReport:
    """Relative L2 momentum residual of the friction system at the heat-driven state (q1, mu).

    Includes grad(rho)/Fr^2 + r rho u; the friction and pressure terms
    cancel exactly iff r * mu * Fr^2 = 1.  When the relation fails the
    residual is still reported but exactness certification is refused.
    """
    if Fr <= 0 or r < 0:
        raise ValueError("need Fr > 0 and r >= 0")
    rho = _density(q1)
    u1 = velocity_from_density(q1, mu)
    _, mom_res, _, rel = _system_residual(rho, u1, lambda: _heat_rates(q1, mu), mu, 1.0 / Fr**2, r)
    relation_error = abs(r * mu * Fr**2 - 1.0)
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
    # one row of block norms per Duhamel field, taken as the field is made: no field is kept
    rows = {spec.p: [list(block_norms(u0, spec.p, filt).values())]}
    u_prev = u0.coeffs
    for (t_prev, f_prev), (t_next, f_next) in zip(f_snapshots[:-1], f_snapshots[1:]):
        dt = t_next - t_prev
        decay = _heat_multiplier(g, mu, dt)
        u_prev = decay * u_prev + 0.5 * dt * (decay * f_prev.coeffs + f_next.coeffs)
        rows[spec.p].append(list(block_norms(SpectralField(g, u_prev), spec.p, filt).values()))
    ends = []
    for rho1, inv_r1 in ((math.inf, 0.0), (rho2, inv_r2)):
        lhs_spec = _as_hybrid(BesovSpec(spec.s + 2.0 * inv_r1, spec.p, spec.r), filt)
        ends.append(_time_hybrid(times, rows, rho1, lhs_spec, filt.levels) / rhs)
    return ends[0], ends[1]
