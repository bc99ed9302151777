"""Run orchestration: JSON config, CSV time series, summaries, verification.

A run integrates the perturbation system from a Gaussian density bump plus
a small random band-limited perturbation, records a fixed set of
diagnostics at a snapshot cadence, and writes three artifacts into the
output directory: ``series.csv``, ``summary.json``, and binary field dumps
of the recomposed state at the final time.  A run stopped by a CFL
violation or a blow-up still writes the rows computed before it and a
summary naming the failure.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .besov import HybridBesovSpec, besov_minus1_infty, hybrid_besov_norm, lp_norm
from .dyadic import DyadicFilter, default_filter
from .grid import Grid, SpectralField, dump_field, helmholtz_split, make_grid
from .quasi import gaussian_bump, kernel_decay_fit, kernel_rate
from .solver import (
    BlowupError,
    CflError,
    FtTracker,
    GronwallTracker,
    SimState,
    SolverConfig,
    cfl_number,
    full_residual,
    initial_state,
    random_band_field,
    recompose,
    step,
)

__all__ = [
    "RunConfig",
    "RunResult",
    "DecayReport",
    "SERIES_COLUMNS",
    "load_config",
    "run",
    "fit_decay",
    "fit_series",
    "verify",
]

SERIES_COLUMNS = (
    "t",
    "linf_rho_minus_1",
    "besov_u_m1_inf",
    "mass",
    "mass_drift",
    "res_mass",
    "res_mom",
    "ft_norm",
    "V_T",
    "cfl",
)


@dataclass(frozen=True)
class RunConfig:
    dim: int = 2
    n: int = 256
    period: float = 64.0
    mu: float = 0.1
    a: float = 1e-5
    Fr: float = 1.0
    r_fric: float = 0.0
    mode: str = "shallow_water"
    dt: float = 0.05
    t_end: float = 20.0
    amplitude: float = 0.5
    width: float = 1.0
    eps: float = 1e-3
    pert_l_lo: int = 2
    pert_l_hi: int = 3
    pert_solenoidal: bool = True
    pert_h2: float = 1.0
    pert_h2_l_lo: int = -3
    pert_h2_l_hi: int = -2
    seed: int = 0
    snapshot_dt: float = 0.1
    forcing: bool = True
    l0: int = 0
    cfl_max: float = 0.4
    dump_fields: bool = True

    def __post_init__(self):
        # bad physics, dt or run length fails here, before any work
        self.solver_config()
        _ = (self.n_steps, self.snap_stride)

    @property
    def n_steps(self) -> int:
        return _whole_steps(self.t_end, self.dt, "t_end")

    @property
    def snap_stride(self) -> int:
        return _whole_steps(self.snapshot_dt, self.dt, "snapshot_dt")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            mu=self.mu,
            a=self.a,
            Fr=self.Fr,
            r_fric=self.r_fric,
            mode=self.mode,
            dt=self.dt,
            forcing=self.forcing,
            cfl_max=self.cfl_max,
        )


def _whole_steps(span: float, dt: float, name: str) -> int:
    """``span / dt`` when it is a positive whole number; a span is never rounded."""
    k = round(span / dt)
    # relative slack: 0.2 / 0.05 is not exactly 4 in floating point
    if k < 1 or not math.isclose(span / dt, k, rel_tol=1e-9):
        raise ValueError(f"{name} = {span:g} is not a positive whole multiple of dt = {dt:g}")
    return k


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a JSON run config; unknown keys are rejected."""
    data = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data)


@dataclass
class RunResult:
    config: RunConfig
    rows: list[dict]
    final_state: SimState
    out_dir: Path | None


def _diagnostics(state, scfg, filt, ft_tracker, gr_tracker):
    rho, u = recompose(state)
    res_mass, res_mom = full_residual(state, scfg)
    mass = rho.mean()[0] * state.grid.volume
    return {
        "t": state.t,
        "linf_rho_minus_1": float(np.abs(rho.values[0] - 1.0).max()),
        "besov_u_m1_inf": besov_minus1_infty(u, filt, low_cut=2),
        "mass": mass,
        "res_mass": res_mass,
        "res_mom": res_mom,
        "ft_norm": ft_tracker.update(state),
        "V_T": gr_tracker.update(state),
        "cfl": cfl_number(state, scfg),
    }


def _initial_state(config: RunConfig, grid: Grid, filt: DyadicFilter) -> SimState:
    """The bump plus the seeded random perturbation a run starts from."""
    scfg = config.solver_config()
    rng = np.random.default_rng(config.seed)
    q1 = gaussian_bump(grid, config.amplitude, config.width, config.mu)
    if config.eps > 0:
        h2_amp = config.eps * config.pert_h2
        if h2_amp > 0:
            # density perturbation goes in a low band: its time-integrated
            # norm carries a 2^{2l} weight and it has no diffusion, so high
            # band content would accumulate linearly in T
            h2 = random_band_field(
                grid, rng, config.pert_h2_l_lo, config.pert_h2_l_hi, 1, filt, amplitude=h2_amp
            )
        else:
            h2 = SpectralField.zeros(grid, 1)
        u2 = random_band_field(
            grid, rng, config.pert_l_lo, config.pert_l_hi, grid.dim, filt, amplitude=config.eps
        )
        if config.pert_solenoidal:
            # divergence-free data deposits almost no density perturbation,
            # keeping the integrated working norm flat
            _, u2 = helmholtz_split(u2)
            scale = lp_norm(u2, math.inf)
            if scale > 0:
                u2 = u2 * (config.eps / scale)
    else:
        h2 = SpectralField.zeros(grid, 1)
        u2 = SpectralField.zeros(grid, grid.dim)
    return initial_state(q1, h2, u2, scfg)


def run(config: RunConfig, out_dir=None) -> RunResult:
    """Integrate a configured run and write series/summary/field artifacts.

    On a ``CflError`` or ``BlowupError`` the rows computed so far and a
    summary with the failure status are written before the error is
    re-raised.
    """
    grid = make_grid(config.dim, config.n, config.period)
    scfg = config.solver_config()
    filt = default_filter(grid)
    state = _initial_state(config, grid, filt)

    ft_tracker = FtTracker(filt, config.l0)
    gr_tracker = GronwallTracker(filt, config.l0)
    rows = [_diagnostics(state, scfg, filt, ft_tracker, gr_tracker)]
    mass0 = rows[0]["mass"]
    rows[0]["mass_drift"] = 0.0

    n_steps = config.n_steps
    status, failure = "ok", None
    try:
        for k in range(1, n_steps + 1):
            state = step(state, scfg)
            if k % config.snap_stride == 0 or k == n_steps:
                row = _diagnostics(state, scfg, filt, ft_tracker, gr_tracker)
                row["mass_drift"] = abs(row["mass"] - mass0) / abs(mass0)
                rows.append(row)
    except CflError as exc:
        status, failure = "cfl", exc
    except BlowupError as exc:
        status, failure = "blowup", exc

    result = RunResult(config=config, rows=rows, final_state=state, out_dir=None)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_series(out_dir / "series.csv", rows)
        summary = {
            "config": dataclasses.asdict(config),
            "status": status,
            # the end of the step that failed; state.t is the last valid time
            "t_fail": None if failure is None else state.t + config.dt,
            "t_final": state.t,
            "n_steps": n_steps,
            "final": {k: rows[-1][k] for k in SERIES_COLUMNS if k != "t"},
            "ft_initial": rows[0]["ft_norm"],
            "ft_ratio": rows[-1]["ft_norm"] / rows[0]["ft_norm"] if rows[0]["ft_norm"] > 0 else None,
        }
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
        if config.dump_fields and failure is None:
            rho, u = recompose(state)
            dump_field(rho, out_dir / "rho_final", time=state.t)
            dump_field(u, out_dir / "u_final", time=state.t)
        result.out_dir = out_dir
    if failure is not None:
        raise failure
    return result


def _write_series(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SERIES_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{row[k]:.15g}" for k in SERIES_COLUMNS})


@dataclass(frozen=True)
class DecayReport:
    column: str
    exponent: float
    expected: float
    tolerance: float
    floor: float
    n_points: int

    @property
    def passed(self) -> bool:
        return abs(self.exponent - self.expected) <= self.tolerance


def fit_decay(
    times,
    values,
    expected: float,
    tolerance: float,
    t_min: float = 2.0,
    t_max: float = 20.0,
    subtract_floor: bool = True,
) -> DecayReport:
    """Least-squares slope of log(value - floor) against log(1 + t).

    The floor is the late-time plateau (mean of the last ~10% of samples in
    the window, scaled down) subtracted so residual contamination from the
    perturbation does not bias the power-law fit; it is skipped if the
    signal has not flattened.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (times >= t_min) & (times <= t_max) & (values > 0)
    t = times[sel]
    v = values[sel]
    if t.size < 4:
        raise ValueError("too few samples in the fit window")
    x = np.log1p(t)
    floor = 0.0
    if subtract_floor:
        # pick the plateau level that makes the remainder closest to a
        # power law (smallest least-squares residual in log-log)
        best = np.inf
        for cand in np.linspace(0.0, 0.9 * v.min(), 200):
            y = np.log(v - cand)
            res = np.polyfit(x, y, 1, full=True)[1]
            res = float(res[0]) if res.size else 0.0
            if res < best:
                best, floor = res, float(cand)
    y = np.log(v - floor)
    slope = np.polyfit(x, y, 1)[0]
    return DecayReport(
        column="",
        exponent=float(-slope),
        expected=expected,
        tolerance=tolerance,
        floor=floor,
        n_points=int(t.size),
    )


def fit_series(series_path, t_min: float = 2.0, t_max: float = 20.0) -> dict:
    """Fit the two decay columns of a series.csv; returns a report dict."""
    times, rho_vals, u_vals = [], [], []
    dim = None
    with open(series_path) as fh:
        for row in csv.DictReader(fh):
            times.append(float(row["t"]))
            rho_vals.append(float(row["linf_rho_minus_1"]))
            u_vals.append(float(row["besov_u_m1_inf"]))
    # expected exponents for the heat-dominated regime in 2-d
    rep_rho = fit_decay(times, rho_vals, expected=1.0, tolerance=0.15, t_min=t_min, t_max=t_max)
    rep_u = fit_decay(times, u_vals, expected=1.5, tolerance=0.20, t_min=t_min, t_max=t_max)
    rep_rho = dataclasses.replace(rep_rho, column="linf_rho_minus_1")
    rep_u = dataclasses.replace(rep_u, column="besov_u_m1_inf")
    return {
        "fits": [dataclasses.asdict(r) | {"passed": r.passed} for r in (rep_rho, rep_u)],
        "passed": rep_rho.passed and rep_u.passed,
        "window": [t_min, t_max],
    }


# ---------------------------------------------------------------------------
# verification suites

def _check(name, value, bound, passed=None):
    if passed is None:
        passed = bool(value <= bound)
    return {"name": name, "value": float(value), "bound": float(bound), "passed": bool(passed)}


def _verify_lp() -> list[dict]:
    from .dyadic import dyadic_block

    g = make_grid(2, 64, (2 * np.pi, 2 * np.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(7)
    f = SpectralField.from_values(g, rng.standard_normal((1, *g.shape)))
    total = np.zeros(g.shape)
    for l in filt.levels:
        total += filt.weight(l)
    mask = g.xi_mag() > 0
    checks = [_check("partition_of_unity", np.abs(total[mask] - 1.0).max(), 1e-10)]
    recon = SpectralField.zeros(g, 1)
    for l in filt.levels:
        recon = recon + dyadic_block(filt, f, l)
    mean = SpectralField(g, f.coeffs * (~mask))
    checks.append(
        _check("block_reconstruction", lp_norm(f - mean - recon, 2.0) / lp_norm(f, 2.0), 1e-12)
    )
    return checks


def _verify_besov() -> list[dict]:
    g = make_grid(2, 64, (2 * np.pi, 2 * np.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(8)
    f = random_band_field(g, rng, -1, 3, 1, filt, amplitude=1.0)
    from .besov import BesovSpec, besov_norm

    n_plain = besov_norm(f, BesovSpec(1.0, 2, 1), filt)
    n_hyb = hybrid_besov_norm(f, HybridBesovSpec(1.0, 1.0, 2, 2, 1, 1, 0), filt)
    checks = [_check("hybrid_matches_plain", abs(n_plain - n_hyb) / n_plain, 1e-12)]
    two = f * 2.0
    checks.append(
        _check(
            "homogeneity",
            abs(besov_norm(two, BesovSpec(1.0, 2, 1), filt) - 2 * n_plain) / (2 * n_plain),
            1e-12,
        )
    )
    return checks


def _verify_paraproduct() -> list[dict]:
    from .grid import dealias, mult
    from .paraproduct import bony_parts

    g = make_grid(2, 64, (2 * np.pi, 2 * np.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(9)
    checks = []
    worst = 0.0
    for _ in range(5):
        u = dealias(SpectralField.from_values(g, rng.standard_normal((1, *g.shape))))
        v = dealias(SpectralField.from_values(g, rng.standard_normal((1, *g.shape))))
        tuv, tvu, rem = bony_parts(filt, u, v)
        prod = mult(u, v)
        worst = max(worst, lp_norm(tuv + tvu + rem - prod, 2.0) / lp_norm(prod, 2.0))
    checks.append(_check("bony_identity", worst, 1e-12))
    return checks


def _verify_quasi() -> list[dict]:
    from .quasi import friction_exact_residual, heat_evolve, quasi_residual

    g = make_grid(1, 1024, (2 * np.pi,))
    q0 = gaussian_bump(g, 0.5, 1.0, 0.1)
    st = heat_evolve(q0, 0.1, 0.5)
    mr, pr = quasi_residual(st)
    checks = [
        _check("quasi_mass_residual_1d", mr, 1e-8),
        _check("quasi_momentum_residual_1d", pr, 1e-8),
    ]
    rep = friction_exact_residual(st, Fr=1.0, r=10.0)
    checks.append(_check("friction_exact", rep.residual, 1e-8))
    neg = friction_exact_residual(st, Fr=1.0, r=3.0)
    checks.append(_check("friction_negative_control", 1e-3, neg.residual, passed=neg.residual > 1e-3))
    return checks


def _verify_solver() -> list[dict]:
    g = make_grid(2, 128, (2 * np.pi, 2 * np.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(10)
    cfg = SolverConfig(mu=0.1, a=1e-2, dt=0.01)
    q1 = gaussian_bump(g, 0.3, 0.5, cfg.mu)
    h2 = random_band_field(g, rng, 0, 2, 1, filt, amplitude=1e-3)
    u2 = random_band_field(g, rng, 0, 2, 2, filt, amplitude=1e-3)
    st = initial_state(q1, h2, u2, cfg)
    mr, pr = full_residual(st, cfg, include_perturbation_rate=True)
    checks = [
        _check("reformulation_mass", mr, 1e-8),
        _check("reformulation_momentum", pr, 1e-8),
    ]
    from .solver import scaling_check

    checks.append(_check("scaling_equivariance", scaling_check(st, cfg, 2), 1e-10))
    return checks


def _verify_decay() -> list[dict]:
    g = make_grid(2, 128, (64.0, 64.0))
    q0 = gaussian_bump(g, 0.5, 1.0, 0.1)
    checks = []
    for alpha, p, name in ((0, math.inf, "kernel_rate_linf"), (0, 2.0, "kernel_rate_l2")):
        fitted = kernel_decay_fit(q0, 0.1, alpha, p, (2.0, 20.0))
        expected = kernel_rate(2, alpha, p)
        checks.append(
            _check(name, abs(fitted - expected) / expected, 0.15)
        )
    return checks


_SUITES = {
    "lp": _verify_lp,
    "besov": _verify_besov,
    "paraproduct": _verify_paraproduct,
    "quasi": _verify_quasi,
    "solver": _verify_solver,
    "decay": _verify_decay,
}


def verify(suite: str = "all") -> dict:
    """Run a named verification suite; returns a JSON-serializable report."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {list(_SUITES) + ['all']}")
    report = {"suites": {}, "passed": True}
    for name in names:
        checks = _SUITES[name]()
        report["suites"][name] = checks
        report["passed"] = report["passed"] and all(c["passed"] for c in checks)
    return report
