"""Run orchestration: JSON config, CSV time series, summaries, decay fits.

A run integrates the perturbation system from a Gaussian density bump plus
a small random band-limited perturbation, records a fixed set of
diagnostics at a snapshot cadence, and writes three artifacts into the
output directory: ``series.csv``, ``summary.json``, and binary field dumps
of the recomposed state at the final time.  A run stopped by a CFL
violation or a blow-up still writes the rows computed before it and a
summary naming the failure.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .besov import _time_hybrid, besov_minus1_infty, block_norms, lp_norm
from .dyadic import DyadicFilter, default_filter, default_levels
from .grid import Grid, SpectralField, dump_field, helmholtz_split, make_grid
from .quasi import DensityFloorError, gaussian_bump, kernel_rate
from .solver import (
    BlowupError,
    CflError,
    SimState,
    SolverConfig,
    _check_band,
    cfl_number,
    ft_specs,
    full_residual,
    gronwall_integrand,
    initial_state,
    random_band_field,
    recompose,
    step,
)

__all__ = [
    "RunConfig",
    "RunResult",
    "ConfigError",
    "DecayReport",
    "SERIES_COLUMNS",
    "DECAY_FITS",
    "FIT_WINDOW",
    "load_config",
    "run",
    "fit_decay",
    "fit_series",
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

# (series column, derivative order |alpha| of its heat-kernel L^inf rate, tolerance
# on the fitted exponent): the expected exponent is kernel_rate(N, |alpha|, inf)
DECAY_FITS = (("linf_rho_minus_1", 0, 0.15), ("besov_u_m1_inf", 1, 0.20))
# the default fit window (t_min, t_max)
FIT_WINDOW = (2.0, 20.0)


class ConfigError(ValueError):
    """Bad input found before any step: an initial density below the floor, or an out_dir that cannot be made."""


@dataclass(frozen=True)
class RunConfig(SolverConfig):
    """A run: the solver's physics (the fields of ``SolverConfig``) and the grid,
    initial data, length and output of one integration."""

    dim: int = 2
    n: int = 256
    period: float | list[float] = 64.0
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
    l0: int = 0
    dump_fields: bool = True

    def __post_init__(self):
        # a bad physics, grid, amplitude, dt or run length fails here, before any work;
        # SolverConfig's checks cover every field's finiteness and the physics
        super().__post_init__()
        grid = make_grid(self.dim, self.n, self.period)
        _ = (self.n_steps, self.snap_stride)
        if self.amplitude <= -1.0:
            raise ValueError(f"amplitude = {self.amplitude:g} leaves no positive density; need > -1")
        if self.width <= 0:
            raise ValueError(f"width = {self.width:g} must be positive")
        if self.eps < 0:
            raise ValueError(f"eps = {self.eps:g} must be nonnegative")
        if self.pert_h2 < 0:
            raise ValueError(f"pert_h2 = {self.pert_h2:g} must be nonnegative")
        # the perturbation's random generator takes a nonnegative seed
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed!r} must be a nonnegative integer")
        levels = default_levels(grid)
        # the crossover block of the hybrid norms must be one hybrid_besov_norm accepts
        if not levels[0] - 1 <= self.l0 <= levels[1]:
            raise ValueError(f"l0 = {self.l0} outside [{levels[0] - 1}, {levels[1]}] for this grid")
        # the perturbation bands _initial_state draws from must hold a level of the run's filter
        if self.eps > 0:
            _check_band("[pert_l_lo, pert_l_hi]", self.pert_l_lo, self.pert_l_hi, *levels)
            if self.eps * self.pert_h2 > 0:
                _check_band("[pert_h2_l_lo, pert_h2_l_hi]", self.pert_h2_l_lo, self.pert_h2_l_hi, *levels)

    @property
    def n_steps(self) -> int:
        return _whole_steps(self.t_end, self.dt, "t_end")

    @property
    def snap_stride(self) -> int:
        return _whole_steps(self.snapshot_dt, self.dt, "snapshot_dt")

    def solver_config(self) -> SolverConfig:
        """The physics alone: a ``SolverConfig``, the key of the solver's per-configuration caches."""
        return SolverConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(SolverConfig)})


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


class _Series:
    """A run's ``series.csv`` rows, one per snapshot, and the one history behind two columns.

    The history keeps the snapshot times, a row of p = 2 block norms of h2
    and of u2 per snapshot, and the ``gronwall_integrand`` values.  The
    working norm ``ft_norm`` is the sum of the four Chemin-Lerner hybrid
    norms of ``ft_specs`` over the block-norm rows; the Gronwall exponent
    ``V_T`` is the trapezoid integral of the integrand values.
    """

    def __init__(self, scfg: SolverConfig, filt: DyadicFilter, l0: int = 0):
        self.scfg = scfg
        self.filt = filt
        self.l0 = l0
        self.specs = ft_specs(filt.grid.dim, l0)
        self.rows: list[dict] = []
        self.times: list[float] = []
        self.blocks: dict[str, list[list[float]]] = {"h2": [], "u2": []}
        self.integrand: list[float] = []

    def record(self, state: SimState) -> dict:
        """Append the snapshot of ``state`` to the series and return its row."""
        # a shallow copy keeps the e^{h2} that the step cached (``dataclasses.replace`` would
        # compute it again); what the snapshot caches on the copy, the recomposed fields, dies
        # with it, so the step that reads ``state`` next holds what any other step holds
        state = copy.copy(state)
        rho, u = recompose(state)
        res_mass, res_mom = full_residual(state, self.scfg)
        mass = rho.mean()[0] * state.grid.volume
        mass0 = self.rows[0]["mass"] if self.rows else mass
        self.times.append(state.t)
        for key, rows in self.blocks.items():
            rows.append(list(block_norms(getattr(state, key), 2.0, self.filt).values()))
        self.integrand.append(gronwall_integrand(state, self.filt, self.l0))
        row = {
            "t": state.t,
            "linf_rho_minus_1": float(np.abs(rho.values[0] - 1.0).max()),
            "besov_u_m1_inf": besov_minus1_infty(u, self.filt, low_cut=2),
            "mass": mass,
            "mass_drift": abs(mass - mass0) / abs(mass0),
            "res_mass": res_mass,
            "res_mom": res_mom,
            "ft_norm": self.ft_norm(),
            "V_T": float(np.trapezoid(self.integrand, self.times)),
            "cfl": cfl_number(state, self.scfg),
        }
        self.rows.append(row)
        return row

    def ft_norm(self) -> float:
        times = np.asarray(self.times)
        out = 0.0
        for name, hspec in self.specs.items():
            key, time_norm = name.split("_")
            rho = math.inf if time_norm == "inf" else 1.0
            out += _time_hybrid(times, {2.0: self.blocks[key]}, rho, hspec, self.filt.levels)
        return out


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

    ``out_dir`` is made after the initial state, before any step.  On a
    ``CflError`` or ``BlowupError`` the rows computed so far and a summary
    with the failure status are written before the error is re-raised.
    """
    grid = make_grid(config.dim, config.n, config.period)
    scfg = config.solver_config()
    filt = default_filter(grid)
    try:
        state = _initial_state(config, grid, filt)
    except DensityFloorError as exc:  # only the built state shows it
        raise ConfigError(exc) from None
    if out_dir is not None:
        out_dir = Path(out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory: {exc}") from None

    series = _Series(scfg, filt, config.l0)
    series.record(state)

    n_steps = config.n_steps
    status, failure = "ok", None
    try:
        for k in range(1, n_steps + 1):
            state = step(state, scfg)
            if k % config.snap_stride == 0 or k == n_steps:
                series.record(state)
    except CflError as exc:
        status, failure = "cfl", exc
    except BlowupError as exc:
        status, failure = "blowup", exc

    rows = series.rows
    result = RunResult(config=config, rows=rows, final_state=state, out_dir=out_dir)
    if out_dir is not None:
        _write_series(out_dir / "series.csv", rows)
        summary = {
            "config": dataclasses.asdict(config),
            "status": status,
            # the end of step k, the one that failed; state.t is the last valid time
            "t_fail": None if failure is None else k * config.dt,
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
    t_min: float = FIT_WINDOW[0],
    t_max: float = FIT_WINDOW[1],
) -> DecayReport:
    """Least-squares slope of log(value - floor) against log(1 + t).

    The floor is a late-time plateau subtracted so residual contamination
    from the perturbation does not bias the power-law fit; it is the level
    in [0, 0.9 min(value)] that makes the remainder closest to a power law
    (0 if the signal has not flattened).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (times >= t_min) & (times <= t_max) & (values > 0)
    t = times[sel]
    v = values[sel]
    if t.size < 4:
        raise ValueError(f"too few samples in the fit window: {t.size} < 4")
    x = np.log1p(t)
    floor, best = 0.0, np.inf
    # the smallest least-squares residual in log-log picks the plateau level
    for cand in np.linspace(0.0, 0.9 * v.min(), 200):
        res = np.polyfit(x, np.log(v - cand), 1, full=True)[1]
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


def fit_series(series_path, t_min: float = FIT_WINDOW[0], t_max: float = FIT_WINDOW[1]) -> dict:
    """Fit the decay columns of a series.csv; returns a report dict.

    The expected exponents are the heat-kernel rates in the dimension N of
    the run, read from the ``summary.json`` beside the series.
    """
    series_path = Path(series_path)
    if t_min >= t_max:
        raise ValueError(f"empty fit window: t_min = {t_min:g} >= t_max = {t_max:g}")
    summary = json.loads((series_path.parent / "summary.json").read_text())
    dim = summary["config"]["dim"]
    with open(series_path) as fh:
        rows = list(csv.DictReader(fh))
    times = [float(row["t"]) for row in rows]
    reports = []
    for column, alpha, tolerance in DECAY_FITS:
        values = [float(row[column]) for row in rows]
        rep = fit_decay(times, values, kernel_rate(dim, alpha, math.inf), tolerance, t_min, t_max)
        reports.append(dataclasses.replace(rep, column=column))
    return {
        "fits": [dataclasses.asdict(r) | {"passed": r.passed} for r in reports],
        "passed": all(r.passed for r in reports),
        "window": [t_min, t_max],
    }
