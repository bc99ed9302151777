"""The benchmark's workloads: inputs made from the seed, timed operations, checks.

A workload runs in rounds.  ``prepare(r)`` makes round ``r``'s inputs
(untimed), ``execute(inputs)`` makes the round's calls into the package (the
timed part) and ``check(inputs, outputs)`` returns one list of ``Check`` per
operation, or the exception that stopped it.  Every call into the package
goes through a module attribute (``harness.run``, ``paraproduct.para``) so the
tracer sees it.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import replace

import numpy as np

import checks
from source import OUT
from swlp import besov, dyadic, grid, harness, paraproduct, quasi, solver, sweeps

# The acceptance physics: 2-d Gaussian bump (amplitude 0.5, heat-time offset
# 1) plus an eps = 1e-3 perturbation, mu = 0.1, a = 1e-5, dt = 0.05.
PHYSICS = harness.RunConfig(dim=2, period=64.0, mu=0.1, a=1e-5, dt=0.05, eps=1e-3, amplitude=0.5, width=1.0)

SOLVER_SIZES = {
    "step512": {
        "full": dict(n=512, t_end=2.0, snapshot_dt=2.0),
        "smoke": dict(n=64, period=16.0, t_end=0.2, snapshot_dt=0.2),
    },
    # 128^2 on period 32 keeps the 256^2 / period 64 acceptance grid spacing
    "decay128": {
        "full": dict(n=128, period=32.0, t_end=20.0, snapshot_dt=0.25),
        "smoke": dict(n=64, period=16.0, t_end=3.0, snapshot_dt=0.25),
    },
}

# lp_toolkit round: sweep seeds, Bony pairs per grid, partition fields per grid
LP_SIZES = {"full": (2, 2, 1), "smoke": (1, 1, 1)}
LP_GRIDS = (64, 128)
# sweep seeds start far above the frozen envelope's and the tests' seeds
FRESH_SEED_BASE = 1_000_000


class SolverWorkload:
    """One ``harness.run`` per round; ``decay128`` adds ``harness.fit_series``."""

    def __init__(self, name: str, seed: int, size: str):
        self.name = name
        self.seed = seed
        self.fit = name == "decay128"
        self.config = replace(PHYSICS, **SOLVER_SIZES[name][size])

    def setup(self):
        """The calls ``harness.run`` makes before its first step."""
        cfg = self.config
        g = grid.make_grid(cfg.dim, cfg.n, cfg.period)
        scfg = cfg.solver_config()
        filt = dyadic.default_filter(g)
        rng = np.random.default_rng(cfg.seed)
        q1 = quasi.gaussian_bump(g, cfg.amplitude, cfg.width, cfg.mu)
        h2 = solver.random_band_field(
            g, rng, cfg.pert_h2_l_lo, cfg.pert_h2_l_hi, 1, filt, amplitude=cfg.eps * cfg.pert_h2
        )
        u2 = solver.random_band_field(g, rng, cfg.pert_l_lo, cfg.pert_l_hi, g.dim, filt, amplitude=cfg.eps)
        _, u2 = grid.helmholtz_split(u2)
        u2 = u2 * (cfg.eps / besov.lp_norm(u2, math.inf))
        return solver.initial_state(q1, h2, u2, scfg)

    def prepare(self, r: int):
        cfg = replace(self.config, seed=self.seed * 1000 + r)
        return cfg, OUT / f"{self.name}-seed{self.seed}-round{r}"

    def execute(self, inputs):
        cfg, out = inputs
        try:
            harness.run(cfg, out_dir=out)
            if self.fit:
                harness.fit_series(out / "series.csv")
        except (solver.CflError, solver.BlowupError) as exc:
            return exc
        return None

    def check(self, inputs, outputs):
        cfg, out = inputs
        if outputs is not None:
            shutil.rmtree(out, ignore_errors=True)
            return [outputs]
        series = checks.read_series(out / "series.csv")
        rho_header, rho = checks.read_field(out / "rho_final")
        _, u = checks.read_field(out / "u_final")
        found = [
            checks.peak_check(series, cfg.amplitude, cfg.width, cfg.eps),
            checks.mass_check(series, rho_header, rho),
            checks.finite_check(series, rho, u),
        ]
        if self.fit:
            found += checks.decay_checks(series)
            found.append(checks.ft_bound_check(series))
        shutil.rmtree(out, ignore_errors=True)
        return [found]


def band_field(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random real field with modes 1 <= |k| <= n/4 plus a mean, unit spread."""
    c = np.fft.fft2(rng.standard_normal((n, n)))
    k = np.fft.fftfreq(n, d=1.0 / n)
    kk = np.hypot(k[:, None], k[None, :])
    c[(kk > n / 4) | (kk == 0)] = 0.0
    values = np.real(np.fft.ifft2(c))
    return values / values.std() + rng.uniform(-1.0, 1.0)


class LpWorkload:
    """``sweep_ratios`` on fresh seeds, Bony pairs and block decompositions; no solver."""

    name = "lp_toolkit"

    def __init__(self, name: str, seed: int, size: str):
        self.seed = seed
        self.n_seeds, self.n_pairs, self.n_fields = LP_SIZES[size]

    def setup(self):
        self.grids = {n: grid.make_grid(2, n, (2 * math.pi, 2 * math.pi)) for n in LP_GRIDS}
        self.filters = {n: dyadic.default_filter(g) for n, g in self.grids.items()}

    def prepare(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        first = FRESH_SEED_BASE + (self.seed * 1000 + r) * self.n_seeds
        seeds = list(range(first, first + self.n_seeds))
        pairs = [(n, band_field(rng, n), band_field(rng, n)) for n in LP_GRIDS for _ in range(self.n_pairs)]
        fields = [(n, band_field(rng, n)) for n in LP_GRIDS for _ in range(self.n_fields)]
        return seeds, pairs, fields

    def execute(self, inputs):
        seeds, pairs, fields = inputs
        ratios = [sweeps.sweep_ratios(s) for s in seeds]
        bony = []
        for n, a, b in pairs:
            g, filt = self.grids[n], self.filters[n]
            u = grid.SpectralField.from_values(g, a)
            v = grid.SpectralField.from_values(g, b)
            total = paraproduct.para(filt, u, v) + paraproduct.para(filt, v, u) + paraproduct.remainder(filt, u, v)
            bony.append(total.coeffs[0])
        blocks = []
        for n, a in fields:
            g, filt = self.grids[n], self.filters[n]
            f = grid.SpectralField.from_values(g, a)
            parts = [dyadic.dyadic_block(filt, f, l).coeffs[0] for l in filt.levels]
            norms = {p: list(besov.block_norms(f, p, filt).values()) for p in (1.0, 2.0, math.inf)}
            blocks.append((parts, norms))
        return ratios, bony, blocks

    def check(self, inputs, outputs):
        seeds, pairs, fields = inputs
        ratios, bony, blocks = outputs
        found = [[checks.ratios_check(r)] for r in ratios]
        found += [[checks.bony_check(a, b, total)] for (_, a, b), total in zip(pairs, bony)]
        for (n, a), (parts, norms) in zip(fields, blocks):
            g, filt = self.grids[n], self.filters[n]
            weights = [filt.weight(l) for l in filt.levels]
            found.append(
                [
                    checks.partition_check(weights, g.xi_mag()),
                    checks.reconstruction_check(a, parts),
                    checks.block_norm_check(a, weights, g.volume, norms),
                ]
            )
        return found


WORKLOADS = {"step512": SolverWorkload, "decay128": SolverWorkload, "lp_toolkit": LpWorkload}


def make(name: str, seed: int, size: str = "full"):
    return WORKLOADS[name](name, seed, size)
