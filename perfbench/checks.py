"""Output checks computed without the program under test.

Every reference here is made with numpy (its own FFT, not the scipy FFT the
package uses), the csv module and closed-form formulas.  Each check returns a
``Check``; an operation fails when any of its checks does not pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float
    passed: bool


def _upper(name: str, value: float, bound: float) -> Check:
    value = float(value)
    return Check(name, value, bound, bool(value <= bound))


# ---------------------------------------------------------------------------
# artifacts of a solver run


def read_series(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def read_field(stem) -> tuple[dict, np.ndarray]:
    """Header and values of a dump written as ``<stem>.json`` + ``<stem>.c<i>.bin``."""
    stem = Path(stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    shape = (header["n"],) * header["dim"]
    values = np.stack(
        [np.fromfile(f"{stem}.c{c}.bin", dtype="<f8").reshape(shape) for c in range(header["components"])]
    )
    return header, values


def peak_check(series, amplitude: float, width: float, eps: float, factor: float = 2.0) -> Check:
    """sup_t | ||rho - 1||_inf - A w / (w + t) | <= factor * eps.

    A Gaussian bump of heat-time offset ``w`` has the 2-d peak A w / (w + t)
    under the heat flow.  The perturbation moves the density by at most
    (1 + A) eps, which ``factor = 2`` covers for every seed.
    """
    exact = amplitude * width / (width + series["t"])
    dev = np.abs(series["linf_rho_minus_1"] - exact).max()
    return _upper("peak_vs_heat_kernel", dev, factor * eps)


def mass_check(series, rho_header: dict, rho_values: np.ndarray, tol: float = 1e-6) -> Check:
    """Mass of the dumped final density, integrated with numpy, against the t = 0 mass."""
    volume = float(np.prod(rho_header["period"]))
    mass = float(rho_values[0].mean()) * volume
    mass0 = float(series["mass"][0])
    return _upper("final_mass", abs(mass - mass0) / abs(mass0), tol)


def finite_check(series, *fields: np.ndarray) -> Check:
    bad = sum(int(np.count_nonzero(~np.isfinite(v))) for v in series.values())
    bad += sum(int(np.count_nonzero(~np.isfinite(f))) for f in fields)
    return _upper("non_finite_values", bad, 0)


def decay_exponent(times, values, t_min: float = 2.0, t_max: float = 20.0) -> float:
    """Least-squares slope of log(value) against log(1 + t), sign flipped."""
    sel = (times >= t_min) & (times <= t_max)
    slope = np.polyfit(np.log1p(times[sel]), np.log(values[sel]), 1)[0]
    return float(-slope)


def decay_checks(series) -> list[Check]:
    """Paper rates in 2-d: t^{-1} for rho - 1, t^{-3/2} for u in B^{-1}_{inf,inf}."""
    return [
        _upper(name, abs(decay_exponent(series["t"], series[column]) - expected), tol)
        for name, column, expected, tol in (
            ("decay_exponent_error_rho", "linf_rho_minus_1", 1.0, 0.15),
            ("decay_exponent_error_u", "besov_u_m1_inf", 1.5, 0.20),
        )
    ]


def ft_bound_check(series, factor: float = 10.0) -> Check:
    ft = series["ft_norm"]
    return _upper("ft_norm_over_initial", ft.max() / ft[0], factor)


# ---------------------------------------------------------------------------
# Littlewood-Paley toolkit


def _coeffs(values: np.ndarray) -> np.ndarray:
    """Package convention: DFT over the spatial axes divided by the point count."""
    return np.fft.fft2(values) / values.size


def partition_check(weights: list[np.ndarray], xi_mag: np.ndarray, tol: float = 1e-10) -> Check:
    total = np.sum(weights, axis=0)
    return _upper("partition_of_unity", np.abs(total[xi_mag > 0] - 1.0).max(), tol)


def reconstruction_check(values: np.ndarray, block_coeffs: list[np.ndarray], tol: float = 1e-10) -> Check:
    """The blocks sum to the field minus its mean."""
    target = _coeffs(values)
    target[0, 0] = 0.0
    err = np.abs(np.sum(block_coeffs, axis=0) - target).max() / np.abs(target).max()
    return _upper("block_reconstruction", err, tol)


def block_norm_check(
    values: np.ndarray, weights: list[np.ndarray], volume: float, norms: dict[float, list[float]], tol: float = 1e-10
) -> Check:
    """Block L^p norms for p = 1, 2, inf against numpy: Parseval for p = 2, ifft otherwise.

    The error of each block is taken relative to the largest block norm.
    """
    c = _coeffs(values)
    ref: dict[float, list[float]] = {1.0: [], 2.0: [], math.inf: []}
    for w in weights:
        block = c * w
        ref[2.0].append(math.sqrt(volume * float(np.sum(np.abs(block) ** 2))))
        vals = np.abs(np.real(np.fft.ifft2(block * values.size)))
        ref[1.0].append(float(vals.mean()) * volume)
        ref[math.inf].append(float(vals.max()))
    worst = max(
        float(np.abs(np.subtract(got, ref[p])).max()) / max(ref[p]) for p, got in norms.items()
    )
    return _upper("block_norms_p1_p2_pinf", worst, tol)


def dealiased_product(u: np.ndarray, v: np.ndarray, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Coefficients of u * v with every |k_i| >= fraction * n / 2 zeroed."""
    n = u.shape[-1]
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    keep = k < fraction * n / 2.0
    return _coeffs(u * v) * (keep[:, None] & keep[None, :])


def bony_check(u: np.ndarray, v: np.ndarray, total_coeffs: np.ndarray, tol: float = 1e-12) -> Check:
    """T_u v + T_v u + R(u, v) against the 2/3-dealiased product, relative L2."""
    ref = dealiased_product(u, v)
    err = math.sqrt(float(np.sum(np.abs(total_coeffs - ref) ** 2)) / float(np.sum(np.abs(ref) ** 2)))
    return _upper("bony_identity", err, tol)


def ratios_check(ratios: dict[str, float]) -> Check:
    bad = sum(1 for r in ratios.values() if not (math.isfinite(r) and r > 0))
    return _upper("ratios_finite_positive", bad, 0)
