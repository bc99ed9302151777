"""Seeded sweeps of the analysis-estimate diagnostic ratios.

Each ratio is a dimensionless quantity that the function-space estimates
bound by a constant; the sweep evaluates them on random band-limited data
and the frozen record (data/frozen_constants.json, written by
scripts/freeze_sweeps.py) pins the observed envelope so regressions in the
operators show up as envelope violations on fresh seeds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .besov import BesovSpec, HybridBesovSpec, heat_characterization_ratio, lp_norm
from .dyadic import default_filter
from .grid import make_grid
from .paraproduct import composition_ratio, hybrid_para_ratio, product_law_ratio
from .quasi import heat_estimate_ratio
from .solver import random_band_field

__all__ = ["RATIO_NAMES", "sweep_ratios", "frozen_path", "load_frozen"]

RATIO_NAMES = (
    "product_linf_symmetric_s1",
    "product_linf_factor_s05",
    "para_hybrid",
    "remainder_high",
    "remainder_low",
    "composition_linear",
    "composition_quadratic",
    "heat_estimate_inf_1",
    "heat_estimate_1_1",
    "heat_characterization",
)

_TWO_SIDED = ("heat_characterization",)


def frozen_path() -> Path:
    return Path(__file__).resolve().parents[2] / "data" / "frozen_constants.json"


def load_frozen() -> dict:
    return json.loads(frozen_path().read_text())


def sweep_ratios(seed: int) -> dict[str, float]:
    """All diagnostic ratios for one seed, on a 64^2 unit-scale box."""
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(seed)
    u = random_band_field(g, rng, 0, 3, 1, filt, amplitude=1.0, norm="l2")
    v = random_band_field(g, rng, 0, 3, 1, filt, amplitude=1.0, norm="l2")

    out: dict[str, float] = {}
    s1 = BesovSpec(1.0, 2, 1)
    out["product_linf_symmetric_s1"] = product_law_ratio(
        filt, u, v, s1, s1, s1, law="linf_symmetric"
    )
    s05 = BesovSpec(0.5, 2, 1)
    out["product_linf_factor_s05"] = product_law_ratio(
        filt, u, v, s05, s05, s05, law="linf_factor"
    )

    h_out = HybridBesovSpec(0.5, 1.0, 2, 2, 1, 1, 1)
    h_in = HybridBesovSpec(0.5, 1.0, 2, 2, 1, 1, 1)
    out["para_hybrid"], out["remainder_high"], out["remainder_low"] = hybrid_para_ratio(
        filt, u, v, h_out, h_in, h_in
    )

    w = u * (0.5 / lp_norm(u, math.inf))
    out["composition_linear"], out["composition_quadratic"] = composition_ratio(filt, w, 1.0)

    mu = 0.5
    f_times = np.linspace(0.0, 2.0, 33)
    f_snaps = [
        (float(t), random_band_field(g, rng, 0, 3, 1, filt, amplitude=1.0, norm="l2"))
        for t in f_times
    ]
    out["heat_estimate_inf_1"], out["heat_estimate_1_1"] = heat_estimate_ratio(
        u, f_snaps, BesovSpec(1.0, 2, 1), 1.0, mu, filt
    )

    out["heat_characterization"] = heat_characterization_ratio(u, 0.5, 2, 1, filt)
    return out
