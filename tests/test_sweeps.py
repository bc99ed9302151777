import math

import numpy as np
import pytest

from swlp import (
    BesovSpec,
    HybridBesovSpec,
    SpectralField,
    besov_norm,
    block_norms,
    composition_ratio,
    dealias,
    default_filter,
    heat_estimate_ratio,
    hybrid_besov_norm,
    hybrid_para_ratio,
    make_grid,
    para,
    remainder,
    time_besov_norm,
)
from swlp.besov import _weighted
from swlp.grid import xi_mag2
from swlp.solver import random_band_field
from swlp.sweeps import RATIO_NAMES, _TWO_SIDED, frozen_path, load_frozen, sweep_ratios

HEADROOM = 1.1


@pytest.fixture(scope="module")
def frozen():
    assert frozen_path().exists(), "frozen constants missing; run scripts/freeze_sweeps.py"
    return load_frozen()


def test_frozen_covers_all_ratios(frozen):
    assert set(frozen) == set(RATIO_NAMES)
    for name, rec in frozen.items():
        assert rec["max"] > 0
        if name in _TWO_SIDED:
            assert 0 < rec["min"] <= rec["max"]


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_fresh_seed_within_frozen_envelope(frozen, seed):
    ratios = sweep_ratios(seed)
    for name in RATIO_NAMES:
        assert ratios[name] <= HEADROOM * frozen[name]["max"], name
        if name in _TWO_SIDED:
            assert ratios[name] >= frozen[name]["min"] / HEADROOM, name


def test_ratios_finite_and_positive():
    ratios = sweep_ratios(4242)
    for name, v in ratios.items():
        assert v > 0 and v == v, name


# -- oracle: the per-variant ratio functions, one evaluation per variant ------


def _oracle_hybrid_para_ratio(filt, u, v, hspec_out, hspec_u, hspec_v, op):
    den = hybrid_besov_norm(u, hspec_u, filt) * hybrid_besov_norm(v, hspec_v, filt)
    if den == 0.0:
        zero_in = np.abs(u.coeffs).max() == 0.0 or np.abs(v.coeffs).max() == 0.0
        return 0.0 if zero_in else math.nan
    if op == "para":
        num = hybrid_besov_norm(para(filt, u, v), hspec_out, filt)
    else:
        high = op == "remainder_high"
        s, p = (hspec_out.s_high, hspec_out.p_high) if high else (hspec_out.s_low, hspec_out.p_low)
        norms = block_norms(remainder(filt, u, v), p, filt)
        num = _weighted(norms, [l for l in filt.levels if (l > hspec_out.l0) == high], s, 1.0)
    return num / den


def _oracle_composition_ratio(filt, field, s, quadratic):
    expm1 = dealias(SpectralField.from_values(field.grid, np.expm1(field.values)))
    spec = BesovSpec(s, 2.0, 1.0)
    den = besov_norm(field, spec, filt)
    if den == 0.0:
        return math.nan
    if quadratic:
        return besov_norm(expm1 - field, spec, filt) / den**2
    return besov_norm(expm1, spec, filt) / den


def _oracle_heat_estimate_ratio(u0, f_snapshots, spec, rho1, rho2, mu, filt):
    g = u0.grid
    mag2 = xi_mag2(g)
    u_snaps = [(0.0, u0)]
    u_prev = u0.coeffs
    for (t_prev, f_prev), (t_next, f_next) in zip(f_snapshots[:-1], f_snapshots[1:]):
        dt = t_next - t_prev
        decay = np.exp(-mu * mag2 * dt)
        u_next = decay * u_prev + 0.5 * dt * (decay * f_prev.coeffs + f_next.coeffs)
        u_snaps.append((t_next, SpectralField(g, u_next)))
        u_prev = u_next
    inv_r1 = 0.0 if math.isinf(rho1) else 1.0 / rho1
    inv_r2 = 0.0 if math.isinf(rho2) else 1.0 / rho2
    lhs = time_besov_norm(u_snaps, rho1, BesovSpec(spec.s + 2.0 * inv_r1, spec.p, spec.r), filt)
    rhs = besov_norm(u0, spec, filt) + mu ** (inv_r2 - 1.0) * time_besov_norm(
        f_snapshots, rho2, BesovSpec(spec.s - 2.0 + 2.0 * inv_r2, spec.p, spec.r), filt
    )
    if rhs == 0.0:
        return math.nan
    return lhs / rhs


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _check_against_oracle(filt, u, v, f_snaps, hspec_out, hspec_in, spec, rho2):
    ops = ("para", "remainder_high", "remainder_low")
    got = hybrid_para_ratio(filt, u, v, hspec_out, hspec_in, hspec_in)
    want = [_oracle_hybrid_para_ratio(filt, u, v, hspec_out, hspec_in, hspec_in, op) for op in ops]
    assert len(got) == 3 and all(map(_same, got, want)), (got, want)

    got = composition_ratio(filt, u, 1.0)
    want = [_oracle_composition_ratio(filt, u, 1.0, quadratic) for quadratic in (False, True)]
    assert len(got) == 2 and all(map(_same, got, want)), (got, want)

    got = heat_estimate_ratio(u, f_snaps, spec, rho2, 0.5, filt)
    want = [_oracle_heat_estimate_ratio(u, f_snaps, spec, rho1, rho2, 0.5, filt) for rho1 in (math.inf, rho2)]
    assert len(got) == 2 and all(map(_same, got, want)), (got, want)


def _inputs(seed):
    g = make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    filt = default_filter(g)
    rng = np.random.default_rng(seed)
    u, v = (random_band_field(g, rng, 0, 3, 1, filt, amplitude=0.3, norm="l2") for _ in range(2))
    f_snaps = [(float(t), random_band_field(g, rng, 0, 3, 1, filt, norm="l2")) for t in np.linspace(0, 1, 9)]
    return filt, u, v, f_snaps


@pytest.mark.parametrize("seed", [1000, 1001])
@pytest.mark.parametrize(
    "hspec_out, spec, rho2",
    [
        # the sweep's specs
        (HybridBesovSpec(0.5, 1.0, 2, 2, 1, 1, 1), BesovSpec(1.0, 2, 1), 1.0),
        # two distinct p in the remainder's tables, and the other time exponents
        (HybridBesovSpec(0.0, 0.5, 2, math.inf, 1, 1, 2), BesovSpec(0.5, 2, 2), 2.0),
        (HybridBesovSpec(0.5, 1.0, math.inf, 2, 1, 1, 0), BesovSpec(1.0, 2, 1), math.inf),
    ],
    ids=["sweep", "p_split", "rho_inf"],
)
def test_ratio_tuples_match_the_per_variant_oracle(seed, hspec_out, spec, rho2):
    filt, u, v, f_snaps = _inputs(seed)
    _check_against_oracle(filt, u, v, f_snaps, hspec_out, HybridBesovSpec(0.5, 1.0, 2, 2, 1, 1, 1), spec, rho2)


def test_ratio_tuples_match_the_per_variant_oracle_on_zero_inputs():
    filt, u, v, f_snaps = _inputs(1000)
    g = filt.grid
    z = SpectralField.zeros(g)
    const = SpectralField.from_values(g, np.full((1, *g.shape), 0.5))
    zero_snaps = [(t, z) for t, _ in f_snaps]
    h = HybridBesovSpec(0.5, 1.0, 2, 2, 1, 1, 1)
    spec = BesovSpec(1.0, 2, 1)
    for a, b, snaps in ((z, z, zero_snaps), (u, z, zero_snaps), (z, v, f_snaps), (const, v, zero_snaps)):
        _check_against_oracle(filt, a, b, snaps, h, h, spec, 1.0)
    assert hybrid_para_ratio(filt, z, v, h, h, h) == (0.0, 0.0, 0.0)
    assert all(map(math.isnan, hybrid_para_ratio(filt, const, v, h, h, h)))
    assert all(map(math.isnan, composition_ratio(filt, z, 1.0)))
    assert all(map(math.isnan, heat_estimate_ratio(z, zero_snaps, spec, 1.0, 0.5, filt)))


def test_sweep_evaluates_each_operator_once(counted):
    # bounds at this revision; a change may only tighten them
    remainders = counted("paraproduct", "remainder")
    heat = counted("quasi", "heat_estimate_ratio")
    blocks = counted("besov", "block_norms")
    sweep_ratios(1000)
    assert len(remainders) == 1
    assert len(heat) == 1
    assert len(blocks) <= 68
