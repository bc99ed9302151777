"""The benchmark's own tests: a smoke run of every workload, and the checks' controls.

Run from the checkout root:  python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from source import CHECKOUT, OUT, use_checkout_source

use_checkout_source()

import checks  # noqa: E402
import workloads  # noqa: E402
from swlp import besov, dyadic, grid, harness, paraproduct  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:log-density truncation")

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        # every second of a traced round belongs to exactly one span
        assert values["trace.self_sum_s"] == pytest.approx(values["trace.wall_s"], rel=1e-3)
        assert (values["solver.step.calls"] == 0) == (workload == "lp_toolkit")
    else:
        assert all(v > 0 for v in values.values())


def test_missing_source_exits_nonzero_without_a_result():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
    for f in Path(__file__).parent.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp_toolkit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""


# ---------------------------------------------------------------------------
# solver checks: positive on a real smoke run, negative on altered copies


@pytest.fixture(scope="module")
def decay_run():
    wl = workloads.make("decay128", 0, "smoke")
    cfg = replace(wl.config, t_end=6.0)
    out = OUT / "test-decay"
    harness.run(cfg, out_dir=out)
    series = checks.read_series(out / "series.csv")
    header, rho = checks.read_field(out / "rho_final")
    shutil.rmtree(out)
    return cfg, series, header, rho


def _altered(series, column, new):
    out = dict(series)
    out[column] = new
    return out


def test_decay_checks_pass_and_fail_on_u_scaled_by_sqrt_1_plus_t(decay_run):
    _, series, _, _ = decay_run
    assert all(c.passed for c in checks.decay_checks(series))
    slowed = _altered(series, "besov_u_m1_inf", series["besov_u_m1_inf"] * (1 + series["t"]) ** 0.5)
    rho_check, u_check = checks.decay_checks(slowed)
    assert rho_check.passed and not u_check.passed


def test_decay_check_fails_on_rho_decaying_too_slowly(decay_run):
    _, series, _, _ = decay_run
    slowed = _altered(series, "linf_rho_minus_1", series["linf_rho_minus_1"] * (1 + series["t"]) ** 0.5)
    assert not checks.decay_checks(slowed)[0].passed


def test_peak_check_fails_when_the_peak_is_off_by_three_eps(decay_run):
    cfg, series, _, _ = decay_run
    assert checks.peak_check(series, cfg.amplitude, cfg.width, cfg.eps).passed
    shifted = _altered(series, "linf_rho_minus_1", series["linf_rho_minus_1"] + 3 * cfg.eps)
    assert not checks.peak_check(shifted, cfg.amplitude, cfg.width, cfg.eps).passed


def test_mass_check_fails_on_a_density_off_by_1e_5(decay_run):
    _, series, header, rho = decay_run
    assert checks.mass_check(series, header, rho).passed
    assert not checks.mass_check(series, header, rho * (1 + 1e-5)).passed


def test_finite_check_fails_on_one_nan(decay_run):
    _, series, _, rho = decay_run
    assert checks.finite_check(series, rho).passed
    bad = rho.copy()
    bad[0, 3, 5] = np.nan
    assert not checks.finite_check(series, bad).passed


def test_ft_bound_fails_when_the_working_norm_grows_elevenfold(decay_run):
    _, series, _, _ = decay_run
    assert checks.ft_bound_check(series).passed
    ft = series["ft_norm"].copy()
    ft[-1] = 11 * ft[0]
    assert not checks.ft_bound_check(_altered(series, "ft_norm", ft)).passed


# ---------------------------------------------------------------------------
# toolkit checks


@pytest.fixture(scope="module")
def lp_case():
    g = grid.make_grid(2, 64, (2 * math.pi, 2 * math.pi))
    filt = dyadic.default_filter(g)
    rng = np.random.default_rng(5)
    a, b = workloads.band_field(rng, 64), workloads.band_field(rng, 64)
    return g, filt, a, b


def test_partition_check_fails_with_one_level_dropped(lp_case):
    g, filt, _, _ = lp_case
    weights = [filt.weight(l) for l in filt.levels]
    assert checks.partition_check(weights, g.xi_mag()).passed
    assert not checks.partition_check(weights[:2] + weights[3:], g.xi_mag()).passed


def test_reconstruction_check_fails_with_one_block_dropped(lp_case):
    g, filt, a, _ = lp_case
    f = grid.SpectralField.from_values(g, a)
    parts = [dyadic.dyadic_block(filt, f, l).coeffs[0] for l in filt.levels]
    assert checks.reconstruction_check(a, parts).passed
    assert not checks.reconstruction_check(a, parts[:2] + parts[3:]).passed


def test_block_norm_check_fails_on_one_norm_off_by_1e_6(lp_case):
    g, filt, a, _ = lp_case
    f = grid.SpectralField.from_values(g, a)
    weights = [filt.weight(l) for l in filt.levels]
    norms = {p: list(besov.block_norms(f, p, filt).values()) for p in (1.0, 2.0, math.inf)}
    assert checks.block_norm_check(a, weights, g.volume, norms).passed
    norms[math.inf][2] *= 1 + 1e-6
    assert not checks.block_norm_check(a, weights, g.volume, norms).passed


def test_bony_check_fails_with_one_block_dropped(lp_case):
    g, filt, a, b = lp_case
    u, v = grid.SpectralField.from_values(g, a), grid.SpectralField.from_values(g, b)
    total = paraproduct.para(filt, u, v) + paraproduct.para(filt, v, u) + paraproduct.remainder(filt, u, v)
    assert checks.bony_check(a, b, total.coeffs[0]).passed
    dropped = total - dyadic.dyadic_block(filt, total, 2)
    assert not checks.bony_check(a, b, dropped.coeffs[0]).passed


def test_ratios_check_fails_on_nan_or_nonpositive():
    assert checks.ratios_check({"a": 1.0, "b": 0.3}).passed
    assert not checks.ratios_check({"a": 1.0, "b": math.nan}).passed
    assert not checks.ratios_check({"a": 0.0}).passed
