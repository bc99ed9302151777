import csv
import json
import math

import numpy as np
import pytest

from swlp.cli import main as cli_main
from swlp.dyadic import default_filter
from swlp.grid import make_grid
from swlp.harness import (
    SERIES_COLUMNS,
    RunConfig,
    _initial_state,
    fit_decay,
    fit_series,
    load_config,
    run,
    verify,
)
from swlp.solver import CflError, gronwall_integrand, step

FAST = dict(n=64, dt=0.05, t_end=1.0, snapshot_dt=0.25, dump_fields=False)


def test_series_column_contract():
    assert SERIES_COLUMNS == (
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


def test_run_writes_artifacts(tmp_path):
    cfg = RunConfig(**{**FAST, "dump_fields": True})
    res = run(cfg, out_dir=tmp_path)
    assert (tmp_path / "series.csv").exists()
    assert (tmp_path / "summary.json").exists()
    for stem, ncomp in (("rho_final", 1), ("u_final", 2)):
        side = json.loads((tmp_path / f"{stem}.json").read_text())
        assert side["dim"] == 2 and side["components"] == ncomp
        for c in range(ncomp):
            raw = (tmp_path / f"{stem}.c{c}.bin").read_bytes()
            assert len(raw) == 8 * 64 * 64
    with open(tmp_path / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == SERIES_COLUMNS
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(1.0)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {"ft_initial", "ft_ratio", "config", "final"} <= set(summary)
    assert summary["status"] == "ok"
    assert res.rows[-1]["ft_norm"] > 0


def test_run_deterministic_per_seed(tmp_path):
    r1 = run(RunConfig(**FAST, seed=7))
    r2 = run(RunConfig(**FAST, seed=7))
    r3 = run(RunConfig(**FAST, seed=8))
    assert r1.rows[-1] == r2.rows[-1]
    assert r1.rows[-1]["besov_u_m1_inf"] != r3.rows[-1]["besov_u_m1_inf"]


def test_v_t_is_trapezoid_of_gronwall_integrand():
    cfg = RunConfig(**FAST)
    res = run(cfg)
    g = make_grid(cfg.dim, cfg.n, cfg.period)
    filt = default_filter(g)
    state = _initial_state(cfg, g, filt)
    times, values = [state.t], [gronwall_integrand(state, filt)]
    for k in range(1, cfg.n_steps + 1):
        state = step(state, cfg.solver_config())
        if k % cfg.snap_stride == 0:
            times.append(state.t)
            values.append(gronwall_integrand(state, filt))
    assert [row["t"] for row in res.rows] == pytest.approx(times, rel=1e-12)
    assert res.rows[-1]["V_T"] == pytest.approx(np.trapezoid(values, times), rel=1e-12)


def test_failed_run_keeps_rows_and_status(tmp_path):
    with pytest.raises(CflError):
        run(RunConfig(**FAST, cfl_max=1e-6), out_dir=tmp_path / "out")
    with open(tmp_path / "out" / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["t"]) for r in rows] == [0.0]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "cfl"
    assert summary["t_fail"] == pytest.approx(FAST["dt"])


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 64, "bogus_key": 1}))
    with pytest.raises(ValueError, match="bogus_key"):
        load_config(path)


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 64, "mu": 0.2}))
    cfg = load_config(path, {"mu": 0.3, "seed": None})
    assert cfg.n == 64
    assert cfg.mu == 0.3
    assert cfg.seed == RunConfig().seed


def test_fit_decay_recovers_synthetic_power_law():
    t = np.linspace(0.5, 25, 120)
    v = 3.0 * (1 + t) ** -1.5 + 0.02
    rep = fit_decay(t, v, expected=1.5, tolerance=0.1)
    assert rep.passed
    assert rep.exponent == pytest.approx(1.5, abs=0.02)
    assert rep.floor == pytest.approx(0.02, rel=0.2)


def test_fit_decay_flags_wrong_exponent():
    t = np.linspace(0.5, 25, 120)
    v = 3.0 * (1 + t) ** -0.6
    rep = fit_decay(t, v, expected=1.5, tolerance=0.1)
    assert not rep.passed


def test_fit_series_from_csv(tmp_path):
    path = tmp_path / "series.csv"
    t = np.linspace(0.0, 25, 200)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=SERIES_COLUMNS)
        w.writeheader()
        for ti in t:
            row = {k: 0.0 for k in SERIES_COLUMNS}
            row["t"] = ti
            row["linf_rho_minus_1"] = 2.0 * (1 + ti) ** -1.0
            row["besov_u_m1_inf"] = 1.0 * (1 + ti) ** -1.5
            w.writerow(row)
    rep = fit_series(path)
    assert rep["passed"]
    by_col = {f["column"]: f for f in rep["fits"]}
    assert by_col["linf_rho_minus_1"]["exponent"] == pytest.approx(1.0, abs=0.1)
    assert by_col["besov_u_m1_inf"]["exponent"] == pytest.approx(1.5, abs=0.1)


@pytest.mark.parametrize("suite", ["lp", "besov", "paraproduct", "quasi"])
def test_verify_fast_suites(suite):
    rep = verify(suite)
    assert rep["passed"], rep


def test_cli_run_and_fit_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "series.csv").exists()
    # fit on a too-short run: exponents will not match -> exit 1
    assert cli_main(["fit", "--out", str(out), "--t-min", "0.2", "--t-max", "1.0"]) == 1
    assert (out / "fit.json").exists()
    # fit on a missing directory -> exit 2
    assert cli_main(["fit", "--out", str(tmp_path / "nope")]) == 2


def test_cli_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"definitely_not_a_key": True}))
    assert cli_main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("key, value", [("t_end", 1.01), ("snapshot_dt", 0.07), ("mu", -1.0)])
def test_cli_bad_config_value_exit_2(tmp_path, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, key: value}))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_cli_blowup_exit_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                **FAST,
                "dt": 2.0,
                "t_end": 4.0,
                "snapshot_dt": 2.0,
                "eps": 2.0,
                "pert_l_lo": 0,
                "pert_l_hi": 1,
            }
        )
    )
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_cli_verify_exit_code(tmp_path):
    out = tmp_path / "report.json"
    assert cli_main(["verify", "--suite", "lp", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"]
