import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swlp import checks, harness, solver
from swlp.cli import main as cli_main
from swlp.besov import besov_minus1_infty
from swlp.dyadic import default_filter
from swlp.grid import SpectralField, make_grid
from swlp.harness import (
    FIT_WINDOW,
    SERIES_COLUMNS,
    RunConfig,
    _initial_state,
    _Series,
    fit_decay,
    fit_series,
    load_config,
    run,
)
from swlp.solver import (
    CflError,
    cfl_number,
    full_residual,
    gronwall_integrand,
    recompose,
    step,
)

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
    g = make_grid(cfg.dim, cfg.n, cfg.period)
    filt = default_filter(g)
    scfg = cfg.solver_config()
    series = _Series(scfg, filt, cfg.l0)
    state = _initial_state(cfg, g, filt)
    times, values = [], []
    for k in range(cfg.n_steps + 1):
        if k:
            state = step(state, scfg)
        if k % cfg.snap_stride == 0:
            row = series.record(state)
            times.append(state.t)
            values.append(gronwall_integrand(state, filt))
            assert row["V_T"] == np.trapezoid(values, times)
    assert len(times) > 2
    assert run(cfg).rows == series.rows


def test_run_clock_is_the_step_count_times_dt(tmp_path):
    """A state's time is its step count times dt, not a running sum: at dt 0.1 the
    run ends at t = 1.0, where ten additions of 0.1 give 0.9999999999999999."""
    cfg = RunConfig(**{**FAST, "dt": 0.1, "snapshot_dt": 0.2})
    res = run(cfg, out_dir=tmp_path)
    assert [r["t"] for r in res.rows] == [k * 0.1 for k in range(0, 11, 2)]
    assert res.final_state.t == 1.0
    assert json.loads((tmp_path / "summary.json").read_text())["t_final"] == 1.0


def test_decay_fit_reads_the_final_snapshot(tmp_path):
    """The snapshot at t = 20 lies in the fit window [2, 20]: a run to t = 20 with a
    snapshot every 1 gives both fits the 19 snapshots at t = 2, 3, ..., 20."""
    run(RunConfig(**{**FAST, "t_end": 20.0, "snapshot_dt": 1.0}), out_dir=tmp_path)
    report = fit_series(tmp_path / "series.csv")
    assert report["window"] == list(FIT_WINDOW)
    assert [f["n_points"] for f in report["fits"]] == [19, 19]


def test_run_traces_one_residual_and_one_gradient_stack_per_row(counted):
    """The benchmark's tracer counts a run's snapshots by its ``solver.full_residual``
    spans, and its ``harness.diag_per_step`` divides by that count.  The one gradient
    stack of a row is grad u1's, for its p = 2 norm; the L-inf norms of grad u1 and
    grad u take one derivative at a time."""
    residuals = counted("solver", "full_residual")
    gradients = counted("solver", "grad_norm_field")
    rows = run(RunConfig(**FAST)).rows
    assert len(rows) == 5
    assert len(residuals) == len(rows)
    assert len(gradients) == len(rows)


def test_snapshot_diagnostics_inverse_transform_budget(inverse_lattices, forward_lattices):
    """The lattices that a step and a snapshot transform, each component of each call
    counted: the derivatives and terms made one entry at a time transform the lattices
    that their whole-field stacks did."""
    config = RunConfig(**FAST)
    grid = make_grid(2, config.n, config.period)
    filt = default_filter(grid)
    scfg = config.solver_config()
    stepped = step(_initial_state(config, grid, filt), scfg)
    del inverse_lattices[:]
    del forward_lattices[:]
    state = step(stepped, scfg)
    # the values of u1 (2), grad h2 (2), grad u2 (4) and the upper triangle of grad u1
    # (3), of the new h2 and u2, checked finite (3), and of the new q1 (1); cfl_number
    # reads the u1 and u2 values that assemble_rhs reads as well, so it needs none
    cfl_number(stepped, scfg)
    assert sum(inverse_lattices) == 15
    # the right-hand sides (3) and ln rho1 (1)
    assert sum(forward_lattices) == 4
    del inverse_lattices[:]
    del forward_lattices[:]
    # one transform per L-inf piece; one per dyadic block of every norm or per
    # product would make about 70 inverse ones; the time term is one product per
    # component, and rho1's values are 1 + q1's, which the state holds
    _Series(scfg, filt).record(state)
    assert sum(inverse_lattices) == 28
    assert sum(forward_lattices) == 17


def test_snapshot_diagnostics_memory_budget():
    """The working set of the snapshot diagnostics and of a step, as the tracemalloc peak
    of what a call allocates, in complex lattices of the grid (n^2 * 16 bytes).  The
    residual's terms and rates and the step's and the Gronwall L-inf norms' derivatives
    come one entry at a time: as whole-field stacks they took a snapshot to 21.2, the
    residual to 17.6, the Gronwall integrand to 10.1 and a step to 13.6 (at 64^2 a step
    peaks in its pointwise products, whose one block is the lattice).  The L-inf pieces
    come one at a time: at 128^2 over period 32 (4 pieces) two stacks of half of them
    peaked at 6.0.  A snapshot peaks at 12.6."""

    def peak(fn, state, *args) -> float:
        tracemalloc.start()
        try:
            fn(state, *args)
            return tracemalloc.get_traced_memory()[1] / (16 * state.grid.n**2)
        finally:
            tracemalloc.stop()

    def run_start(config):
        grid = make_grid(2, config.n, config.period)
        filt = default_filter(grid)
        scfg = config.solver_config()
        stepped = step(_initial_state(config, grid, filt), scfg)

        def recomposed():
            # a snapshot recomposes first; the pair is made outside the measured call
            state = step(stepped, scfg)
            return state, recompose(state)

        return filt, scfg, stepped, recomposed

    filt, scfg, stepped, recomposed = run_start(RunConfig(**FAST))
    # each measurement on a fresh state: a field caches its values when they are read
    assert peak(lambda st: _Series(scfg, filt).record(st), step(stepped, scfg)) <= 13.0
    assert peak(lambda st, rc: full_residual(st, rc, scfg), *recomposed()) <= 10
    # the right-hand sides come before the heat rates: after them, the rate peaked at 16.1
    assert peak(lambda st, rc: full_residual(st, rc, scfg, include_perturbation_rate=True), *recomposed()) <= 15
    assert peak(lambda st, rc: besov_minus1_infty(rc[1], filt, low_cut=2), *recomposed()) <= 5
    assert peak(lambda st, rc: gronwall_integrand(st, filt), *recomposed()) <= 8.5
    assert peak(lambda st: step(st, scfg), step(stepped, scfg)) <= 13.25
    filt, _, _, recomposed = run_start(RunConfig(**{**FAST, "n": 128, "period": 32.0}))
    assert peak(lambda st, rc: besov_minus1_infty(rc[1], filt, low_cut=2), *recomposed()) <= 3.5


def test_step_after_a_snapshot_holds_what_any_step_holds():
    """The tracemalloc peak of a step, counted from before the run's first state, in
    complex lattices: the step after a recorded snapshot peaks with the step before it.
    Were the snapshot's recomposed rho and u and e^{h2} cached on the state the step
    reads, it would peak about 5 lattices higher."""
    config = RunConfig(**FAST)
    grid = make_grid(2, config.n, config.period)
    filt = default_filter(grid)
    scfg = config.solver_config()
    peaks = []
    tracemalloc.start()
    try:
        series = _Series(scfg, filt, config.l0)
        state = _initial_state(config, grid, filt)
        # the first snapshot and step build the per-grid operators that later ones reuse
        series.record(state)
        state = step(state, scfg)
        for snapshot in (False, True):
            if snapshot:
                series.record(state)
            tracemalloc.reset_peak()
            state = step(state, scfg)
            peaks.append(tracemalloc.get_traced_memory()[1] / (16 * config.n**2))
    finally:
        tracemalloc.stop()
    before, after = peaks
    assert after <= before + 0.5, peaks


def test_each_state_evaluates_e_h2_once(monkeypatch):
    """e^{h2} is evaluated once per state of a run, by ``initial_state`` and by each step,
    for the density floor, and a snapshot reads the state's.  A ``heat_only`` step moves
    no h2 and hands on the e^{h2} it read, so its run evaluates it once."""
    calls = []

    def evaluate(q1, h2):
        calls.append(None)
        return exp_h2(q1, h2)

    exp_h2 = solver._exp_h2
    monkeypatch.setattr(solver, "_exp_h2", evaluate)
    for mode, evaluations in (("shallow_water", 21), ("heat_only", 1)):
        del calls[:]
        rows = run(RunConfig(**FAST, mode=mode)).rows
        assert len(rows) == 5
        assert len(calls) == evaluations, mode


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


# the JSON types each declared config field type takes (a bool is no int)
TAKES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,), "float | list[float]": (int, float, list)}
NUMBERS = st.one_of(st.integers(-100, 100), st.floats(-1e3, 1e3))
JSON_VALUES = st.one_of(NUMBERS, st.booleans(), st.text(max_size=3), st.lists(NUMBERS, max_size=3), st.none())


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(dataclasses.fields(RunConfig)), value=JSON_VALUES)
def test_a_config_value_of_an_undeclared_type_is_rejected_by_name(field, value):
    assert set(TAKES) == {f.type for f in dataclasses.fields(RunConfig)}
    assume(type(value) not in TAKES[field.type])
    with pytest.raises(ValueError, match=f"^{field.name} = "):
        RunConfig(**{**FAST, field.name: value})


def test_run_config_rejects_a_band_outside_the_levels():
    # FAST's 64^2 grid over period 64 resolves the levels [-4, 2]
    for band in ({"pert_l_lo": 9, "pert_l_hi": 10}, {"pert_h2_l_lo": -12, "pert_h2_l_hi": -10}):
        with pytest.raises(ValueError, match="holds none of the filter levels"):
            RunConfig(**FAST, **band)
    # a band the run does not draw from is not checked
    RunConfig(**FAST, eps=0.0, pert_l_lo=9, pert_l_hi=10)
    RunConfig(**FAST, pert_h2=0.0, pert_h2_l_lo=-12, pert_h2_l_hi=-10)


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
    # the expected exponents come from the run's dimension, in its summary
    (tmp_path / "summary.json").write_text(json.dumps({"config": {"dim": 2}}))
    rep = fit_series(path)
    assert rep["passed"]
    by_col = {f["column"]: f for f in rep["fits"]}
    assert by_col["linf_rho_minus_1"]["exponent"] == pytest.approx(1.0, abs=0.1)
    assert by_col["besov_u_m1_inf"]["exponent"] == pytest.approx(1.5, abs=0.1)


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
    # an unusable window: fewer than 4 samples, or t_min >= t_max -> exit 2
    assert cli_main(["fit", "--out", str(out), "--t-min", "30"]) == 2
    assert cli_main(["fit", "--out", str(out), "--t-min", "0", "--t-max", "0.5"]) == 2
    assert cli_main(["fit", "--out", str(out), "--t-min", "1", "--t-max", "1"]) == 2
    # no summary.json beside the series -> exit 2
    (out / "summary.json").unlink()
    assert cli_main(["fit", "--out", str(out), "--t-min", "0.2", "--t-max", "1.0"]) == 2


def test_cli_heat_only_run_exit_0(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--mode", "heat_only", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["status"] == "ok"


def test_cli_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"definitely_not_a_key": True}))
    assert cli_main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("t_end", 1.01),
        ("snapshot_dt", 0.07),
        ("mu", -1.0),
        ("n", 100),
        ("dim", 4),
        ("period", -1.0),
        ("amplitude", -1.0),
        ("pert_l_lo", 9),
        ("pert_h2_l_hi", -9),
        ("Fr", 0.0),
        ("Fr", -1.0),
        ("r_fric", -1.0),
        ("cfl_max", 0.0),
        ("width", -1.0),
        ("width", 0.0),
        ("eps", -1.0),
        ("l0", 50),
        ("l0", -50),
        ("mu", math.nan),
        ("mu", math.inf),
        ("a", math.nan),
        ("Fr", math.inf),
        ("r_fric", math.nan),
        ("t_end", math.inf),
        ("eps", math.nan),
        ("eps", math.inf),
        ("amplitude", math.nan),
        ("width", math.inf),
        ("pert_h2", math.nan),
        ("pert_h2", -1.0),
        ("seed", -1),
        ("seed", 1.5),
        ("cfl_max", math.inf),
        # a value of another type than the field's annotation
        ("l0", 0.5),
        ("mu", True),
        ("pert_solenoidal", "no"),
        ("dump_fields", "false"),
        ("pert_l_lo", 2.5),
        ("dim", True),
        ("dim", 2.0),
        ("mu", "0.1"),
        ("period", [64.0, "64"]),
        ("mode", None),
    ],
)
def test_cli_bad_config_value_exit_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, key: value}))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert key in capsys.readouterr().err


def test_cli_initial_density_below_the_floor_exit_2(tmp_path, capsys):
    """A config whose initial density dips below the floor is bad input: the floor shows
    only in the built state, which the run makes before it writes anything."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 32, "period": 16.0, "t_end": 0.1, "amplitude": -0.9999999, "width": 20.0}))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: density floor violated") and "1e-06" in err


def test_cli_run_out_on_a_file_exit_2(tmp_path, capsys, monkeypatch):
    """An ``--out`` that names a file is bad input: the run stops before its first step."""
    real_step, steps = harness.step, []
    monkeypatch.setattr(harness, "step", lambda state, scfg: steps.append(state.t) or real_step(state, scfg))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "n": 32, "period": 16.0}))
    out = tmp_path / "o"
    out.write_text("kept")
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert steps == []
    assert capsys.readouterr().err.startswith("config error: cannot make the output directory")
    assert out.read_text() == "kept"


def test_cli_verify_out_in_a_missing_directory_exit_2(tmp_path, capsys, monkeypatch):
    """A report path in a missing directory is bad input: no criterion runs."""
    ran = []
    criteria = [dataclasses.replace(c, evaluate=lambda n=c.number: ran.append(n) or ([], "")) for c in checks.REGISTRY]
    monkeypatch.setattr(checks, "REGISTRY", criteria)
    assert cli_main(["verify", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert ran == []
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "missing").exists()


def test_cli_density_floor_after_the_first_step_exit_3(tmp_path, capsys, monkeypatch):
    """A density below the floor in a later state is a runtime failure: the run keeps the
    rows computed before it and writes a summary with status ``blowup``."""
    heat_evolve, steps = solver.heat_evolve, []

    # the 3rd step's q1 is -1 everywhere, so the density 1 + q1 of the state it makes is 0
    def dip(q1, mu, t):
        steps.append(t)
        q = heat_evolve(q1, mu, t)
        return SpectralField.from_values(q.grid, q.values * 0.0 - 1.0) if len(steps) == 3 else q

    monkeypatch.setattr(solver, "heat_evolve", dip)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "n": 32, "period": 16.0, "t_end": 0.5, "snapshot_dt": 0.1}))
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("runtime failure: density floor violated: min(rho) = 0 < 1e-06")
    with open(out / "series.csv") as fh:
        assert [float(row["t"]) for row in csv.DictReader(fh)] == pytest.approx([0.0, 0.1])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "blowup"
    assert (summary["t_fail"], summary["t_final"]) == pytest.approx((0.15, 0.1))


def test_criterion_7_on_a_run_with_a_period_per_axis():
    result = run(RunConfig(**{**FAST, "n": 32, "period": [16.0, 16.0]}), out_dir=None)
    records, _ = checks.maximum_principle(result)
    assert records and all(r["passed"] for r in records)


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


def test_cli_verify_exit_code(tmp_path, monkeypatch):
    assert set(checks.SUITES) == {"lp", "besov", "paraproduct", "quasi", "solver", "decay"}
    out = tmp_path / "report.json"
    assert cli_main(["verify", "--suite", "lp", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"]
    # one failing criterion fails its suite: exit 1
    entry = next(c for c in checks.REGISTRY if c.number == 12)
    failing = dataclasses.replace(entry, evaluate=lambda: ([checks.check("forced", 1.0, "<=", 0.0)], ""))
    monkeypatch.setattr(checks, "REGISTRY", [failing if c is entry else c for c in checks.REGISTRY])
    assert cli_main(["verify", "--suite", "lp", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert [r["name"] for r in rep["suites"]["lp"] if not r["passed"]] == ["forced"]
