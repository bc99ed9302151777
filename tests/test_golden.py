"""Golden-output gate: the regression runs reproduce their stored series.

``tests/data/golden_series.json`` (written by ``scripts/golden_series.py``)
holds every series column of seven runs, and of each run's twin with the
amplitude one ulp higher: the acceptance physics on 64^2 over period 16 and
128^2 over period 32 to t = 4 with a snapshot every 0.25 and seed 0, a
friction run, a 1-D and a 3-D run, and a 256^2 and a 64^3 run whose
transforms run on two threads.

* Every column must match to ``COLUMN_TOL`` of the column's largest value.
* ``res_mass`` and ``res_mom`` sit at the truncation floor, where round-off
  alone moves them; they must match within ``SPREAD_MULTIPLE`` times the
  stored run-to-twin spread, the gap that one ulp of input makes.

A change that alters a column's meaning on purpose regenerates the file.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from swlp.harness import SERIES_COLUMNS, RunConfig, run

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "golden_series.json").read_text())
COLUMN_TOL = 1e-12
SPREAD_COLUMNS = ("res_mass", "res_mom")
SPREAD_MULTIPLE = 10.0


def run_id(config: dict) -> str:
    """``64x64`` for a 64^2 run, with the mode appended when it is not shallow water."""
    shape = "x".join([str(config["n"])] * config["dim"])
    return shape if config["mode"] == "shallow_water" else f"{shape}-{config['mode']}"


RUN_IDS = [run_id(r["config"]) for r in GOLDEN["runs"]]


def tolerances(stored: dict) -> dict[str, float]:
    """The allowed absolute deviation of each column."""
    tol = {}
    for col in SERIES_COLUMNS:
        ref = np.asarray(stored["series"][col])
        if col in SPREAD_COLUMNS:
            tol[col] = SPREAD_MULTIPLE * float(np.abs(ref - np.asarray(stored["twin_series"][col])).max())
        else:
            tol[col] = COLUMN_TOL * float(np.abs(ref).max())
    return tol


def mismatches(series: dict, stored: dict) -> list[str]:
    """The columns of ``series`` that leave their tolerance, with the deviation found."""
    out = []
    for col, tol in tolerances(stored).items():
        new, ref = np.asarray(series[col]), np.asarray(stored["series"][col])
        if new.shape != ref.shape:
            out.append(f"{col}: {new.size} rows, stored {ref.size}")
            continue
        dev = float(np.abs(new - ref).max())
        if not dev <= tol:
            out.append(f"{col}: deviation {dev:.3g} > {tol:.3g}")
    return out


@pytest.mark.parametrize("stored", GOLDEN["runs"], ids=RUN_IDS)
def test_run_reproduces_golden_series(stored):
    rows = run(RunConfig(**stored["config"])).rows
    series = {col: [r[col] for r in rows] for col in SERIES_COLUMNS}
    assert mismatches(series, stored) == []


@pytest.mark.parametrize("stored", GOLDEN["runs"], ids=RUN_IDS)
def test_golden_gate_catches_a_1e_11_move(stored):
    """Moving a column's largest stored value by 1e-11 relative fails that column."""
    assert mismatches(stored["series"], stored) == []
    for col in SERIES_COLUMNS:
        moved = {k: list(v) for k, v in stored["series"].items()}
        i = int(np.argmax(np.abs(moved[col])))
        moved[col][i] *= 1.0 + 1e-11
        assert [m.split(":")[0] for m in mismatches(moved, stored)] == [col]
