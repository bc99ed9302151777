"""Write the golden series of the 2-D regression runs to ``tests/data/golden_series.json``.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/golden_series.py

Each run integrates the acceptance physics on a 2-D grid to t = 4 with a
snapshot every 0.25 and seed 0, once as configured and once with the
amplitude moved up by one ulp (its twin).  The file keeps every series
column of both at full precision (JSON floats round-trip exactly).  The gap
between a run and its twin is the round-off spread of the residual columns,
which sit at the truncation floor; ``tests/test_golden.py`` compares a fresh
run against the stored one.  A change that alters a column's meaning on
purpose regenerates the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from swlp.harness import SERIES_COLUMNS, RunConfig, run

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_series.json"
RUNS = (
    RunConfig(dim=2, n=64, period=16.0, t_end=4.0, snapshot_dt=0.25, seed=0, dump_fields=False),
    RunConfig(dim=2, n=128, period=32.0, t_end=4.0, snapshot_dt=0.25, seed=0, dump_fields=False),
)


def columns(config: RunConfig) -> dict[str, list[float]]:
    rows = run(config).rows
    return {k: [float(r[k]) for r in rows] for k in SERIES_COLUMNS}


def main() -> None:
    runs = []
    for config in RUNS:
        twin = dataclasses.replace(config, amplitude=math.nextafter(config.amplitude, 1.0))
        runs.append({
            "config": dataclasses.asdict(config),
            "series": columns(config),
            "twin_amplitude": twin.amplitude,
            "twin_series": columns(twin),
        })
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
