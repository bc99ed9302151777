"""Write the golden series of the regression runs to ``tests/data/golden_series.json``.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/golden_series.py

Each run is integrated once as configured and once with the amplitude moved
up by one ulp (its twin).  The file keeps every series column of both at
full precision (JSON floats round-trip exactly).  The gap between a run and
its twin is the round-off spread of the residual columns, which sit at the
truncation floor; ``tests/test_golden.py`` compares a fresh run against the
stored one.

The runs cover every dimension and mode: the acceptance physics on 64^2 and
128^2 to t = 4 with a snapshot every 0.25, a friction run, a 1-D and a 3-D
run, and a 256^2 and a 64^3 run, whose transforms reach ``grid._workers``'
threshold and run on two threads.

A run already in the file (the same config) is kept as stored, and only the
missing ones are computed and appended.  A change that alters a column's
meaning on purpose deletes the file and regenerates it.
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
    RunConfig(
        dim=2, n=64, period=16.0, mu=0.5, a=0.0, Fr=1.0, r_fric=2.0, mode="friction",
        dt=0.01, t_end=0.5, seed=3, dump_fields=False,
    ),
    RunConfig(dim=1, n=128, period=32.0, t_end=2.0, seed=1, dump_fields=False),
    RunConfig(dim=3, n=32, period=16.0, t_end=1.0, seed=2, dump_fields=False),
    RunConfig(dim=2, n=256, period=64.0, t_end=0.5, snapshot_dt=0.25, seed=0, dump_fields=False),
    RunConfig(dim=3, n=64, period=16.0, t_end=0.1, snapshot_dt=0.05, seed=2, dump_fields=False),
)


def columns(config: RunConfig) -> dict[str, list[float]]:
    rows = run(config).rows
    return {k: [float(r[k]) for r in rows] for k in SERIES_COLUMNS}


def main() -> None:
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    for config in RUNS:
        if any(stored["config"] == dataclasses.asdict(config) for stored in runs):
            continue
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
