#!/usr/bin/env python3
"""Record the envelope of the estimate-diagnostic ratios over seeds.

Writes data/frozen_constants.json (per-ratio max, and min for the
two-sided characterization) plus a per-seed CSV report.  Rerun only when
an operator's normalization deliberately changes.
"""

import csv
import json
import math

from swlp.sweeps import RATIO_NAMES, _TWO_SIDED, frozen_path, sweep_ratios

N_SEEDS = 20


def main() -> None:
    rows = []
    for seed in range(N_SEEDS):
        ratios = sweep_ratios(seed)
        rows.append({"seed": seed, **ratios})
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4g}" for k, v in ratios.items()))

    frozen = {}
    for name in RATIO_NAMES:
        vals = [r[name] for r in rows if not math.isnan(r[name])]
        entry = {"max": max(vals), "n_seeds": len(vals)}
        if name in _TWO_SIDED:
            entry["min"] = min(vals)
        frozen[name] = entry

    out = frozen_path()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(frozen, indent=2))

    report = out.parent / "sweep_report.csv"
    with open(report, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["seed", *RATIO_NAMES])
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
    print(f"wrote {out} and {report}")


if __name__ == "__main__":
    main()
