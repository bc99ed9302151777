#!/usr/bin/env python3
"""Reproduce the long decay experiment and fit its exponents.

Runs the 512^2, t = 20 configuration (Gaussian density bump, eps = 1e-3
perturbation), writes the artifacts and the decay fit (fit.json), and prints
the acceptance gate's lines for the criteria that read a run (5, 7, 8, 9).
Exits 1 if any of them fails. Takes a few minutes.

Usage: python3 scripts/run_decay_experiment.py [out_dir] [--n 256]
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from swlp.checks import REGISTRY  # noqa: E402
from swlp.harness import RunConfig, fit_series, run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="out/decay")
    parser.add_argument("--n", type=int, default=512)
    args = parser.parse_args()

    warnings.filterwarnings("ignore", message="log-density truncation")
    config = RunConfig(n=args.n)
    result = run(config, out_dir=args.out)

    fits = fit_series(Path(args.out) / "series.csv")
    (Path(args.out) / "fit.json").write_text(json.dumps(fits, indent=2))

    passed = True
    for criterion in (c for c in REGISTRY if c.needs_run):
        records, detail = criterion.evaluate(result)
        print(criterion.line(records, detail))
        passed = passed and all(r["passed"] for r in records)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
