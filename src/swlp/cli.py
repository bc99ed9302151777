"""Command-line entry points: run, verify, fit.

Exit codes: 0 success / all checks passed, 1 check failures, 2 bad
configuration or arguments, 3 runtime failure (CFL violation or blowup).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checks import SUITES, verify
from .harness import FIT_WINDOW, ConfigError, fit_series, load_config, run
from .solver import BlowupError, CflError


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--mode", type=str, default=None, choices=["shallow_water", "friction", "heat_only"])
    p.add_argument("--grid", type=int, default=None, dest="n", help="points per axis")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--fr", type=float, default=None, dest="Fr")
    p.add_argument("--rfric", type=float, default=None, dest="r_fric")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default="out", help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="swlp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured run")
    _add_run_flags(p_run)

    p_verify = sub.add_parser("verify", help="run a suite's acceptance criteria that need no run")
    p_verify.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p_verify.add_argument("--out", type=str, default=None, help="write report JSON here")

    p_fit = sub.add_parser("fit", help="fit decay exponents from a run's series.csv")
    p_fit.add_argument("--out", type=str, required=True, help="run output directory")
    p_fit.add_argument("--t-min", type=float, default=FIT_WINDOW[0], dest="t_min")
    p_fit.add_argument("--t-max", type=float, default=FIT_WINDOW[1], dest="t_max")

    args = parser.parse_args(argv)

    if args.command == "run":
        overrides = {
            k: getattr(args, k)
            for k in ("mode", "n", "mu", "a", "Fr", "r_fric", "dt", "t_end", "eps", "seed")
        }
        try:
            config = load_config(args.config, overrides)
        except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            result = run(config, out_dir=args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (CflError, BlowupError) as exc:
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 3
        last = result.rows[-1]
        print(f"finished t={last['t']:g}  mass_drift={last['mass_drift']:.3e}  "
              f"ft_norm={last['ft_norm']:.6g}  artifacts in {result.out_dir}")
        return 0

    if args.command == "verify":
        if args.out:
            try:
                open(args.out, "a").close()  # a report path that cannot be written fails before any suite runs
            except OSError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
        report = verify(args.suite)
        text = json.dumps(report, indent=2)
        if args.out:
            Path(args.out).write_text(text)
        print(text)
        return 0 if report["passed"] else 1

    if args.command == "fit":
        series = Path(args.out) / "series.csv"
        if not series.exists():
            print(f"config error: no series.csv under {args.out}", file=sys.stderr)
            return 2
        try:
            # an empty or too-short window, or no readable summary.json beside the series
            report = fit_series(series, t_min=args.t_min, t_max=args.t_max)
        except (ValueError, KeyError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        (Path(args.out) / "fit.json").write_text(json.dumps(report, indent=2))
        print(json.dumps(report, indent=2))
        return 0 if report["passed"] else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
