"""Benchmark of the swlp solver, its diagnostics and the Littlewood-Paley toolkit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {step512,decay128,lp_toolkit} \
        --seed N --seconds S --trace {0,1}

The run repeats whole rounds of the workload's operations until S seconds
of timed work have passed (at least one round), checks every operation's
outputs against references made outside the package, and prints the
metrics by name and unit.  Its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of fresh set-ups in child processes), ``wall_net_s`` (median per round) and
``peak_rss_mib``.  Both times are net of the vCPU time the hypervisor took
meanwhile (``clock.py``).  With ``--trace 1`` the run alternates untraced
and traced rounds and reports the per-layer metrics of the traced rounds.
Exit code 2 means the checkout holds no package source to measure.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from clock import steal_seconds
from source import OUT, MissingSource, check_imported, use_checkout_source

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_net_s": "s", "peak_rss_mib": "MiB"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "grid.fft_mib":
        return "MiB_computed"
    if name.endswith(".mib"):
        return "MiB"
    if name == "harness.diag_per_step":
        return "ratio"
    if name.endswith((".calls", ".tail_warnings")):
        return "count"
    return "s"


def setup_seconds(workload: str, size: str) -> float:
    """Median over fresh interpreters of import + grid, filter and initial state, net of steal."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, size],
            capture_output=True, text=True, timeout=170, check=True,
        )
        elapsed, stolen = map(float, done.stdout.split()[-2:])
        times.append(elapsed - stolen)
    return statistics.median(times)


def measure(wl, seconds: float, tracer):
    """Run rounds until ``seconds`` of timed work; with a tracer, odd rounds are traced."""
    walls, cpus, steals, traced_walls = [], [], [], []
    outcomes = []
    elapsed = 0.0
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        inputs = wl.prepare(r)
        fn = wl.execute
        if traced:
            tracer.install()
            fn = tracer.root(fn)
        s0, c0, t0 = steal_seconds(), time.process_time(), time.perf_counter()
        try:
            outputs = fn(inputs)
        finally:
            t1, c1, s1 = time.perf_counter(), time.process_time(), steal_seconds()
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(t1 - t0)
        else:
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            steals.append(s1 - s0)
        elapsed += t1 - t0
        outcomes += wl.check(inputs, outputs)
        r += 1
        if elapsed >= seconds and (tracer is None or traced_walls):
            print("untraced rounds, wall/cpu/host-taken s: "
                  + " ".join(f"{w:.3f}/{c:.3f}/{st:.2f}" for w, c, st in zip(walls, cpus, steals)))
            return walls, cpus, steals, traced_walls, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("step512", "decay128", "lp_toolkit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny grids, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        use_checkout_source()
        if not args.trace:
            setup_s = setup_seconds(args.workload, args.size)
        import tracer as tracing
        import workloads

        check_imported()
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    warnings.filterwarnings("ignore", message="log-density truncation")
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.size)
    wl.setup()  # untimed here: fills the FFT plan cache before the first round
    tracer = tracing.Tracer() if args.trace else None
    walls, cpus, steals, traced_walls, outcomes = measure(wl, args.seconds, tracer)

    failed = 0
    correct = True
    seen: dict[str, list] = {}
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            failed += 1
            print(f"operation failed: {type(outcome).__name__}: {outcome}")
            continue
        failed += not all(c.passed for c in outcome)
        correct &= all(c.passed for c in outcome)
        for c in outcome:
            seen.setdefault(c.name, []).append(c)
    for name, found in seen.items():
        lo, hi = min(c.value for c in found), max(c.value for c in found)
        bad = sum(not c.passed for c in found)
        print(f"check {name:24s} {lo:.4g} .. {hi:.4g}  bound {found[0].bound:g}  failed {bad}/{len(found)}")

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_net_s": statistics.median(w - st for w, st in zip(walls, steals)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"rounds {len(walls)}; wall_net_s is a median per round; median wall time "
              f"{statistics.median(walls):.4f} s, median CPU time {statistics.median(cpus):.4f} s")
    else:
        rounds = len(traced_walls)
        values = tracer.summary(rounds)
        values["trace.wall_s"] = statistics.fmean(traced_walls)
        values["trace.untraced_wall_s"] = statistics.fmean(walls)
        values["trace.untraced_cpu_s"] = statistics.fmean(cpus)
        values["trace.untraced_host_taken_s"] = statistics.fmean(steals)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"traced rounds {rounds}, untraced rounds {len(walls)}; per-layer figures are "
              f"means per traced round; spans written to {trace_path.relative_to(OUT.parent)}")
    metrics = {k: {"value": float(v), "unit": unit_of(k)} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
