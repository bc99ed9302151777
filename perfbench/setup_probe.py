"""Time one fresh set-up: import ``swlp`` and build a workload's grid, filter and state.

Usage: python3 perfbench/setup_probe.py <workload> <size>
Prints the seconds taken and the steal time of the vCPUs meanwhile, on one line.
"""

import sys
import time
import warnings


def main() -> int:
    from clock import steal_seconds

    stolen = steal_seconds()
    start = time.perf_counter()
    from source import use_checkout_source

    use_checkout_source()
    import workloads

    warnings.filterwarnings("ignore", message="log-density truncation")
    workloads.make(sys.argv[1], 0, sys.argv[2]).setup()
    print(time.perf_counter() - start, steal_seconds() - stolen)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
