"""Time the hypervisor took from this machine's vCPUs.

On a virtual machine that shares its host, a run's wall time includes
stretches in which the host ran other guests (``steal`` in ``/proc/stat``).
The benchmark subtracts that time from its wall-clock figures, so that they
follow the program rather than the host's load.
"""

from __future__ import annotations

import os


def steal_seconds() -> float:
    """Steal time of all vCPUs since boot, in seconds (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0
