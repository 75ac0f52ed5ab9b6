"""Host steal time, so op times can leave out time the VM was not running.

On a shared virtual machine the hypervisor takes vCPUs away in bursts of
many seconds; the guest kernel counts that time as steal.  The kernel
reports steal summed over all vCPUs, so while another vCPU is stolen too
it can exceed what the benchmark's own threads lost.  ``net_wall``
therefore charges each busy thread an equal share of it and never lets
the result fall below the CPU time per busy thread.
"""

from __future__ import annotations

import os

_HZ = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Steal time of all CPUs so far, in seconds; 0.0 where it is not reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) > 8 and fields[0] == "cpu":
        return int(fields[8]) / _HZ
    return 0.0


def net_wall(wall: float, cpu: float, steal: float, threads: int = 1) -> float:
    """Wall time less the steal per busy thread, at least the CPU time per thread."""
    return max(wall - steal / threads, cpu / threads)
