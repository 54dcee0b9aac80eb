"""Host-speed calibration: a fixed pure-Python loop timed next to each measurement.

The benchmark runs on a few shared CPUs whose speed drifts: on a 2-vCPU cloud
VM the same loop took anywhere from 6 to 9 ms, in phases lasting from seconds
to minutes, in CPU time as well as wall time. Every timing drifts with it, so
whole runs differ by a fifth or more on unchanged code.

:func:`calibration_s` times a fixed loop; the benchmark runs it right after
each timed job (and before each set-up spawn), and :func:`at_nominal_speed`
scales the job's time by ``NOMINAL_S / calibration``: the time the job would
have taken on a host where the loop takes :data:`NOMINAL_S`. The loop is part
of the benchmark, not of the program, so a change to the program moves the
scaled times exactly as it moves the wall times, while the host's drift
cancels. On the VM above the quartile spread of ten runs of unchanged code fell
from about 20% of the median in wall time to about 5% scaled.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 20_000
# The loop's median time on the 2-vCPU VM the bounds were set on, so that
# scaled times read close to that VM's wall times.
NOMINAL_S = 1.6e-3


def calibration_s() -> float:
    """Wall time of one pass of the fixed calibration loop, in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def at_nominal_speed(seconds: float, calibration: float) -> float:
    """``seconds`` measured next to a loop of ``calibration`` seconds, scaled to
    a host on which the loop takes :data:`NOMINAL_S`."""
    return seconds * NOMINAL_S / calibration
