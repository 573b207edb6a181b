"""Correction of pass and set-up times for co-tenant contention of the CPU.

On a shared host the CPU a pass runs on alternates, over spells of seconds,
between its own speed and a contended speed about 1.7x slower (another
tenant on the sibling hardware thread); the process is never off the CPU,
so CPU time does not show it.  A fixed probe kernel, run every
`INTERVAL_S` of wall time from a SIGALRM handler inside the pass, measures
the speed at that moment.  Each stretch of program time between two probes
is rescaled by REFERENCE_PROBE_S / (probe duration), averaged over the probes
at its ends, and the probes' own time is left out.  The result is the time
the same work takes on the CPU when it runs at the reference speed: on an
uncontended CPU it equals the wall time, and more work by the program still
shows one for one.

REFERENCE_PROBE_S is the probe's duration on an uncontended vCPU of the host
the baseline was recorded on.  It only sets the scale of the corrected
seconds; a comparison between two commits on one machine does not depend
on it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 88e-6
INTERVAL_S = 0.05
BURST = 9

_SMALL = np.random.default_rng(0).standard_normal(8)


def probe():
    """Duration of one fixed piece of interpreter work and small numpy calls (about 0.1 ms).

    The passes spend their time in the interpreter and in numpy calls on
    small arrays, so the probe is made of the same two kinds of work.
    """
    start = time.perf_counter()
    x = 0.0
    for i in range(500):
        x += i * 0.5
    for _ in range(40):
        np.cos(_SMALL * 0.5)
    return start, time.perf_counter() - start


def burst_factor():
    """Slowdown of the CPU right now: median of a burst of probes over the reference."""
    probe()  # untimed: the first call warms the numpy path
    return statistics.median(probe()[1] for _ in range(BURST)) / REFERENCE_PROBE_S


class Sampler:
    """Probes taken every INTERVAL_S of wall time while installed."""

    def __init__(self):
        self.samples = []  # (start, duration) per probe

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def install(self):
        probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start, end):
        """Program time in [start, end] at the reference speed, probes left out.

        A stretch between two probes takes the mean of their speeds; the
        stretches at the ends take the nearest probe's speed, from outside
        the interval when none falls inside it.
        """
        total, at, factor = 0.0, start, None
        for t0, duration in self.samples:
            here = REFERENCE_PROBE_S / duration
            if t0 + duration <= start:
                factor = here
                continue
            stop = min(t0, end)
            if stop > at:
                total += (stop - at) * (here if factor is None else 0.5 * (here + factor))
            factor, at = here, t0 + duration
            if at >= end:
                return total
        return total + max(end - at, 0.0) * (1.0 if factor is None else factor)
