"""Timings corrected for the host's momentary CPU speed.

On a shared host the speed of a vCPU drifts by 20-40 % within seconds
while no steal time is recorded (measured on a 2-vCPU 2.1 GHz guest:
a fixed loop ran 272-410 times a second from one second to the next).
Such drift swamps the change a benchmark is meant to see, and medians
over one run do not remove it because it lasts longer than a run.

``timed`` runs a region while a probe (a fixed pure-Python loop of dict,
tuple and sort work like the solver's, then scattered memory reads) is
timed before it, after it and every PROBE_INTERVAL_S during it, from a
SIGALRM handler on the timed thread.  The probe's own time is taken
out, and the rest is scaled by the probe's mean speed,
REFERENCE_PROBE_S / (probe time), which weights the fast and slow
spells of the region by their length.  The result reads as seconds on
a host where the probe takes REFERENCE_PROBE_S; on the host above that
puts pentomino solves within a few percent of their fast-spell wall
time.  Both the raw and the corrected seconds are returned.

Signals are delivered to the main thread only, so ``timed`` must be
called from it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.02
REFERENCE_PROBE_S = 0.0018
_BUFFER = bytes(range(256)) * (4 << 12)   # 4 MiB, twice the host's L2


def _probe_work():
    """Dict, tuple and sort work, then scattered reads of a buffer that
    does not fit in L2, so that memory contention slows the probe as it
    slows the solver."""
    d = {}
    out = []
    for i in range(1500):
        key = (i * 7919) % 1009
        row = [key, i, key ^ i]
        d[key] = d.get(key, 0) + len(row)
        out.append(tuple(row))
        if len(out) > 64:
            out.sort()
            del out[:32]
    buf = _BUFFER
    mask = len(buf) - 1
    j = len(d)
    for _ in range(3000):
        j = ((j * 1103515245 + 12345) & mask) ^ buf[j & mask]
    return j


class _Probe:
    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def __call__(self, *_signal_args):
        t0 = perf_counter()
        _probe_work()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt


def timed(fn):
    """Run fn(); return (result, raw seconds, corrected seconds)."""
    probe = _Probe()
    probe()
    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        spent0 = probe.spent
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0 - (probe.spent - spent0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    probe()
    speeds = [REFERENCE_PROBE_S / t for t in probe.samples]
    return result, raw, raw * statistics.fmean(speeds)
