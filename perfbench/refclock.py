"""A clock that counts program time at a fixed reference speed.

On a shared host the same code can run at two speeds: a vCPU switches
between a fast and a slow state (up to 2x slower) for periods from a few
milliseconds to minutes, and the user CPU time moves with the wall time. A
run-level median then reads whichever state held longer in that run, and
two runs of the same code can differ by more than any useful bound.

While ``RefClock.call`` runs a function, an interval timer interrupts it
every ``PERIOD_S`` and runs ``probe``, a fixed mix of a pure-Python loop and
small numpy calls, the two kinds of work the program does. Each stretch of
program time between two probes is scaled by ``REF_PROBE_NS`` over the mean
of the two probes' times, raised to ``exponent``, so it reads about what it
would have taken had the probe run at ``REF_PROBE_NS``. Probe time itself is
not counted. A program change moves the scaled time as it moves the wall
time; a change of host state moves both the stretch and its probes, and
largely cancels out.

The exponent says how much more the slow state slows the timed work than
the probe: 1 for as much. Each workload sets its own (``ref_exponent`` in
workloads.py), the value at which its ops, all doing the same work, spread
least within runs that switch state.

``REF_PROBE_NS`` is about the probe's time in the fast state of the
2-vCPU Xeon VM the bounds in BENCHMARK.json were measured on, so scaled
times there read close to fast-state wall times.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
REF_PROBE_NS = 135_000

_SMALL = np.arange(64.0)


def probe() -> int:
    """ns taken by a fixed piece of work."""
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(1500):
        s += i * i
    x = _SMALL
    for _ in range(40):
        x = np.maximum(x * 0.5, _SMALL)
    return time.perf_counter_ns() - t0


class RefClock:
    def __init__(self, exponent: float = 1.0) -> None:
        self.exponent = exponent
        self._marks: list[tuple[int, int, int]] = []  # (start, end, probe ns)
        self.probe_ns: list[int] = []  # every probe taken, for the host-speed note

    def _interrupt(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        k = probe()
        self._marks.append((t0, time.perf_counter_ns(), k))

    def call(self, fn, *args):
        """(fn's result, None, wall ns, reference ns), or (None, error, 0, 0) if it raised.

        Wall ns is the program's own time, probes left out.
        """
        before = probe()
        self._marks = []
        old = signal.signal(signal.SIGALRM, self._interrupt)
        t0 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            out = fn(*args)
        except Exception as e:  # a raising op counts as failed; the loop goes on
            return None, f"{type(e).__name__}: {e}", 0, 0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter_ns()
            signal.signal(signal.SIGALRM, old)
        marks = self._marks + [(t1, t1, probe())]
        wall, ref, prev_end, prev_k = 0, 0.0, t0, before
        for start, end, k in marks:
            wall += start - prev_end
            ref += (start - prev_end) * (2 * REF_PROBE_NS / (prev_k + k)) ** self.exponent
            prev_end, prev_k = end, k
        self.probe_ns += [before] + [k for _, _, k in marks]
        return out, None, wall, ref
