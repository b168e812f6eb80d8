"""The reference load that gauges how fast the core runs right now.

The benchmark's host is shared: its cores slow down, by up to half and for
minutes at a time, when their neighbours are busy.  Timing this fixed load
next to each measured call gives the core's speed at that moment, and
``scale`` turns the call's time into its time on a core that runs the load
in ``REFERENCE_S``.  A change to the program moves the call's time and not
the load's, so it moves the scaled time in full; a busier host moves both.
"""

from __future__ import annotations

import gc
import time

# The reference load's time on an undisturbed core of the machine the
# benchmark was tuned on (a 2.1 GHz Xeon vCPU, CPython 3.11).
REFERENCE_S = 75e-6


def reference_load() -> list:
    """A fixed slice of pure-Python work (dict stores, tuples, strings, a
    sort), the kind the program does."""
    d = {}
    for i in range(400):
        d[(i * 7) % 127] = (i, str(i))
    return sorted(d.items())


def reference_time(clock=time.perf_counter) -> float:
    """The faster of two timed runs of ``reference_load``, without the
    garbage collector, which the last call's leftovers could set off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = clock()
            reference_load()
            best = min(best, clock() - start)
        return best
    finally:
        gc.enable()


def scale(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference load took ``reference``,
    as seconds on a core that runs it in ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference
