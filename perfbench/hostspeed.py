"""Host-speed calibration, so that timings read at one reference speed.

On a shared host the speed of a fixed task drifts by up to 2x, in phases
of seconds to minutes that can cover a whole run.  The drift is about the
same share for pure-Python and LAPACK work.  So the benchmark times a
fixed kernel (a pure-Python loop plus a small dense eigensolve, both
independent of the library) right before and after each timed piece of
work, and scales the work's time by ``REFERENCE_S`` over the kernel's
time around it: the result is the time the work takes on this host when
the kernel takes ``REFERENCE_S``, its time on a quiet 2.1 GHz Xeon vCPU.

A change to the library moves the work's time and not the kernel's, so it
shows in full; a change of host speed moves both and cancels.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.020
_MATRIX = []


def _kernel() -> None:
    import numpy as np

    acc = 0
    table = {}
    for i in range(60000):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 1023] = acc
    np.linalg.eigvals(_MATRIX[0])


def kernel_time(samples: int = 1) -> float:
    """Median time of the calibration kernel over ``samples`` calls."""
    if not _MATRIX:
        import numpy as np

        _MATRIX.append(np.random.default_rng(0).standard_normal((160, 160)))
        _kernel()  # warm up LAPACK before the first timed call
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
