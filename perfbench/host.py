"""Host speed, measured next to every timed stretch of a run.

On a shared machine the speed a process gets changes by up to 1.8x
over tens of seconds, also with its other CPU idle and no steal time
reported, and a whole 40 s run can fall into a slow or a fast stretch.
Every time metric of the benchmark is therefore reported in reference
seconds: wall seconds times REFERENCE_S / calibrate(), with calibrate()
measured just before the timed work.  That is the wall time the work
takes on this host when calibrate() takes REFERENCE_S; a change to
tandemax moves it, a change in host speed mostly does not.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About what calibrate() takes on a 2-CPU x86 test machine (Python 3.11, numpy 2.4).
REFERENCE_S = 0.004

_A = np.arange(256.0).reshape(16, 16) % 7.0
_T = [float(x % 5) for x in range(4000)]


def _mix() -> float:
    """A fixed mix of the kinds of work tandemax does, none of it tandemax
    code: 16 x 16 max-plus products in numpy, a scalar max/+ recursion in
    Python, and 17-digit float formatting."""
    start = perf_counter()
    x = _A
    for _ in range(100):
        x = (x[:, :, None] + _A[None, :, :]).max(axis=1) - 6.0
    d = [0.0] * 8
    for j in range(0, len(_T), 8):
        for i in range(8):
            d[i] = max(d[i - 1] if i else -1.0, d[i]) + _T[j + i]
    ",".join(format(v / 3.0, ".17g") for v in _T[:1000])
    return perf_counter() - start


def calibrate() -> float:
    """Median seconds of three passes of the fixed mix."""
    return statistics.median(_mix() for _ in range(3))


def scale() -> float:
    """Factor from wall seconds now to reference seconds."""
    return REFERENCE_S / calibrate()
