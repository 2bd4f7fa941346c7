"""A fixed reference computation that measures how fast the machine runs
right now, so that timings can be reported at a nominal machine speed.

On a small shared host the speed of the same code moves between plateaus
up to 1.7x apart, each lasting from seconds to minutes.  A run of the
benchmark samples one or two of them, so raw timings of runs made a few
minutes apart differ by more than any useful bound.  The workload process
therefore interleaves the library calls with this yardstick, which is
benchmark-owned numpy and Python code that no change to the library can
speed up or slow down, and divides each latency by the yardstick's
slowness measured next to it.

The yardstick mixes the three kinds of work the workloads do: small
LAPACK calls, interpreted Python, and a mid-size dense least-squares
solve.  ``slowness()`` is the geometric mean, over the three kernels, of
their time now over their time in ``NOMINAL_S``; it reads about 1.0 on the
machine the baseline was measured on.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median kernel times, in seconds, on the 2-vCPU Intel Xeon sandbox the
#: baseline in README.md was measured on.
NOMINAL_S = {"svd": 1.0e-3, "python": 4.4e-4, "lstsq": 2.4e-3}

#: Repetitions of each kernel per measurement; their median is kept.
REPEATS = 5

_rng = np.random.default_rng(20241019)
_SMALL = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_TALL = _rng.standard_normal((120, 80)) + 1j * _rng.standard_normal((120, 80))
_RHS = _rng.standard_normal((120, 4)) + 0j


def _svd() -> None:
    for _ in range(40):
        np.linalg.svd(_SMALL)


def _python() -> None:
    s = 0
    for i in range(6000):
        s += i * i


def _lstsq() -> None:
    np.linalg.lstsq(_TALL, _RHS, rcond=None)


_KERNELS = {"svd": _svd, "python": _python, "lstsq": _lstsq}


def slowness() -> float:
    """Current time of the yardstick over its nominal time (1.0 = nominal,
    2.0 = the machine runs at half speed)."""
    log_sum = 0.0
    for name, kernel in _KERNELS.items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        log_sum += math.log(statistics.median(times) / NOMINAL_S[name])
    return math.exp(log_sum / len(_KERNELS))
