"""Host speed, sampled between requests, and times corrected for it.

On a small shared VM (2 vCPUs, x86-64) the host's speed drifts by 1.4x and
more, for seconds to minutes at a time, as its neighbours load the machine.  A
raw wall time then measures the neighbours as much as the program.  So the
benchmark times a fixed calibration kernel between requests and reports every
time scaled to a host on which that kernel takes ``NOMINAL_S``:

    corrected = measured * NOMINAL_S / (kernel time near the measurement)

where the kernel time near a measurement is the median of the ``NEAREST``
kernel samples closest to it in time.  The kernel mixes the three kinds of
work the program does (Python object code, ``np.unique`` row sorts and int64
matrix products) in about equal parts, so a host slowdown stretches it about
as much as it stretches a request.  It lives in the benchmark, so no change to
the program can change it.  On a steady host the correction is a constant
factor close to 1.  It is not exact: a slowdown does not stretch every kind of
work alike, so corrected times still spread by a few percent from run to run.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# kernel time on the 2-core x86-64 host of the first baseline, single thread
NOMINAL_S = 0.0125
# a kernel sample is taken when this much time has passed since the last one
INTERVAL_S = 0.25
NEAREST = 5

_rng = np.random.default_rng(20241008)
_ROWS = _rng.integers(0, 9, size=(3000, 5))
_MATRIX = (_rng.random((160, 160)) < 0.3).astype(np.int64)


def kernel() -> None:
    """A fixed amount of Python, sorting and integer matrix work."""
    counts: dict = {}
    for i in range(24000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    np.unique(_ROWS, axis=0)
    _MATRIX @ _MATRIX


def sample() -> tuple:
    """(start, duration) of one run of the kernel."""
    start = perf_counter()
    kernel()
    return start, perf_counter() - start


def scales(samples: list, times: list) -> list:
    """NOMINAL_S over the host's kernel time near each of ``times``.

    ``samples`` are (start, duration) pairs from ``sample``, in time order.
    """
    starts = [s for s, _ in samples]
    out = []
    for t in times:
        i = bisect.bisect(starts, t)
        lo = max(0, min(i - NEAREST // 2, len(samples) - NEAREST))
        near = [d for _, d in samples[lo:lo + NEAREST]]
        out.append(NOMINAL_S / statistics.median(near))
    return out


kernel()  # the first run pays numpy's lazy set-up; no sample should
