"""Host-speed calibration: a fixed kernel timed beside every sample.

The guests this benchmark runs on slow *everything* by 20-60% for tens
of seconds to minutes at a time (a neighbour on the same core or cache):
the wall time of one identical 208K session read 2.2-3.7 s within ten
minutes, and ten back-to-back 20 s runs spread by 20-30% whatever
statistic each reported.  The kernel below does a fixed amount of work in
the program's own mix - interpreter-bound Python, numpy streaming and
sorting over arrays that overflow L2, random gathers from an array that
overflows a fair share of L3 - and is timed immediately before and after
each measured section.  The section's wall time is scaled by
``REFERENCE_S / kernel time``: the wall the same work takes on a host on
which the kernel takes ``REFERENCE_S``.  The kernel lives here, outside
the program, so no change to ``src/`` moves it.
"""

from __future__ import annotations

import functools
import time

import numpy as np

__all__ = ["REFERENCE_S", "RESIDENT_MB", "kernel_seconds", "Calibrator"]

#: what one kernel pass takes on the quiet 2.1 GHz Xeon guest the
#: benchmark was written on; it only fixes the scale of calibrated seconds
REFERENCE_S = 0.09

_WORDS = 524_288        # 4 MiB of int64: three of these overflow L2
_TABLE = 8_388_608      # 64 MiB of int64: the gathers' source
_PICKS = 262_144

#: what the kernel's arrays add to the process's resident set
RESIDENT_MB = (3 * _WORDS + _TABLE + 2 * _PICKS) * 8 / 2 ** 20


@functools.lru_cache(maxsize=None)
def _arrays():
    """Built on the first pass, so after set-up has forked its pool."""
    # A multiplicative hash of 0..n-1: scrambled words, cheap to build.
    table = np.arange(_TABLE, dtype=np.uint64)
    table *= np.uint64(0x9E3779B97F4A7C15)
    table >>= np.uint64(2)
    table = table.view(np.int64)
    words = table[:_WORDS].copy()
    picks = np.random.default_rng(208).integers(0, _TABLE, size=_PICKS)
    return (table, words, picks, np.empty_like(words), np.empty_like(words),
            np.empty(_PICKS, dtype=np.int64))


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel (about ``REFERENCE_S``)."""
    table, words, picks, scratch, sums, gathered = _arrays()
    start = time.perf_counter()
    total = 0
    seen = {}
    for i in range(500_000):
        total += i * i % 7
        seen[i & 1023] = total
    for _ in range(8):
        np.right_shift(words, 3, out=scratch)
        np.bitwise_xor(words, scratch, out=scratch)
        np.cumsum(scratch, out=sums)
        np.take(table, picks, out=gathered)
        np.sort(scratch[:65_536])
    return time.perf_counter() - start


class Calibrator:
    """Kernel passes between measured sections; neighbours share a pass."""

    def __init__(self) -> None:
        self._before = kernel_seconds()

    def speed(self) -> float:
        """Factor that turns the wall of the section that just ended into
        calibrated seconds.

        Call right after the section: the kernel pass made here is also
        the one before the next section.
        """
        after = kernel_seconds()
        factor = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return factor
