"""Host-speed reference: a fixed kernel that calls no ocmsim code.

On a shared host the speed of the whole machine drifts over minutes, so raw
timings of one commit differ by more than 20 % between back-to-back sets of
runs.  The benchmark times this kernel alongside each workload and scales its
timings to a host on which the kernel takes ``REFERENCE_S``.  A change to
ocmsim cannot move the kernel, so it cannot move the scale either.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time on a shared 2-core x86-64 host (Python 3.11, NumPy 2.4) in a
#: quiet spell
REFERENCE_S = 0.33


def kernel_s() -> float:
    """Seconds for one pass: sorts and searches, a small-array loop, dicts."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    keys = rng.integers(0, 1 << 32, 200_000)
    for _ in range(3):
        order = np.lexsort((keys & 0xFF, keys >> 8))
        np.searchsorted(np.sort(keys), keys[order])
    small = np.arange(6)
    for _ in range(6000):
        a, b = np.triu_indices(small.size, k=1)
        int((small[a] < small[b]).sum())
    counts: dict[str, int] = {}
    for i in range(60000):
        key = f"k{i % 997}"
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - t0
