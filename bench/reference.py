"""Host-speed reference for the timed run.

The benchmark runs on a shared host whose CPU throughput drifts with its
neighbours' load, up to 1.9x over seconds to minutes. Whole-run wall times
of the same code then spread more than any useful bound. The timed run
therefore interleaves short fixed reference kernels with the trials and
reports every time at the speed of a reference host: a trial's wall time
divided by the host's slow-down, which is the mean over the kernels of
(measured kernel time / the kernel's time on the reference host).

The kernels run no choicelab code, so a change to the package never moves
the reference: small-set enumeration, sorting and small-array numpy calls,
and a numpy pass over an array larger than the CPU caches. A pure
interpreter kernel (dict and str work) was tried as well and dropped: it
swings about twice as far as any workload when the host's speed changes.
"""

from __future__ import annotations

import itertools
from time import perf_counter

import numpy as np

_SMALL = np.arange(12, dtype=np.int64)[::-1].copy()
_LARGE = np.linspace(0.0, 1.0, 1_000_000)


def _small_sets() -> int:
    total = 0
    for subset in itertools.combinations(range(9), 3):
        ordered = sorted(subset, reverse=True)
        total += len(frozenset(ordered)) + ordered[0]
    for _ in range(150):
        order = np.argsort(_SMALL, kind="stable")
        total += int(order[0]) + int(_SMALL[order].sum())
    return total


def _large_array() -> float:
    scaled = _LARGE * 3.0 + 1.0
    return float(np.sort(scaled[::7]).sum())


# name -> (kernel, repetitions per reading, seconds of one repetition on
# the reference host: a 2-core shared Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6, at the median of its drifting speed).
KERNELS = {
    "small_sets": (_small_sets, 4, 0.00097),
    "large_array": (_large_array, 4, 0.00368),
}


def slowdown(names) -> float:
    """How many times slower than the reference host this host runs the
    named kernels now: the mean over the kernels of their fastest
    repetition's time over its time on the reference host. The fastest
    repetition skips a cold first pass and a stray interruption."""
    ratios = []
    for name in names:
        kernel, reps, reference_s = KERNELS[name]
        fastest = float("inf")
        for _ in range(reps):
            start = perf_counter()
            kernel()
            fastest = min(fastest, perf_counter() - start)
        ratios.append(fastest / reference_s)
    return sum(ratios) / len(ratios)
