"""A fixed reference workload that measures how fast the machine is right now.

On a shared 2-core VM the same trustsim run slows by 10-40% for tens of
seconds at a time while neighbours load the host.  No steal time shows in
the guest, and even the fastest 1% of 100 us samples slow with it, so no
choice of sample or quantile filters it out.  The benchmark therefore runs
this workload twice before every repetition and scales its reported times
by ``REFERENCE_SECONDS`` over the median of those passes: a figure then
reads as it would on a machine where one pass takes ``REFERENCE_SECONDS``.

The workload mixes the kinds of work a simulation step does, in roughly
equal parts: a pure-Python integer loop, small-object allocation with dict
inserts, elementwise numpy on a 64-vector, and a 64x128 by 128x64 matmul.
One pass is too short to pair with one repetition (single passes range over
a factor of two), so only the median over a run is used.  The mix must stay
unchanged while results are compared; it does not touch trustsim.
"""

from __future__ import annotations

import time

import numpy as np

# the mix takes about this long on an uncontended 2.1 GHz Xeon core
REFERENCE_SECONDS = 0.018


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _integer_loop() -> int:
    total = 0
    for i in range(60_000):
        total += i * i
    return total


def _object_churn() -> int:
    table = {}
    for i in range(7_000):
        item = _Item(str(i), i)
        table[item.key] = item
    return sum(item.value for item in table.values())


def _small_numpy() -> float:
    a = np.arange(64.0)
    for _ in range(1_800):
        a = np.sqrt(a * a + 1.0)
    return float(a[0])


def _small_matmul() -> float:
    x = np.full((64, 128), 0.5)
    w = np.full((128, 64), 0.25)
    y = x
    for _ in range(180):
        y = x @ w
    return float(y[0, 0])


def measure() -> float:
    """Wall seconds for one pass of the reference mix."""
    t0 = time.perf_counter()
    _integer_loop()
    _object_churn()
    _small_numpy()
    _small_matmul()
    return time.perf_counter() - t0
