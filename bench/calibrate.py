"""Host-speed calibration: a fixed unit of work, timed between requests.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over seconds to minutes (CPU time drifts with wall time, so it is
not steal time).  A request's latency alone then says as much about the
host as about the program.  So before each request, and before the
set-ups of each pass, the benchmark runs a fixed number of calibration
units (Workload.CAL_UNITS), fixed work written here and independent of
swigident.  It reports times in reference seconds: a wall time divided by
the mean unit time of the calibrations just before and just after it,
times the time a unit takes on the reference machine.

A unit mixes what the workloads do: small-object churn (tuples, frozensets,
dicts, sorting) like the search in rules/graphs/expr, and numpy products and
sums over a table of about 1 MB like the oracle.  The garbage collector is
off during a unit, so the program's heap does not change the unit's cost.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

# Seconds one unit takes on the reference machine (2 vCPUs of an Intel Xeon
# under KVM, Python 3.11.7, numpy 2.4.6), so that a reference second is
# about one second there.
UNIT_REF_S = 0.0044

_RNG = random.Random(20240517)
_DAGS = [
    {i: tuple(j for j in range(i + 1, 14) if _RNG.random() < 0.3) for i in range(14)}
    for _ in range(48)
]
_NAMES = tuple(f"V{i}" for i in range(14))
_A = np.random.default_rng(1).random((16, 16, 16, 32))
_B = np.random.default_rng(2).random((16, 16, 32))


def _unit() -> int:
    total = 0
    for edges in _DAGS:
        for src in edges:
            seen = {src}
            stack = [src]
            while stack:
                for u in edges[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            key = frozenset((_NAMES[i], i & 1) for i in seen)
            total += len(sorted(key))
    for k in range(4):
        total += int((_A * _B[:, None] * (k + 1)).sum(axis=(0, 1)).argmax())
    return total


def measure(units: int) -> float:
    """Run one untimed unit to warm the caches, then units timed ones;
    returns the mean seconds per timed unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _unit()
        t0 = time.perf_counter()
        for _ in range(units):
            _unit()
        return (time.perf_counter() - t0) / units
    finally:
        if enabled:
            gc.enable()
