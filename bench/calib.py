"""A fixed reference kernel that measures how fast the host runs right now.

The host this benchmark was tuned on is a few cores of a shared machine whose
speed drifts by up to 75% over minutes (other tenants' load), which no window
of a few tens of seconds can average out.  Each worker therefore times this
kernel right before and right after its timed call, and run.py reports times
scaled to a host where the kernel takes REFERENCE_S:

    normalised = measured * REFERENCE_S / kernel_s

The kernel uses no oqwalk code, so a change to the program never changes it;
it mixes the interpreter work (building and formatting Python objects) and the
numpy vector work (elementwise transcendental functions and reductions over a
few MB) that the workloads are made of.  Raw times are kept in the result
record beside the normalised ones.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# The kernel's median time on a 2-core Intel Xeon VM (2.1 GHz) at its usual
# speed, so that normalised times read like that host's wall-clock seconds.
REFERENCE_S = 0.020
REPEATS = 3

_A = np.linspace(0.05, 1.0, 250_000)


def kernel() -> float:
    t0 = perf_counter()
    rows = [[i, i * 0.37, repr(i / 7.0)] for i in range(6000)]
    json.dumps(rows)
    acc = 0.0
    for _ in range(6):
        acc += float((_A * np.log(_A)).sum())
        acc += float(np.maximum(_A[1:], _A[:-1]).sum())
    return perf_counter() - t0


def measure(repeats: int = REPEATS) -> list[float]:
    return [kernel() for _ in range(repeats)]


def host_factor(kernel_times: list[float]) -> float:
    """REFERENCE_S / median kernel time: below 1 on a slower-than-usual host."""
    return REFERENCE_S / statistics.median(kernel_times)
