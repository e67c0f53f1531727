"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark's host is a few cores of a shared machine, whose speed
swings by a quarter or more over minutes while the package's work stays
the same. The loop times this kernel between units of work, so both see
the same spells; dividing a latency by the kernel's median time in the
same run cancels most of the swing. The kernel uses only numpy, scipy
and Python, so no change to the package changes it. It mixes what the
workloads do: small SVDs, small array arithmetic, Python calls, a
feature distance matrix with a row-wise argmin, and a CSV round trip.
"""

from __future__ import annotations

import io
import statistics
import time

import numpy as np
from scipy.spatial.distance import cdist

# The kernel's typical time on the machine the benchmark was written on
# (2 vCPUs of a shared host, 1 BLAS thread). Host-adjusted figures are
# given in seconds of a host where the kernel takes this long.
REF_S = 0.05
SHARE = 0.1  # kernel time per unit of work, as a share of the unit's time

_rng = np.random.default_rng(20250715)
_M = _rng.standard_normal((12, 9))
_X = _rng.standard_normal((3, 1000))
_F1 = _rng.standard_normal((700, 32))
_F2 = _rng.standard_normal((700, 32))
_ROWS = _rng.standard_normal((1500, 3))


def _step(acc: float, k: int) -> float:
    return acc + k * 0.5


def kernel() -> float:
    acc = 0.0
    for _ in range(560):
        _, s, _ = np.linalg.svd(_M, full_matrices=False)
        y = _X * s[0] + 1.0
        acc += float((y[:2] / y[2]).sum())
        for k in range(120):
            acc = _step(acc, k)
    acc += float(cdist(_F1, _F2).argmin(axis=1).sum())
    text = io.StringIO()
    np.savetxt(text, _ROWS, fmt="%.17g", delimiter=",")
    acc += float(np.loadtxt(io.StringIO(text.getvalue()), delimiter=",").sum())
    return acc


class HostSpeed:
    """Times the kernel between units of work and keeps every sample."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, unit_s: float) -> None:
        """Run the kernel for about SHARE of a unit that took `unit_s`."""
        for _ in range(max(1, round(SHARE * unit_s / REF_S))):
            t = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t)

    def factor(self) -> float:
        """REF_S over the kernel's median time: above 1 on a fast spell."""
        return REF_S / statistics.median(self.samples)
