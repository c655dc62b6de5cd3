"""A fixed reference kernel that measures the machine's current speed.

On a shared machine the same code runs up to half slower from one minute to
the next, and slower still an hour later, as other tenants come and go.  No
run is long enough to average that out.  So a run times a fixed kernel
between its ops, and the time metrics are reported in *reference time*: as
on a machine where one kernel unit takes ``NOMINAL_S``.  A metric in
reference time changes when holodet changes, not when the machine does.

The kernel mixes the kinds of work holodet does: a pure-Python complex loop,
numpy arithmetic on small arrays (quadrature-sized) and on large ones, and a
least-squares solve.  It uses only the standard library and numpy, and
nothing of holodet, so no change to holodet can move it.
"""

from __future__ import annotations

import bisect
import time
from array import array

import numpy as np

#: Reference time of one kernel unit: the scale of every reported time.
NOMINAL_S = 0.01
#: Kernel time kept at this share of the measured op time.
SHARE = 0.1
#: Units that set the scale of one op's latency.
LOCAL_UNITS = 8

_SMALL = np.linspace(0.1, 1.0, 32) + 0.4j
_WEIGHTS = np.linspace(0.01, 0.03, 32)
_LARGE = np.linspace(0.1, 1.0, 4096) + 0.3j
_MATRIX = np.random.default_rng(0).standard_normal((240, 120))


def _python_loop() -> complex:
    s = 0j
    for k in range(5000):
        z = complex(k * 1e-4, 1.0)
        s += (z * z + 1) / (z + 2j)
    return s


def _small_arrays() -> complex:
    s = 0j
    for k in range(300):
        y = _SMALL * (1 + k * 1e-6)
        s += np.dot(_WEIGHTS, np.exp(-1j * y) / (y - 0.3j) ** 2)
    return s


def _large_arrays() -> complex:
    s = 0j
    for _ in range(4):
        s += np.sum(np.log(1 - (_LARGE - 0.5j) ** -3 * 1e-3))
    return s


def _least_squares() -> float:
    return float(np.linalg.lstsq(_MATRIX, _MATRIX[:, 0], rcond=None)[0][0])


def kernel() -> None:
    """One unit of reference work, about NOMINAL_S on an unloaded machine."""
    _python_loop()
    _small_arrays()
    _large_arrays()
    _least_squares()


class Reference:
    """Kernel units timed over a run; ``scale`` converts wall time to reference time."""

    def __init__(self):
        kernel()  # first calls into numpy and LAPACK are slower: untimed
        self.unit_s = array("d")
        #: ops done when each unit ran
        self.unit_at = array("q")
        self.total_s = 0.0

    def unit(self, at: int = 0) -> float:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.unit_s.append(elapsed)
        self.unit_at.append(at)
        self.total_s += elapsed
        return elapsed

    def keep_up(self, work_s: float, at: int = 0) -> None:
        """Run units until the kernel has taken SHARE of ``work_s``; ``at`` ops are done."""
        while self.total_s < SHARE * work_s:
            self.unit(at)

    def scale(self) -> float:
        """NOMINAL_S over the mean unit time: multiply a wall time by it."""
        return NOMINAL_S * len(self.unit_s) / self.total_s


def op_scales(unit_at, unit_s, ops: int, window: int = LOCAL_UNITS) -> list[float]:
    """Per-op scale from the ``window`` units that ran nearest to each op.

    The machine's speed also swings within a run, and a latency percentile
    does not average those swings the way a throughput does.  So each op's
    latency is scaled by the speed around it: op ``i`` ran before the units
    with ``unit_at > i``.
    """
    window = min(window, len(unit_s))
    out = []
    for i in range(ops):
        first = bisect.bisect_right(unit_at, i) - window // 2
        first = max(0, min(first, len(unit_s) - window))
        near = unit_s[first:first + window]
        out.append(NOMINAL_S * window / sum(near))
    return out
