"""Reference work that tracks how fast the machine runs at the moment.

On a shared VM the speed of a vCPU moves by tens of percent from one
minute to the next, with neighbours' load on the host, and CPU time
moves with it.  So the benchmark runs a fixed piece of reference work
between ops (never inside an op's timed region) and times it.  The
median over a run gives the factor ``REFERENCE_S / median`` that scales
the run's times to a machine on which the reference work takes
``REFERENCE_S``: a slow minute slows the ops and the reference alike,
and the factor takes it out again.

The reference is the benchmark's own code and never calls ``tpass``, so
a change to the library does not move it.  It mixes the kinds of work
the ops do: a pure-Python loop (the interpreter), a dense simplex on
small tableaus (Python driving small NumPy arrays, as ``tpass.lp``
does) and element-wise NumPy work on a 160x160 array.  It calls no
BLAS routine: OpenBLAS's work buffer would add to this process's RSS,
and with it to every ``cli`` child's peak RSS (a child spawned by
``vfork`` starts its ``ru_maxrss`` from its parent's).
"""

from __future__ import annotations

import random
import statistics
from array import array
from time import process_time

import numpy as np

# Median CPU time of one ``work()`` call on the 2-vCPU VM the baseline
# was measured on.  A fixed constant: only the ratio to it matters.
REFERENCE_S = 0.009
# Op CPU time between two reference samples.
EVERY_S = 0.2


def _tableaus() -> list[np.ndarray]:
    """Fixed LPs ``max c'x, Ax <= b, x >= 0`` with ``b > 0``, as tableaus."""
    rng = random.Random(0)
    uniform = lambda low, high, count: [rng.uniform(low, high) for _ in range(count)]
    out = []
    for k in range(12):
        m, n = 4 + k % 6, 4 + (k * 5) % 7
        tab = np.zeros((m + 1, n + m + 1))
        tab[:m, :n] = np.reshape(uniform(0.1, 1.0, m * n), (m, n))
        tab[:m, n:n + m] = np.eye(m)
        tab[:m, -1] = uniform(1.0, 2.0, m)
        tab[-1, :n] = np.negative(uniform(0.5, 1.5, n))
        out.append(tab)
    return out


def _simplex(tab: np.ndarray) -> float:
    """Dantzig's rule with a Python ratio test, in place; the optimum."""
    m = tab.shape[0] - 1
    for _ in range(200):
        j = int(np.argmin(tab[-1, :-1]))
        if tab[-1, j] >= -1e-12:
            break
        col = tab[:-1, j]
        ratios = [tab[i, -1] / col[i] if col[i] > 1e-12 else np.inf for i in range(m)]
        i = int(np.argmin(ratios))
        tab[i] /= tab[i, j]
        for r in range(m + 1):
            if r != i and tab[r, j] != 0.0:
                tab[r] -= tab[r, j] * tab[i]
    return float(tab[-1, -1])


class Calibration:
    """Reference samples taken between ops over one run."""

    def __init__(self):
        self.samples = array("d")
        self._since = 0.0
        self._tableaus = _tableaus()
        self._matrix = np.sin(np.arange(160.0 * 160.0)).reshape(160, 160)

    def work(self) -> float:
        total = 0
        for i in range(40000):
            total += i * i
        value = sum(_simplex(tab.copy()) for tab in self._tableaus)
        x = self._matrix
        for _ in range(25):
            x = np.tanh(x * 0.5 + self._matrix)
        return value + float(x[0, 0]) + (total & 1)

    def sample(self) -> None:
        t0 = process_time()
        self.work()
        self.samples.append(process_time() - t0)

    def after_op(self, op_s: float) -> None:
        """Count an op's CPU time; take a sample when one is due."""
        self._since += op_s
        if self._since >= EVERY_S:
            self._since = 0.0
            self.sample()

    def factor(self) -> float:
        """What the run's times are multiplied by."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.median(self.samples)
