"""Machine-speed calibration.

On a shared host the same single-threaded work runs up to 40% slower for
tens of seconds at a time while other tenants are busy.  A `SpeedGauge`
times a fixed stdlib workload, independent of retractlab, before each
operation (at most every INTERVAL_S) and right after a long one.  Each
operation's wall time is then multiplied by the reference time of that
workload over the median of the samples taken just before and just after
the operation, so that it reads as seconds on the host at its reference
speed.

The workload keeps its data in the processor's caches, so the gauge
follows contention for the cores and not for memory: a run whose working
set is large (instance 1004 on QQ) still varies with the host's load.
"""

import bisect
import json
import re
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005    # the calibration workload on this host, 2 CPUs
INTERVAL_S = 0.1       # sample at most this often between operations
NEAR = 3               # samples taken on each side of an operation
LONG_S = 1.0           # after an operation this long, sample NEAR times

_TOKEN = re.compile(r"\d+/\d+|\d+|[A-Za-z_]\w*|\^|\S")


def calibration_work():
    """Tuple and dict traffic, Fraction and int arithmetic, formatting,
    regex tokenizing and JSON encoding: the mix of interpreter work that
    parsing, multiplying and reporting polynomials does."""
    terms = [((i % 5, i % 3 - 1, i % 4), Fraction(i + 1, i % 3 + 1))
             for i in range(24)]
    acc = {}
    for e1, c1 in terms:
        for e2, c2 in terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            acc[e] = acc[e] + c if e in acc else c
    residues = {e: c.numerator * 7919 % 32003 for e, c in acc.items()}
    text = " + ".join("%s*x1^%d*x2^%d*x3^%d" % ((c,) + e)
                      for e, c in sorted(acc.items()))
    return json.dumps({"tokens": _TOKEN.findall(text),
                       "residues": sorted(residues.values())}, indent=2)


class SpeedGauge:

    def __init__(self):
        self._ends = []      # perf_counter() at the end of each sample
        self._times = []     # seconds each sample took
        for _ in range(NEAR):
            self.sample()

    def sample(self):
        t0 = perf_counter()
        calibration_work()
        t1 = perf_counter()
        self._ends.append(t1)
        self._times.append(t1 - t0)

    def before_op(self):
        if perf_counter() - self._ends[-1] >= INTERVAL_S:
            self.sample()

    def after_op(self, seconds):
        if seconds >= LONG_S:
            for _ in range(NEAR):
                self.sample()

    def around(self, start, end):
        """Factor for an operation that ran from `start` to `end`: the
        reference time over the median of the NEAR samples before it and
        the NEAR samples after it."""
        i = bisect.bisect_right(self._ends, start)
        j = bisect.bisect_right(self._ends, end)
        near = self._times[max(0, i - NEAR):i] + self._times[j:j + NEAR]
        return REFERENCE_S / statistics.median(near)

    def overall(self):
        """(factor over every sample, number of samples)."""
        return REFERENCE_S / statistics.median(self._times), len(self._times)
