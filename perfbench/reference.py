"""Timings scaled to a reference machine speed.

On a shared host the speed of one core drifts by a fifth or more over
seconds and minutes, and the process's CPU time drifts with it, so raw
seconds of the same pass differ between runs by more than a change worth
measuring.  A ``Sampler`` runs a fixed pure-Python kernel, of the same
kind of work as the package (rational arithmetic, polynomial products
and division, tuple-keyed dicts), every ``PERIOD_S`` seconds from an
interval-timer signal handler in the benchmark's own thread, and right
before and after each timed call.  A call's seconds, less the time spent
in the handler, are scaled by ``REFERENCE_S`` over the mean kernel time
sampled during that call: seconds at the speed the machine had when
``REFERENCE_S`` was measured.  No thread or process is started.
"""

import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.25
# Median seconds of one kernel() on a quiet 2-core x86 VM, Python 3.11.7.
REFERENCE_S = 0.0250


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod(a, b):
    a = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = Fraction(a[-1]) / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for j, y in enumerate(b):
            a[k + j] -= f * y
        a.pop()
    return q, a


def kernel():
    """Fixed work: Fraction polynomial products and divisions, summed into
    a tuple-keyed dict.  Never changes, so its time measures the machine."""
    acc = {}
    for rep in range(3):
        p = [Fraction(1), Fraction(-2, 3), Fraction(1, 5)]
        for r in range(24):
            p2 = _mul(p, [Fraction(r + 1, 7), Fraction(1),
                          Fraction(-1, r + 2)])
            q, _rem = _divmod(p2, [Fraction(1, 3), Fraction(2)])
            key = (rep, r % 5, len(q))
            acc[key] = acc.get(key, 0) + q[0]
            p = p2[:6]
    total = 0
    for i in range(12000):
        key = (i % 17, (i * 31) % 13, i % 5)
        acc[key] = acc.get(key, 0) + i
        total += len(key)
    return len(acc) + total


class Sampler:
    """Kernel samples taken while calls run; use as a context manager."""

    def __init__(self):
        self.samples = []      # kernel seconds, in order taken
        self.in_handler = 0.0  # seconds spent in the signal handler
        self._busy = False
        self._previous = None

    def sample(self):
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def _handler(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self.sample()
        finally:
            self.in_handler += perf_counter() - t0
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self):
        """Mark the start of a timed interval."""
        first = len(self.samples)
        self.sample()
        return first, self.in_handler, perf_counter()

    def stop(self, mark):
        """Seconds at reference speed since ``start`` returned ``mark``."""
        end = perf_counter()
        first, spent, begin = mark
        elapsed = end - begin - (self.in_handler - spent)
        self.sample()
        taken = self.samples[first:]
        return elapsed * REFERENCE_S * len(taken) / sum(taken)
