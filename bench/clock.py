"""Reference time: wall time rescaled by the host's speed at that moment.

The hosts this benchmark runs on are shared, and their speed swings by
up to a factor of two within a minute (a fixed pure-Python loop took
between 1.0 and 1.9 ms per call in 5-second windows of one minute).
Raw wall times then differ more between runs than any bound worth
setting.  So the closed loop also runs a fixed calibration kernel --
stdlib only, sharing no code with matsep or the input generator, so
that editing either leaves it unchanged -- between ops, at most every
``GAP_S`` seconds, and every duration the benchmark reports is

    wall seconds * REFERENCE_S / (kernel seconds at that moment),

with the kernel time taken as the median of the samples from
``WINDOW_S`` before the interval to ``WINDOW_S`` after it (at least the
two before and the two after).  A change to matsep moves the ops and
not the kernel, so it shows in full; a slow spell of the host moves
both and cancels.  ``REFERENCE_S`` is a round figure near the kernel's
time on the host the baseline was recorded on (0.7 to 1.1 ms), so
reference seconds read within about 30% of wall seconds there.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1.0e-3
GAP_S = 0.02
WINDOW_S = 0.25

_MATRIX = [[Fraction((3 * r + 5 * c) % 11 - 5, 1 + (r + c) % 3) + (r == c)
            for c in range(5)] for r in range(5)]
_WIDE = [Fraction(3**k + 1, 2**k + 3) for k in range(60, 72)]


def _det(rows):
    m = [list(r) for r in rows]
    out = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def kernel():
    """Exact arithmetic on small and wide rationals, an integer loop,
    argument parsing and JSON: what the ops do."""
    _det(_MATRIX)
    acc = Fraction(0)
    for a, b in zip(_WIDE, _WIDE[1:]):
        acc += a * b - b / a
    hits = 0
    for d in range(2, 400):
        hits += 1_000_003 % d == 0
    parser = argparse.ArgumentParser(prog="kernel")
    parser.add_argument("file")
    parser.add_argument("--n", type=int)
    parser.parse_args(["doc.json", "--n", "3"])
    json.loads(json.dumps({"rows": [[str(x) for x in row] for row in _MATRIX]},
                          sort_keys=True))


class Clock:
    """Kernel samples taken between ops, and the scale they imply."""

    def __init__(self):
        self.times = []
        self.durations = []
        for _ in range(3):
            kernel()

    def sample(self):
        start = perf_counter()
        kernel()
        self.durations.append(perf_counter() - start)
        self.times.append(start)

    def maybe_sample(self):
        if not self.times or perf_counter() - self.times[-1] >= GAP_S:
            self.sample()

    def scale(self, start: float, elapsed: float) -> float:
        """Reference seconds per wall second over [start, start + elapsed]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + elapsed + WINDOW_S)
        k = bisect.bisect(self.times, start)
        lo, hi = min(lo, max(0, k - 2)), max(hi, k + 2)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def kernel_ms(self) -> float:
        return statistics.median(self.durations) * 1e3
