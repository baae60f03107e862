"""The reference kernel: fixed pure-Python work that does not use the
package, timed next to every job as a yardstick for the machine's speed at
that moment (see run.py)."""
from __future__ import annotations

import time
from fractions import Fraction


def kernel():
    """Rational sums, big integers and a dict, like the package's own work."""
    total, seen = Fraction(0), {}
    for j in range(1, 12_000):
        total += Fraction(j % 89 + 1, j % 97 + 1)
        seen[j & 255] = total.numerator & 1023
    return total


def seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
