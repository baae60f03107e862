"""Quadratic-time arc-error oracle, the independent route of acceptance
criterion 5, kept here so the benchmark checks `e_sup` without the
package's sweep."""
from __future__ import annotations

import math
from fractions import Fraction


def _prime_power_root(m: int):
    """p when m = p^j for a prime p, else None."""
    mm = m
    for d in range(2, math.isqrt(m) + 1):
        if mm % d == 0:
            while mm % d == 0:
                mm //= d
            return d if mm == 1 else None
    return m


def phi(n: int) -> int:
    """Euler's phi by counting, independent of the package."""
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def arc_error(n: int, n2: int, q: int, a: int, gamma) -> Fraction:
    """sup over arcs I of |sum Lambda - (n2 - n)|I|/phi(q)| for the
    progression a mod q in [n, n2), by trying every endpoint pair."""
    agg = {}
    for m in range(n, n2):
        if m % q != a % q:
            continue
        p = _prime_power_root(m)
        if p is None:
            continue
        pos = (Fraction(gamma) * m) % 1
        agg[pos] = agg.get(pos, Fraction(0)) + Fraction(math.log(p))
    c = Fraction(n2 - n, phi(q))
    if not agg:
        return c
    xs = sorted(agg)
    ws = [agg[x] for x in xs]
    count = len(xs)
    x2 = xs + [x + 1 for x in xs]
    w2 = ws + ws
    best = Fraction(0)
    for i in range(count):
        cum = Fraction(0)
        for j in range(i, i + count):
            cum += w2[j]
            best = max(best, cum - c * (x2[j] - x2[i]))
        inside = Fraction(0)
        for j in range(i + 1, i + count + 1):
            best = max(best, c * (x2[j] - x2[i]) - inside)
            if j < i + count:
                inside += w2[j]
    return best
